"""Unit tests for the load selectors (criticality predictors)."""

from repro.isa import InstructionBuilder
from repro.memory import MemLevel
from repro.select import (
    AlwaysSelector,
    IlpPredSelector,
    MissOracleSelector,
    PredictionKind,
)


def a_load(pc=0x1000):
    return InstructionBuilder().load(dst=1, addr=0x8000, value=5, pc=pc)


class TestAlways:
    def test_prefers_mtvp_with_free_context(self):
        s = AlwaysSelector()
        assert s.choose(a_load(), spawn_available=True) is PredictionKind.MTVP

    def test_falls_back_to_stvp(self):
        s = AlwaysSelector()
        assert s.choose(a_load(), spawn_available=False) is PredictionKind.STVP


class TestMissOracle:
    def test_l1_hits_not_predicted(self):
        s = MissOracleSelector()
        assert (
            s.choose(a_load(), True, expected_level=MemLevel.L1)
            is PredictionKind.NONE
        )

    def test_memory_miss_spawns(self):
        s = MissOracleSelector()
        assert (
            s.choose(a_load(), True, expected_level=MemLevel.MEMORY)
            is PredictionKind.MTVP
        )

    def test_l2_miss_gets_stvp(self):
        s = MissOracleSelector()
        assert (
            s.choose(a_load(), True, expected_level=MemLevel.L2)
            is PredictionKind.STVP
        )

    def test_no_context_degrades_to_stvp(self):
        s = MissOracleSelector()
        assert (
            s.choose(a_load(), False, expected_level=MemLevel.MEMORY)
            is PredictionKind.STVP
        )

    def test_configurable_spawn_level(self):
        s = MissOracleSelector(mtvp_level=MemLevel.L3)
        assert (
            s.choose(a_load(), True, expected_level=MemLevel.L3)
            is PredictionKind.MTVP
        )

    def test_unknown_level_not_predicted(self):
        s = MissOracleSelector()
        assert s.choose(a_load(), True, expected_level=None) is PredictionKind.NONE


class TestIlpPredLatencyGate:
    def test_first_episode_is_at_most_stvp(self):
        s = IlpPredSelector()
        kind = s.choose(a_load(), spawn_available=True)
        assert kind is not PredictionKind.MTVP

    def test_short_latency_pc_is_gated_off(self):
        s = IlpPredSelector(stvp_min_latency=6, mtvp_min_latency=60)
        pc = 0x1000
        for _ in range(6):
            s.record(pc, PredictionKind.NONE, instructions=10, cycles=3)
        assert s.choose(a_load(pc), True) is PredictionKind.NONE

    def test_long_latency_pc_unlocks_mtvp(self):
        s = IlpPredSelector()
        pc = 0x1000
        for _ in range(4):
            s.record(pc, PredictionKind.NONE, instructions=50, cycles=1000)
        kind = s.choose(a_load(pc), True)
        assert kind is PredictionKind.MTVP

    def test_medium_latency_allows_stvp_only(self):
        s = IlpPredSelector(stvp_min_latency=6, mtvp_min_latency=300)
        pc = 0x1000
        for _ in range(4):
            s.record(pc, PredictionKind.NONE, instructions=20, cycles=50)
        assert s.choose(a_load(pc), True) is PredictionKind.STVP


class TestIlpPredProgressComparison:
    def _fill_latency(self, s, pc, cycles=1000):
        for _ in range(2):
            s.record(pc, PredictionKind.NONE, instructions=200, cycles=cycles)

    def test_unprofitable_mtvp_disabled_after_warmup(self):
        s = IlpPredSelector(warmup=2, explore_period=1000)
        pc = 0x1000
        self._fill_latency(s, pc)
        # MTVP episodes make far less progress than no prediction
        for _ in range(3):
            s.record(pc, PredictionKind.MTVP, instructions=5, cycles=1000)
        kind = s.choose(a_load(pc), True)
        assert kind is not PredictionKind.MTVP

    def test_profitable_mtvp_stays_enabled(self):
        s = IlpPredSelector(warmup=2, explore_period=1000)
        pc = 0x1000
        self._fill_latency(s, pc)
        for _ in range(3):
            s.record(pc, PredictionKind.MTVP, instructions=900, cycles=1000)
        assert s.choose(a_load(pc), True) is PredictionKind.MTVP

    def test_exploration_forces_periodic_none(self):
        s = IlpPredSelector(explore_period=8)
        pc = 0x1000
        for _ in range(4):
            s.record(pc, PredictionKind.NONE, instructions=50, cycles=1000)
        kinds = [s.choose(a_load(pc), True) for _ in range(20)]
        assert PredictionKind.NONE in kinds
        assert any(k is not PredictionKind.NONE for k in kinds)

    def test_zero_cycle_records_ignored(self):
        s = IlpPredSelector()
        s.record(0x1000, PredictionKind.NONE, instructions=10, cycles=0)
        entry = s._entry(0x1000)
        assert entry.samples[PredictionKind.NONE] == 0

    def test_latency_ewma_tracks_episodes(self):
        s = IlpPredSelector()
        pc = 0x1000
        s.record(pc, PredictionKind.NONE, 10, 100)
        entry = s._entry(pc)
        assert entry.latency == 100
        s.record(pc, PredictionKind.NONE, 10, 500)
        assert 100 < entry.latency <= 500


class TestBoundedOptimism:
    """Regression: pre-evidence ("warmup") grants must be clamped.

    Before the clamp, a PC whose episodes never resolved (e.g. a long
    MTVP spawn chain) was granted prediction indefinitely under the
    ``samples < warmup`` rule — unbounded optimism.  Now at most
    ``max_optimistic_grants`` grants per mode may be outstanding ahead of
    the evidence, and every resolved sample refills the allowance.
    """

    def test_unknown_latency_stvp_grants_are_bounded(self):
        s = IlpPredSelector(max_optimistic_grants=2, explore_period=1000)
        pc = 0x4000
        granted = []
        for episode in range(10):
            kind = s.choose(a_load(pc), spawn_available=False)
            granted.append(kind)
        # episode 2 is the front-loaded baseline probe; besides it, only
        # max_optimistic_grants STVP grants may happen with zero evidence
        assert granted.count(PredictionKind.STVP) == 2
        assert granted[3:] == [PredictionKind.NONE] * 7

    def test_resolved_sample_refills_the_allowance(self):
        s = IlpPredSelector(max_optimistic_grants=1, explore_period=1000)
        pc = 0x4000
        s.choose(a_load(pc), spawn_available=False)  # optimistic grant 1
        assert (
            s.choose(a_load(pc), spawn_available=False)
            is PredictionKind.NONE
        )  # episode-2 baseline probe
        assert (
            s.choose(a_load(pc), spawn_available=False)
            is PredictionKind.NONE
        )  # allowance exhausted
        # evidence lands: a fast STVP episode and a NONE baseline
        s.record(pc, PredictionKind.STVP, instructions=400, cycles=10)
        s.record(pc, PredictionKind.NONE, instructions=100, cycles=10)
        assert (
            s.choose(a_load(pc), spawn_available=False)
            is PredictionKind.STVP
        )

    def test_mtvp_warmup_optimism_is_bounded(self):
        s = IlpPredSelector(max_optimistic_grants=3, explore_period=1000)
        pc = 0x8000
        # teach the PC a latency worth a spawn, but never resolve any
        # MTVP episode: grants must dry up at the bound
        s.record(pc, PredictionKind.NONE, instructions=100, cycles=500)
        grants = [
            s.choose(a_load(pc), spawn_available=True) for _ in range(12)
        ]
        assert grants.count(PredictionKind.MTVP) == 3
        # once MTVP and STVP optimism is spent, the selector declines
        assert grants[-1] is PredictionKind.NONE

    def test_bound_must_be_positive(self):
        import pytest

        with pytest.raises(ValueError):
            IlpPredSelector(max_optimistic_grants=0)
