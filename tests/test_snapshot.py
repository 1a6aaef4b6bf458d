"""Engine checkpointing: the warmup-checkpoint contract.

``fast_forward`` then run must equal restore-the-snapshot then run, and
one snapshot must serve every machine that differs only in timing axes.
Restores refuse a payload with a bad position or version, and an
engine whose run has started; ``snapshot()`` refuses an engine whose
timed run has started (paused or finished), since the payload would
silently skip the instructions already stepped.

A payload holds tables and contents only: wherever a snapshot may be
taken, every counter and every piece of memory timing state still holds
its constructor value, and a restore leaves them there.
"""

from __future__ import annotations

import hashlib
import json
import pickle

import pytest

from repro import _steady_state_footprint
from repro import vp as vp_registry
from repro.core import Engine, MachineConfig, SimMode
from repro.core.engine.snapshot import shared
from repro.select import AlwaysSelector, IlpPredSelector
from repro.vp import WangFranklinPredictor
from repro.workloads import get_workload

TRACE = get_workload("mcf").trace(3000, seed=0)

#: a config factory per simulation mode, all sharing the trace above
MODES = {
    "baseline": lambda: MachineConfig.hpca05_baseline(),
    "stvp": lambda: MachineConfig.stvp(),
    "mtvp": lambda: MachineConfig.mtvp(4),
    "spawn_only": lambda: MachineConfig.spawn_only(4),
}


def digest(stats) -> str:
    """Canonical byte-level identity of a stats object."""
    blob = json.dumps(stats.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def build(config, trace=TRACE) -> Engine:
    return Engine(
        trace,
        config,
        predictor=WangFranklinPredictor(),
        selector=IlpPredSelector(),
    )


class TestPausableRun:
    def test_run_with_budget_pauses_and_resumes(self):
        engine = build(MODES["mtvp"]())
        assert engine.run(max_steps=500) is None
        stats = engine.run()  # finish
        assert stats is not None
        assert stats.instructions_stepped >= len(TRACE)

    def test_segmented_run_equals_uninterrupted(self):
        ref = build(MODES["mtvp"]()).run()
        engine = build(MODES["mtvp"]())
        while engine.run(max_steps=97) is None:
            pass
        # the final successful segment returned the stats; rerun to fetch
        engine2 = build(MODES["mtvp"]())
        out = None
        while out is None:
            out = engine2.run(max_steps=97)
        assert digest(out) == digest(ref)

    def test_finished_engine_rejects_rerun(self):
        engine = build(MODES["baseline"]())
        engine.run()
        with pytest.raises(RuntimeError, match="once"):
            engine.run()


class TestFastForward:
    def test_fast_forward_advances_position_without_cycles(self):
        engine = build(MODES["mtvp"](), trace=TRACE)
        engine.fast_forward(1000)
        assert engine._contexts[0].pos == 1000
        assert engine.stats.warmup_instructions == 1000
        assert engine.stats.cycles == 0
        stats = engine.run()
        # only the measured interval is timed
        assert stats.instructions_stepped == len(TRACE) - 1000
        assert stats.warmup_instructions == 1000

    def test_fast_forward_rejects_started_engine(self):
        engine = build(MODES["baseline"]())
        engine.run(max_steps=10)
        with pytest.raises(RuntimeError):
            engine.fast_forward(100)

    def test_fast_forward_must_leave_a_measured_region(self):
        engine = build(MODES["baseline"]())
        with pytest.raises(ValueError):
            engine.fast_forward(len(TRACE))

    def test_warmup_key_only_serialized_when_nonzero(self):
        plain = build(MODES["baseline"]()).run()
        assert "warmup_instructions" not in plain.to_dict()
        warmed = build(MODES["baseline"]())
        warmed.fast_forward(500)
        assert warmed.run().to_dict()["warmup_instructions"] == 500


class TestArchSnapshot:
    def test_arch_restore_equals_fast_forward(self):
        warm = build(MODES["mtvp"]())
        warm.fast_forward(1500)
        payload = pickle.loads(pickle.dumps(warm.snapshot()))
        ref = warm.run()

        restored = build(MODES["mtvp"]())
        restored.restore(payload)
        assert digest(restored.run()) == digest(ref)

    def test_arch_checkpoint_shared_across_timing_axes(self):
        # a spawn-latency change is timing-only: the warmed architectural
        # state is identical, so one checkpoint must serve both machines
        warm = build(MachineConfig.mtvp(4))
        warm.fast_forward(1500)
        payload = warm.snapshot()

        direct = build(MachineConfig.mtvp(4, spawn_latency=32))
        direct.fast_forward(1500)
        ref = direct.run()

        restored = build(MachineConfig.mtvp(4, spawn_latency=32))
        restored.restore(payload)
        assert digest(restored.run()) == digest(ref)

    def test_arch_snapshot_rejects_speculative_state(self):
        engine = Engine(
            TRACE,
            MachineConfig.mtvp(8),
            predictor=WangFranklinPredictor(),
            selector=AlwaysSelector(),
        )
        while engine.run(max_steps=40) is None:
            if engine._pending:
                break
        assert engine._pending, "no spawn in flight; adjust the trace"
        with pytest.raises(RuntimeError):
            engine.snapshot()

    @pytest.mark.parametrize("max_steps", [100, None], ids=["paused", "finished"])
    def test_snapshot_refuses_a_started_engine(self, max_steps):
        engine = build(MODES["baseline"]())
        engine.run(max_steps=max_steps)
        with pytest.raises(RuntimeError, match="started"):
            engine.snapshot()

    def test_arch_restore_rejects_position_beyond_trace(self):
        warm = build(MODES["baseline"]())
        warm.fast_forward(2500)
        payload = warm.snapshot()
        short = build(MODES["baseline"](), trace=TRACE[:2000])
        with pytest.raises(ValueError, match="position"):
            short.restore(payload)
        for pos in (-1, 1000.0, "1000", True):
            with pytest.raises(ValueError, match="position"):
                build(MODES["baseline"]()).restore(dict(payload, pos=pos))

    def test_restore_requires_fresh_engine(self):
        payload = build(MODES["baseline"]()).snapshot()
        used = build(MODES["baseline"]())
        used.run(max_steps=10)
        with pytest.raises(RuntimeError, match="fresh"):
            used.restore(payload)

    def test_restore_validates_version(self):
        payload = build(MODES["baseline"]()).snapshot()
        payload["version"] = 999
        with pytest.raises(ValueError, match="version"):
            build(MODES["baseline"]()).restore(payload)


def unsnapshotted(engine: Engine) -> dict:
    """Every field a snapshot leaves out: the memory hierarchy's MSHR and
    in-flight fill records and level counts, and the prefetcher's
    counters."""
    h = engine.hierarchy
    pf = h.prefetcher
    return {
        "mshr_heap": list(h._mshr_heap),
        "inflight": dict(h._inflight),
        "prune_threshold": h._prune_threshold,
        "level_counts": dict(h.level_counts),
        "prefetcher": (pf.stream_hits, pf.mistrains),
    }


#: the machines whose warm start and fast-forward are checked
SNAPSHOT_MODES = {
    "baseline": MachineConfig.hpca05_baseline,
    "stvp": MachineConfig.stvp,
    "mtvp8": lambda **kw: MachineConfig.mtvp(8, **kw),
    "spawn_only": lambda **kw: MachineConfig.spawn_only(8, **kw),
}


class TestSnapshotsHoldNoCounters:
    """Warmup moves no counter it does not reset, so a payload needs none."""

    WORKLOAD = get_workload("mcf")
    TRACE = WORKLOAD.trace(2000, seed=0)
    WARMUP = 1000
    KEYS = {"version", "pos", "bhist", "warmup_instructions", "hierarchy",
            "branch", "predictor"}

    def engine(self, mode, predictor, warm, arch=None) -> Engine:
        config = SNAPSHOT_MODES[mode](warm_caches=warm)
        return Engine(
            self.TRACE,
            config,
            predictor=vp_registry.create(predictor),
            selector=IlpPredSelector(),
            arch=arch,
            warm_addresses=(
                _steady_state_footprint(self.WORKLOAD, config) if warm else None
            ),
        )

    @pytest.mark.parametrize("predictor", ["oracle", "wang-franklin", "dfcm"])
    @pytest.mark.parametrize("mode", sorted(SNAPSHOT_MODES))
    def test_every_snapshot_point_leaves_them_at_their_constructor_values(
        self, mode, predictor
    ):
        fresh = unsnapshotted(self.engine(mode, predictor, warm=False))
        for warm in (False, True):
            for warmup in (0, self.WARMUP):
                donor = self.engine(mode, predictor, warm)
                donor.fast_forward(warmup)
                point = f"{mode}/{predictor} warm={warm} warmup={warmup}"
                assert unsnapshotted(donor) == fresh, point
                payload = donor.snapshot()
                assert set(payload) == self.KEYS, point
                for restored in (
                    self.engine(mode, predictor, warm, arch=payload),
                    self.engine(mode, predictor, warm=False, arch=shared(payload)),
                ):
                    assert unsnapshotted(restored) == unsnapshotted(donor), point
                    assert restored.snapshot() == payload, point
                plain = self.engine(mode, predictor, warm=False)
                plain.restore(payload)
                assert unsnapshotted(plain) == fresh, point

    def test_no_component_payload_holds_a_counter_or_timing_state(self):
        payload = self.engine("mtvp8", "wang-franklin", warm=True).snapshot()
        hierarchy = payload["hierarchy"]
        assert set(hierarchy) == {"version", "l1", "l2", "l3", "prefetcher"}
        for level in ("l1", "l2", "l3"):
            assert set(hierarchy[level]) == {"version", "geometry", "counts", "tags"}
        assert set(hierarchy["prefetcher"]) == {
            "version", "table_entries", "table", "regions", "streams"}
        assert set(payload["predictor"]) == {"version", "kind", "state"}
        assert set(payload["branch"]["state"]) == {"bim", "g0", "g1", "meta"}
