"""Engine tests: multithreaded value prediction (the core contribution)."""

import dataclasses
import gc

import pytest

from repro.core import FetchPolicy, MachineConfig
from repro.core.context import ThreadContext
from repro.core.engine import Engine, SpawnRecord
from repro.memory import MemLevel
from repro.select import AlwaysSelector
from repro.vp import OraclePredictor, WangFranklinPredictor
from repro.workloads import get_workload

from tests.conftest import FixedPredictor, alu_block, run_engine


def miss_then_work(ib, work=60, addr=1 << 33):
    """A memory miss followed by lots of independent work, ending with a
    store so speculative commit paths are exercised."""
    trace = [ib.load(dst=1, addr=addr, value=5)]
    trace += alu_block(ib, work, dst_base=2)
    trace += [ib.store(addr=0x9000, srcs=(2,), value=1)]
    return trace


class TestSpawnAndConfirm:
    def test_correct_prediction_spawns_and_confirms(self, builder, mtvp_config):
        trace = miss_then_work(builder)
        _, stats = run_engine(
            trace, mtvp_config, predictor=OraclePredictor(), selector=AlwaysSelector()
        )
        assert stats.spawns == 1
        assert stats.confirms == 1
        assert stats.kills == 0
        assert stats.mtvp_correct == 1
        assert stats.useful_instructions == len(trace)

    def test_speculative_work_confirmed_counts_useful(self, builder, mtvp_config):
        trace = miss_then_work(builder, work=100)
        _, stats = run_engine(
            trace, mtvp_config, predictor=OraclePredictor(), selector=AlwaysSelector()
        )
        assert stats.useful_instructions == len(trace)
        assert stats.wasted_instructions == 0

    def test_speculative_stores_buffered_then_released(self, builder, mtvp_config):
        ib = builder
        lines = [0xA000 + 64 * i for i in range(5)]
        trace = [ib.load(dst=1, addr=1 << 33, value=5)]
        trace += [ib.store(addr=addr, srcs=(), value=i) for i, addr in enumerate(lines)]
        trace += alu_block(ib, 10, dst_base=3)
        engine = Engine(
            trace, mtvp_config, predictor=OraclePredictor(), selector=AlwaysSelector()
        )
        # paused once the child has stepped the five stores: all buffered,
        # none written to the hierarchy
        assert engine.run(max_steps=6) is None
        assert len(engine.store_buffer) == 5
        assert [engine.hierarchy.probe_level(a) for a in lines] == [MemLevel.MEMORY] * 5
        stats = engine.run()
        assert stats.confirms == 1
        # after confirmation the buffer is drained to the hierarchy
        assert len(engine.store_buffer) == 0
        assert [engine.hierarchy.probe_level(a) for a in lines] == [MemLevel.L1] * 5


class TestMisprediction:
    def test_wrong_value_kills_child(self, builder, mtvp_config):
        trace = miss_then_work(builder, work=40)
        _, stats = run_engine(
            trace,
            mtvp_config,
            predictor=FixedPredictor(offset=3),
            selector=AlwaysSelector(),
        )
        assert stats.kills >= 1
        assert stats.mtvp_incorrect >= 1
        # the parent re-executes: results still complete and correct
        assert stats.useful_instructions == len(trace)
        assert stats.wasted_instructions > 0

    def test_squashed_stores_disappear(self, builder, mtvp_config):
        ib = builder
        trace = [ib.load(dst=1, addr=1 << 33, value=5)]
        trace += [ib.store(addr=0xA000, srcs=(), value=7)]
        trace += alu_block(ib, 10, dst_base=3)
        engine, stats = run_engine(
            trace,
            mtvp_config,
            predictor=FixedPredictor(offset=3),
            selector=AlwaysSelector(),
        )
        assert stats.kills >= 1
        assert len(engine.store_buffer) == 0

    def test_misprediction_costs_time(self, builder, mtvp_config):
        trace = miss_then_work(builder, work=40)
        _, right = run_engine(
            trace, mtvp_config, predictor=OraclePredictor(), selector=AlwaysSelector()
        )
        _, wrong = run_engine(
            trace,
            MachineConfig.mtvp(8, warm_caches=False),
            predictor=FixedPredictor(offset=3),
            selector=AlwaysSelector(),
        )
        assert wrong.cycles >= right.cycles


class TestDecoupledWindows:
    def test_mtvp_beats_baseline_on_spaced_misses(self, builder):
        """The headline effect: speculative commit extends past each miss."""
        ib = builder
        trace = []
        for i in range(6):
            trace += miss_then_work(ib, work=120, addr=(1 << 33) + i * (1 << 22))
        base_cfg = MachineConfig.hpca05_baseline(
            warm_caches=False, rob_size=64, rename_regs=64
        )
        mtvp_cfg = MachineConfig.mtvp(
            8, warm_caches=False, rob_size=64, rename_regs=64
        )
        _, base = run_engine(trace, base_cfg)
        _, mtvp = run_engine(
            trace, mtvp_cfg, predictor=OraclePredictor(), selector=AlwaysSelector()
        )
        assert mtvp.useful_ipc > base.useful_ipc * 1.3

    def test_more_contexts_allow_deeper_chains(self, builder):
        ib = builder
        trace = []
        for i in range(8):
            trace += miss_then_work(ib, work=40, addr=(1 << 33) + i * (1 << 22))
        results = {}
        for threads in (2, 8):
            cfg = MachineConfig.mtvp(
                threads, warm_caches=False, rob_size=64, rename_regs=64
            )
            _, stats = run_engine(
                trace, cfg, predictor=OraclePredictor(), selector=AlwaysSelector()
            )
            results[threads] = stats
        assert results[8].spawns >= results[2].spawns
        assert results[8].useful_ipc >= results[2].useful_ipc

    def test_spawn_denied_when_contexts_exhausted(self, builder):
        ib = builder
        trace = []
        for i in range(8):
            trace += [ib.load(dst=1, addr=(1 << 33) + i * (1 << 22), value=5)]
            trace += alu_block(ib, 4, dst_base=2)
        cfg = MachineConfig.mtvp(2, warm_caches=False)
        _, stats = run_engine(
            trace, cfg, predictor=OraclePredictor(), selector=AlwaysSelector()
        )
        assert stats.spawn_denied_no_context > 0
        # denied spawns fall back to single-threaded prediction
        assert stats.stvp_predictions > 0


class TestStoreBufferLimit:
    def test_full_store_buffer_stalls_speculation(self, builder):
        ib = builder
        trace = [ib.load(dst=1, addr=1 << 33, value=5)]
        trace += [ib.store(addr=0xA000 + 8 * i, srcs=(), value=i) for i in range(30)]
        trace += alu_block(ib, 10, dst_base=3)
        cfg = MachineConfig.mtvp(8, warm_caches=False, store_buffer_entries=4)
        _, stats = run_engine(
            trace, cfg, predictor=OraclePredictor(), selector=AlwaysSelector()
        )
        assert stats.store_buffer_stalls > 0
        assert stats.useful_instructions == len(trace)

    def test_larger_buffer_removes_stalls(self, builder):
        ib = builder
        trace = [ib.load(dst=1, addr=1 << 33, value=5)]
        trace += [ib.store(addr=0xA000 + 8 * i, srcs=(), value=i) for i in range(30)]
        trace += alu_block(ib, 10, dst_base=3)
        cfg = MachineConfig.mtvp(8, warm_caches=False, store_buffer_entries=None)
        _, stats = run_engine(
            trace, cfg, predictor=OraclePredictor(), selector=AlwaysSelector()
        )
        assert stats.store_buffer_stalls == 0


class TestStoreForwarding:
    def test_speculative_load_sees_ancestor_store(self, builder):
        ib = builder
        addr = 0xB000
        trace = [ib.load(dst=1, addr=1 << 33, value=5)]  # spawns here
        trace += [ib.store(addr=addr, srcs=(), value=9)]
        trace += [ib.load(dst=2, addr=addr, value=9)]
        trace += alu_block(ib, 10, dst_base=3)
        engine, stats = run_engine(
            trace,
            MachineConfig.mtvp(8, warm_caches=False),
            predictor=OraclePredictor(),
            selector=AlwaysSelector(),
        )
        assert engine.store_buffer.forward_hits >= 1


class TestNestedSpawns:
    def test_chained_speculation(self, builder):
        """A speculative thread spawns again at its own missing load."""
        ib = builder
        trace = []
        for i in range(3):
            trace += [ib.load(dst=1, addr=(1 << 33) + i * (1 << 22), value=5 + i)]
            trace += alu_block(ib, 30, dst_base=2)
        cfg = MachineConfig.mtvp(8, warm_caches=False)
        _, stats = run_engine(
            trace, cfg, predictor=OraclePredictor(), selector=AlwaysSelector()
        )
        assert stats.spawns == 3
        assert stats.confirms == 3
        assert stats.useful_instructions == len(trace)

    def test_mispredict_kills_whole_subtree(self, builder):
        ib = builder
        trace = []
        for i in range(3):
            trace += [ib.load(dst=1, addr=(1 << 33) + i * (1 << 22), value=5 + i)]
            trace += alu_block(ib, 30, dst_base=2)
        cfg = MachineConfig.mtvp(8, warm_caches=False)
        # first prediction wrong, deeper ones wrong too: everything rewinds
        _, stats = run_engine(
            trace, cfg, predictor=FixedPredictor(offset=1), selector=AlwaysSelector()
        )
        assert stats.kills >= 1
        assert stats.useful_instructions == len(trace)


class TestMultiValue:
    def test_correct_alternative_survives(self, builder):
        ib = builder
        trace = [ib.load(dst=1, addr=1 << 33, value=5)]
        trace += alu_block(ib, 30, dst_base=2)
        cfg = MachineConfig.mtvp(8, warm_caches=False, multi_value=3)
        # primary wrong (+1), but one alternative (+0 offset) is right
        predictor = FixedPredictor(offset=1, multi=(0, 2))
        _, stats = run_engine(trace, cfg, predictor=predictor, selector=AlwaysSelector())
        assert stats.spawns == 3
        assert stats.confirms == 1
        assert stats.kills == 2
        assert stats.useful_instructions == len(trace)

    def test_all_wrong_alternatives_all_die(self, builder):
        ib = builder
        trace = [ib.load(dst=1, addr=1 << 33, value=5)]
        trace += alu_block(ib, 30, dst_base=2)
        cfg = MachineConfig.mtvp(8, warm_caches=False, multi_value=3)
        predictor = FixedPredictor(offset=1, multi=(2, 3))
        _, stats = run_engine(trace, cfg, predictor=predictor, selector=AlwaysSelector())
        assert stats.kills == 3
        assert stats.confirms == 0
        assert stats.useful_instructions == len(trace)


class TestDeadContextsFree:
    """A retired or killed context links to no spawn record, so dead
    contexts (and their ROBs and register maps) are freed as they die,
    not left in reference cycles for the cycle collector."""

    @pytest.mark.parametrize(
        "config",
        [
            MachineConfig.mtvp(8),
            dataclasses.replace(MachineConfig.mtvp(8), fetch_policy=FetchPolicy.NO_STALL),
            MachineConfig.spawn_only(8),
            MachineConfig.spmt(8),
        ],
        ids=["mtvp8", "no-stall", "spawn-only", "spmt8"],
    )
    def test_a_run_leaves_no_context_in_a_cycle(self, config):
        wl = get_workload("mcf")
        engine = Engine(
            wl.trace(length=3000, seed=0),
            config,
            predictor=WangFranklinPredictor(),
            selector=AlwaysSelector(),
        )
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            stats = engine.run()
            del engine
            gc.collect()
            leaked = [
                o for o in gc.garbage if isinstance(o, (ThreadContext, SpawnRecord))
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert stats.spawns > 0 and (stats.kills > 0 or stats.confirms > 0)
        assert leaked == []
