"""Property-based tests (hypothesis) for core data structures and invariants."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.branch import TwoBcGskewPredictor, update_history
from repro.core import FetchPolicy, MachineConfig
from repro.core.engine import Engine
from repro.isa import Instruction, InstructionBuilder, OpClass
from repro.memory import Cache, MemoryHierarchy, StoreBuffer
from repro.obs import Tracer
from repro.obs.events import EventKind
from repro.select import AlwaysSelector
from repro.vp import StridePredictor, WangFranklinPredictor
from repro.workloads import get_workload

from tests.conftest import FixedPredictor, run_engine

addresses = st.integers(min_value=0, max_value=(1 << 40) - 1)
values64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestCacheProperties:
    @given(st.lists(addresses, min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addrs):
        cache = Cache(4096, 2, line_size=64)
        for a in addrs:
            cache.insert(a)
        assert cache.occupancy <= 4096 // 64

    @given(st.lists(addresses, min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_insert_then_probe_is_present(self, addrs):
        cache = Cache(64 * 1024, 8, line_size=64)
        for a in addrs:
            cache.insert(a)
            assert cache.probe(a)

    @given(st.lists(addresses, min_size=1, max_size=100), st.integers(0, 99))
    @settings(max_examples=30, deadline=None)
    def test_lookup_miss_then_hit(self, addrs, pick):
        cache = Cache(1 << 20, 16, line_size=64)
        for a in addrs:
            if not cache.lookup(a):
                cache.insert(a)
        target = addrs[pick % len(addrs)]
        assert cache.probe(target)


class TestHierarchyProperties:
    @given(st.lists(st.tuples(addresses, st.integers(0, 10000)), min_size=1,
                    max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_completion_never_before_access(self, accesses):
        h = MemoryHierarchy(mem_latency=500)
        for addr, now in accesses:
            complete, _level = h.load(addr, 0x100, now)
            assert complete >= now

    @given(st.lists(addresses, min_size=2, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_level_counts_sum_to_accesses(self, addrs):
        h = MemoryHierarchy()
        for i, a in enumerate(addrs):
            h.load(a, 0x100, i * 10)
        assert sum(h.level_counts.values()) == len(addrs)


class TestStoreBufferProperties:
    @given(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(0, 100), addresses, values64),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_total_tracks_alloc_release(self, stores):
        sb = StoreBuffer(capacity=32)
        accepted = 0
        for owner, pos, addr, value in stores:
            if sb.allocate(owner, pos, addr, value, 0):
                accepted += 1
        assert len(sb) == accepted <= 32
        drained = len(sb.drain_upto(2))
        drained += len(sb.drain_upto(4))
        assert drained == accepted
        assert len(sb) == 0

    @given(
        st.lists(
            st.tuples(st.integers(1, 3), st.integers(0, 50), addresses, values64),
            min_size=1,
            max_size=40,
        ),
        addresses,
    )
    @settings(max_examples=50, deadline=None)
    def test_search_result_is_visible_and_older(self, stores, probe_addr):
        sb = StoreBuffer(capacity=None)
        for owner, pos, addr, value in stores:
            sb.allocate(owner, pos, addr, value, 0)
        hit = sb.search(probe_addr, visible=(1, 2), trace_pos=25)
        if hit is not None:
            assert hit.owner in (1, 2)
            assert hit.trace_pos < 25
            assert hit.addr >> 3 == probe_addr >> 3


class TestAllocatorProperties:
    """The step kernel's fetch and issue bookings on random short runs."""

    CONFIGS = [
        MachineConfig.hpca05_baseline,
        lambda: MachineConfig.mtvp(8, fetch_policy=FetchPolicy.NO_STALL),
        lambda: MachineConfig.spmt(8),
        lambda: MachineConfig.cmp(4),
    ]

    @given(
        st.sampled_from(["mcf", "gcc 1", "art 1", "twolf", "gzip g"]),
        st.integers(0, len(CONFIGS) - 1),
        st.integers(0, 3),
        st.integers(100, 1200),
    )
    @settings(max_examples=12, deadline=None)
    def test_capacity_respected_and_result_ge_request(
        self, workload, config_idx, seed, length
    ):
        config = self.CONFIGS[config_idx]()
        tracer = Tracer()
        engine = Engine(
            get_workload(workload).trace(length=length, seed=seed),
            config,
            tracer=tracer,
        )
        stats = engine.run()
        caps = {
            "int": config.int_issue, "fp": config.fp_issue, "mem": config.mem_issue,
        }
        for group in engine._groups:
            assert max(group.fetch) <= config.fetch_width
            assert max(group.total) <= config.issue_width
            for q, booked in group.ports.items():
                assert max(booked) <= caps[q]
        # every instruction's fetch is booked at or after the previous
        # fetch of its context, and its issue at or after its operands
        # could first be queued
        steps = [
            (tid, args)
            for _cycle, kind, tid, args in tracer.events
            if kind == EventKind.INSTRUCTION
        ]
        assert tracer.dropped == 0
        assert len(steps) == stats.instructions_stepped
        last_fetch: dict[int, int] = {}
        for tid, args in steps:
            assert args["fetch"] >= last_fetch.get(tid, 0)
            last_fetch[tid] = args["fetch"]
            assert args["issue"] >= args["fetch"] + config.front_latency
            assert args["commit"] > args["issue"]


class TestPredictorProperties:
    @given(st.lists(values64, min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_wang_franklin_never_crashes_and_learns_constants(self, tail):
        ib = InstructionBuilder()
        p = WangFranklinPredictor(threshold=4)
        for i, v in enumerate(tail):
            inst = ib.load(dst=1, addr=0x8000 + 8 * i, value=v, pc=0x1000)
            p.predict(inst)
            p.train(inst, v)
        # after any history, a long constant run must become predictable
        for i in range(30):
            inst = ib.load(dst=1, addr=0x9000, value=777, pc=0x1000)
            p.train(inst, 777)
        pred = p.predict(ib.load(dst=1, addr=0x9000, value=777, pc=0x1000))
        assert pred is not None and pred.value == 777

    @given(st.integers(0, (1 << 63)), st.integers(1, 1 << 30))
    @settings(max_examples=40, deadline=None)
    def test_stride_predictor_extrapolates_any_stride(self, start, stride):
        ib = InstructionBuilder()
        p = StridePredictor(threshold=2)
        mask = (1 << 64) - 1
        for i in range(5):
            v = (start + i * stride) & mask
            p.train(ib.load(dst=1, addr=0x8000, value=v, pc=0x1000), v)
        pred = p.predict(ib.load(dst=1, addr=0x8000, value=0, pc=0x1000))
        assert pred is not None
        assert pred.value == (start + 5 * stride) & mask


class TestBranchHistoryProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_history_is_pure_function_of_outcomes(self, outcomes):
        h1 = h2 = 0
        for taken in outcomes:
            h1 = update_history(h1, taken)
            h2 = update_history(h2, taken)
        assert h1 == h2
        assert 0 <= h1 < (1 << 16)

    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    @settings(max_examples=20, deadline=None)
    def test_predictor_update_never_crashes(self, outcomes):
        bp = TwoBcGskewPredictor()
        hist = 0
        for taken in outcomes:
            bp.predict_and_update(0x4000, hist, taken)
            hist = update_history(hist, taken)


class TestPointIdProperties:
    """The sweep/search stacks key every store row, cache entry and
    promotion decision on point_id — it must be a pure content hash:
    invariant to params key order and identical across processes."""

    param_keys = st.sampled_from(
        ["machine", "threads", "spawn_latency", "store_buffer_entries",
         "predictor", "selector", "fetch_policy"]
    )
    param_values = st.one_of(
        st.integers(0, 1 << 16), st.text(max_size=12), st.booleans()
    )

    @given(
        st.dictionaries(param_keys, param_values, min_size=1, max_size=7),
        st.sampled_from(["mcf", "crafty", "swim"]),
        st.integers(1, 100000),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_to_params_key_order(self, params, workload, length, rnd):
        from repro.sweep.spec import point_id

        items = list(params.items())
        rnd.shuffle(items)
        shuffled = dict(items)
        assert list(shuffled) != list(params) or shuffled == params
        assert point_id(shuffled, workload, length) == point_id(
            params, workload, length
        )

    @given(
        st.dictionaries(param_keys, param_values, min_size=1, max_size=5),
        st.integers(1, 100000),
    )
    @settings(max_examples=40, deadline=None)
    def test_seedless_identity_separates_points(self, params, length):
        from repro.sweep.spec import point_id

        # changing any identity ingredient changes the id...
        base = point_id(params, "mcf", length)
        assert base != point_id(params, "crafty", length)
        assert base != point_id(params, "mcf", length + 1)
        # ...and the id is a stable 16-hex-digit digest
        assert len(base) == 16 and int(base, 16) >= 0

    def test_stable_across_processes(self):
        """The id of a fixed recipe must match both a golden literal
        (guarding the hash recipe against accidental change) and a
        fresh interpreter (no per-process salting a la PYTHONHASHSEED)."""
        import subprocess
        import sys

        from repro.sweep.spec import point_id

        params = {"machine": "mtvp", "threads": 8, "spawn_latency": 16}
        local = point_id(params, "mcf", 5000)
        assert local == "dc83bdd4810ebe6d"  # golden: the recipe is frozen

        code = (
            "from repro.sweep.spec import point_id; "
            "print(point_id({'spawn_latency': 16, 'threads': 8, "
            "'machine': 'mtvp'}, 'mcf', 5000), end='')"
        )
        fresh = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "random"},
            cwd=str(__import__("pathlib").Path(__file__).parent.parent),
        )
        assert fresh.stdout == local


class TestEngineProperties:
    @staticmethod
    def _random_trace(ops):
        ib = InstructionBuilder()
        trace = []
        for kind, a, b in ops:
            if kind == 0:
                trace.append(ib.load(dst=1 + a % 8, addr=(1 << 33) + b * 64, value=b))
            elif kind == 1:
                trace.append(ib.store(addr=(1 << 33) + b * 64, srcs=(1 + a % 8,), value=b))
            elif kind == 2:
                trace.append(ib.int_alu(dst=1 + a % 8, srcs=(1 + b % 8,)))
            else:
                trace.append(ib.branch(taken=bool(b & 1), srcs=(1 + a % 8,)))
        return trace

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 7), st.integers(0, 63)),
            min_size=1,
            max_size=80,
        ),
        st.sampled_from(["baseline", "stvp", "mtvp", "spawn_only"]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_trace_any_mode_accounts_exactly(self, ops, mode, wrong):
        """The global invariant: every instruction becomes architectural
        exactly once, under any mode, with any prediction quality."""
        trace = self._random_trace(ops)
        cfg = {
            "baseline": MachineConfig.hpca05_baseline,
            "stvp": MachineConfig.stvp,
            "mtvp": lambda **kw: MachineConfig.mtvp(4, **kw),
            "spawn_only": lambda **kw: MachineConfig.spawn_only(4, **kw),
        }[mode](warm_caches=False)
        predictor = FixedPredictor(offset=1 if wrong else 0)
        _, stats = run_engine(trace, cfg, predictor=predictor, selector=AlwaysSelector())
        assert stats.useful_instructions == len(trace)
        assert stats.cycles > 0
        assert stats.wasted_instructions >= 0
