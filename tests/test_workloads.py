"""Tests for workload specs, the trace generator, and the modeled suite."""

import hashlib

import pytest

import repro
from repro.core import FetchPolicy, MachineConfig
from repro.isa import OpClass
from repro.select import AlwaysSelector
from repro.vp import WangFranklinPredictor
from repro.workloads import (
    ALL_WORKLOADS,
    AddressPattern,
    BranchModel,
    BranchSpec,
    SPEC_FP,
    SPEC_INT,
    StreamSpec,
    ValueClass,
    ValueMix,
    Workload,
    WorkloadSpec,
    get_workload,
    workload_names,
)

MINIMAL = dict(
    name="toy",
    suite="int",
    description="test",
    streams=(StreamSpec(AddressPattern.RESIDENT, 4096),),
    value_mix=(ValueMix(ValueClass.CONSTANT),),
)


class TestSpecValidation:
    def test_minimal_spec(self):
        spec = WorkloadSpec(**MINIMAL)
        assert spec.blocks >= 1

    def test_rejects_bad_suite(self):
        with pytest.raises(ValueError):
            WorkloadSpec(**{**MINIMAL, "suite": "vector"})

    def test_rejects_empty_streams(self):
        with pytest.raises(ValueError):
            WorkloadSpec(**{**MINIMAL, "streams": ()})

    def test_rejects_empty_value_mix(self):
        with pytest.raises(ValueError):
            WorkloadSpec(**{**MINIMAL, "value_mix": ()})

    def test_rejects_zero_weights(self):
        with pytest.raises(ValueError):
            WorkloadSpec(
                **{**MINIMAL, "value_mix": (ValueMix(ValueClass.CONSTANT, weight=0),)}
            )

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            StreamSpec(AddressPattern.CHASE, 4096, jump_prob=1.5)
        with pytest.raises(ValueError):
            BranchSpec(BranchModel.LOOP, 16, noise=2.0)
        with pytest.raises(ValueError):
            WorkloadSpec(**{**MINIMAL, "fp_fraction": -0.1})
        with pytest.raises(ValueError):
            WorkloadSpec(**{**MINIMAL, "data_branch_frac": 1.5})

    def test_rejects_nonpositive_region(self):
        with pytest.raises(ValueError):
            StreamSpec(AddressPattern.RESIDENT, 0)


class TestGenerator:
    def test_trace_is_deterministic(self):
        wl = Workload(WorkloadSpec(**MINIMAL))
        a = wl.trace(length=500, seed=3)
        b = wl.trace(length=500, seed=3)
        assert [(i.pc, i.op, i.addr, i.value, i.taken) for i in a] == [
            (i.pc, i.op, i.addr, i.value, i.taken) for i in b
        ]

    def test_seed_changes_dynamics_not_structure(self):
        wl = Workload(WorkloadSpec(**MINIMAL))
        a = wl.trace(length=500, seed=1)
        b = wl.trace(length=500, seed=2)
        assert [i.pc for i in a] == [i.pc for i in b]
        assert [i.op for i in a] == [i.op for i in b]

    def test_exact_length(self):
        wl = Workload(WorkloadSpec(**MINIMAL))
        assert len(wl.trace(length=137)) == 137

    def test_rejects_bad_length(self):
        wl = Workload(WorkloadSpec(**MINIMAL))
        with pytest.raises(ValueError):
            wl.trace(length=0)
        for bad in (100.5, True, "100"):
            with pytest.raises(TypeError, match=f"length must be an int, got {bad!r}"):
                wl.trace(length=bad)
        for bad in (1.0, False, "0"):
            with pytest.raises(TypeError, match=f"seed must be an int, got {bad!r}"):
                wl.trace(length=10, seed=bad)
        assert not wl._trace_memo
        with pytest.raises(TypeError, match="length must be an int, got 100.5"):
            repro.simulate(wl, MachineConfig.hpca05_baseline(), length=100.5)

    def test_static_pcs_repeat_across_iterations(self):
        wl = Workload(WorkloadSpec(**MINIMAL))
        trace = wl.trace(length=wl.body_length * 3)
        pcs = [i.pc for i in trace]
        assert pcs[: wl.body_length] == pcs[wl.body_length : 2 * wl.body_length]

    def test_instruction_mix_contains_all_kinds(self):
        wl = Workload(WorkloadSpec(**MINIMAL))
        ops = {i.op for i in wl.trace(length=500)}
        assert OpClass.LOAD in ops
        assert OpClass.STORE in ops
        assert OpClass.BRANCH in ops
        assert OpClass.INT_ALU in ops

    def test_fp_fraction_produces_fp_ops(self):
        spec = WorkloadSpec(**{**MINIMAL, "fp_fraction": 0.8})
        wl = Workload(spec)
        ops = [i.op for i in wl.trace(length=500)]
        fp = sum(1 for o in ops if o.is_fp)
        assert fp > len(ops) * 0.2

    def test_resident_addresses_stay_in_region(self):
        wl = Workload(WorkloadSpec(**MINIMAL))
        base, size = wl.stream_regions()[0]
        for inst in wl.trace(length=500):
            if inst.addr is not None:
                assert base <= inst.addr < base + size + 64

    def test_constant_values_are_constant_per_pc(self):
        wl = Workload(WorkloadSpec(**MINIMAL))
        by_pc: dict[int, set[int]] = {}
        for inst in wl.trace(length=800):
            if inst.op is OpClass.LOAD:
                by_pc.setdefault(inst.pc, set()).add(inst.value)
        assert all(len(values) == 1 for values in by_pc.values())

    def test_serial_chase_has_loop_carried_pointer(self):
        spec = WorkloadSpec(
            **{
                **MINIMAL,
                "streams": (StreamSpec(AddressPattern.CHASE, 1 << 20, stride=512),),
                "serial_address": True,
            }
        )
        wl = Workload(spec)
        trace = wl.trace(length=300)
        self_dep = [i for i in trace if i.op is OpClass.LOAD and i.dst in i.srcs]
        assert self_dep, "expected at least one loop-carried pointer load"


_DYNAMIC_OPS = (OpClass.LOAD, OpClass.STORE, OpClass.BRANCH)


def _record(trace):
    return [(i.pc, i.op, i.srcs, i.dst, i.addr, i.value, i.taken) for i in trace]


class TestSharedStaticInstructions:
    """Each ALU/FP slot is one Instruction shared by every iteration; the
    generator's output is pinned byte for byte, and no simulation writes
    to an instruction."""

    #: SHA-256 over every instruction of all 32 workloads at lengths
    #: {1, 7, 333, 5000} and seeds {0, 3}, computed with the per-slot
    #: generator that built a fresh Instruction for every dynamic instance
    TRACE_DIGEST = "d670a25a188a23b320a3c5ff171a04eceb37fe688ab232e408e683176b966f1d"

    def test_trace_digest_is_pinned(self):
        h = hashlib.sha256()
        for name in ALL_WORKLOADS:
            wl = Workload(get_workload(name).spec)
            for length in (1, 7, 333, 5000):
                for seed in (0, 3):
                    for i in wl.trace(length, seed):
                        h.update(repr(
                            (i.pc, int(i.op), i.srcs, i.dst, i.addr, i.value, i.taken)
                        ).encode())
        assert h.hexdigest() == self.TRACE_DIGEST

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_static_slots_are_shared(self, name):
        wl = Workload(get_workload(name).spec)
        trace = wl.trace(length=16000, seed=0)
        body = wl.body_length
        for i in range(len(trace) - body):
            if trace[i].op not in _DYNAMIC_OPS:
                assert trace[i] is trace[i + body]
        dynamic = [i for i in trace if i.op in _DYNAMIC_OPS]
        assert len({id(i) for i in dynamic}) == len(dynamic)
        static_pcs = {i.pc for i in trace if i.op not in _DYNAMIC_OPS}
        assert len({id(i) for i in trace}) == len(dynamic) + len(static_pcs)

    RUNS = {
        "baseline": MachineConfig.hpca05_baseline,
        "stvp": MachineConfig.stvp,
        "mtvp8": lambda: MachineConfig.mtvp(8),
        "mtvp8_no_stall": lambda: MachineConfig.mtvp(
            8, fetch_policy=FetchPolicy.NO_STALL
        ),
        "spawn_only": lambda: MachineConfig.spawn_only(8),
        "smt2": lambda: MachineConfig.smt(2),
        "spmt": lambda: MachineConfig.spmt(8),
        "cmp": lambda: MachineConfig.cmp(8),
        "wide_window": MachineConfig.wide_window,
    }

    @pytest.mark.parametrize("name", ["mcf", "swim"])
    def test_no_simulation_mutates_an_instruction(self, name):
        wl = get_workload(name)
        length, warmup = 1500, 500
        # the memoized traces every run below reads: fast-forward plus
        # measured length for one program, seeds 0 and 1 for SMT
        traces = [wl.trace(length=warmup + length, seed=0)] + [
            wl.trace(length=length, seed=seed) for seed in (0, 1)
        ]
        before = [_record(t) for t in traces]
        for mode, config in self.RUNS.items():
            config = config()
            assert config.warm_caches
            programs = 2 if mode == "smt2" else 1
            stats = repro.simulate(
                wl, config, predictor=WangFranklinPredictor(),
                selector=AlwaysSelector(), length=length, seed=0,
                warmup=0 if programs > 1 else warmup,
            )
            assert stats.useful_instructions == programs * length, mode
        assert [_record(t) for t in traces] == before


class TestSuite:
    def test_suite_composition(self):
        assert len(SPEC_INT) == 17
        assert len(SPEC_FP) == 15
        assert len(ALL_WORKLOADS) == 32

    def test_figure_benchmarks_present(self):
        for name in ("mcf", "vpr r", "swim", "parser", "art 1", "crafty"):
            assert name in ALL_WORKLOADS

    def test_get_workload_caches(self):
        assert get_workload("mcf") is get_workload("mcf")

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            get_workload("quake3")

    def test_workload_names_filter(self):
        assert workload_names("int") == SPEC_INT
        assert workload_names("fp") == SPEC_FP
        assert workload_names() == ALL_WORKLOADS
        with pytest.raises(ValueError):
            workload_names("simd")

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_every_workload_generates(self, name):
        wl = get_workload(name)
        trace = wl.trace(length=max(300, wl.body_length))
        assert len(trace) >= 300
        loads = [i for i in trace if i.op is OpClass.LOAD]
        assert loads
        assert all(i.value is not None for i in loads)

    def test_distinct_workloads_have_distinct_memory_behaviour(self):
        resident = get_workload("crafty").trace(length=2000)
        chasing = get_workload("mcf").trace(length=2000)

        def unique_lines(t):
            return len({i.addr >> 6 for i in t if i.addr is not None})

        # a pointer chase keeps touching new lines; resident code reuses
        assert unique_lines(chasing) > unique_lines(resident)
