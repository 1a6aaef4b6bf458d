"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core import MachineConfig, SimMode
from repro.isa import Instruction, InstructionBuilder, OpClass
from repro.vp.base import ValuePrediction, ValuePredictor


class FixedPredictor(ValuePredictor):
    """Test predictor: always predicts ``actual + offset`` for every load.

    offset=0 yields an always-correct predictor without oracle semantics;
    offset!=0 yields an always-wrong one.  ``multi`` adds extra candidate
    values for multi-value experiments.
    """

    def __init__(self, offset: int = 0, multi: tuple[int, ...] = ()) -> None:
        super().__init__()
        self.offset = offset
        self.multi = multi

    def predict(self, inst: Instruction):
        if inst.op is not OpClass.LOAD or inst.value is None:
            return None
        self.lookups += 1
        return ValuePrediction((inst.value + self.offset) & ((1 << 64) - 1), 32)

    def predict_all(self, inst: Instruction):
        primary = self.predict(inst)
        if primary is None:
            return []
        out = [primary]
        for extra in self.multi:
            out.append(
                ValuePrediction((inst.value + extra) & ((1 << 64) - 1), 16)
            )
        return out

    def train(self, inst: Instruction, actual: int) -> None:
        pass


@pytest.fixture
def builder() -> InstructionBuilder:
    return InstructionBuilder()


@pytest.fixture
def baseline_config() -> MachineConfig:
    return MachineConfig.hpca05_baseline(warm_caches=False)


@pytest.fixture
def stvp_config() -> MachineConfig:
    return MachineConfig.stvp(warm_caches=False)


@pytest.fixture
def mtvp_config() -> MachineConfig:
    return MachineConfig.mtvp(8, warm_caches=False)


def alu_block(ib: InstructionBuilder, n: int, dst_base: int = 1) -> list[Instruction]:
    """n independent single-cycle ALU instructions."""
    return [ib.int_alu(dst=dst_base + (i % 8)) for i in range(n)]


def mem_miss_trace(
    ib: InstructionBuilder,
    loads: int = 4,
    dependents: int = 2,
    fillers: int = 8,
    base_addr: int = 1 << 33,
    spacing: int = 1 << 20,
) -> list[Instruction]:
    """Loads that miss everywhere, each with a dependent chain + fillers.

    Addresses are megabytes apart so no two share a line or set, and the
    trace never revisits an address — every load goes to main memory on a
    cold hierarchy.
    """
    trace: list[Instruction] = []
    for i in range(loads):
        dst = 1 + (i % 8)
        trace.append(ib.load(dst=dst, addr=base_addr + i * spacing, value=100 + i))
        prev = dst
        for d in range(dependents):
            cdst = 9 + ((i + d) % 8)
            trace.append(ib.int_alu(dst=cdst, srcs=(prev,)))
            prev = cdst
        for f in range(fillers):
            trace.append(ib.int_alu(dst=17 + (f % 8)))
    return trace


def run_engine(trace, config, predictor=None, selector=None):
    """Construct and run an Engine, returning (engine, stats)."""
    from repro.core.engine import Engine

    engine = Engine(trace, config, predictor=predictor, selector=selector)
    stats = engine.run()
    return engine, stats


def fail_runs_of(monkeypatch, spec_name: str) -> None:
    """Make every serial run of the RunSpec named ``spec_name`` raise.

    Campaign points are named ``point_id[:8]``, so this injects a
    run-time failure into one design point of a ``jobs=1`` drain.
    """
    import repro.harness.parallel as parallel

    run_task = parallel._run_task

    def failing(spec, *args, **kwargs):
        if spec.name == spec_name:
            raise RuntimeError(f"injected failure in {spec_name}")
        return run_task(spec, *args, **kwargs)

    monkeypatch.setattr(parallel, "_run_task", failing)


def process_alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"
