"""The step kernel's window pools and burst-local position stay consistent.

``StepMixin._steps`` keeps each group's rename pool and each IQ/FQ/MQ
as an ascending list (the minimum at index 0), and it keeps the
context's trace position and the processor-wide fetched count in
locals for a whole burst, writing them back before each call that reads
them and once at burst end.  A run paused every ``STEP`` instructions
exposes the state between bursts; at every pause:

* each rename list is ascending and holds at most ``rename_regs`` entries;
* each IQ list is ascending and holds at most ``iq_size`` entries;
* the processor-wide fetched count is the instructions stepped so far.

Across every burst of a whole run, the stepped context's position
advances by exactly the rise in the processor-wide fetched count: a
burst steps one context, so every instruction it fetched is one position
of that context.

The golden digests pin the results these pools produce; these tests pin
the pools' shape and the written-back position, so a pool that loses its
order or a position that is not written back fails here at the first
pause or burst that shows it.
"""

from __future__ import annotations

import pytest

from repro import _steady_state_footprint
from repro.core import MachineConfig
from repro.core.engine import Engine
from repro.core.modes import resolve_model
from repro.select import AlwaysSelector
from repro.vp import OraclePredictor
from repro.workloads import get_workload

#: instructions per ``run(max_steps=...)`` segment
STEP = 137
LENGTH = 3000

MACHINES = {
    "baseline": MachineConfig.hpca05_baseline,
    "stvp": MachineConfig.stvp,
    "mtvp8": lambda: MachineConfig.mtvp(8),
    "smt2": lambda: MachineConfig.smt(2),
    "spmt": lambda: MachineConfig.spmt(8),
}

WORKLOADS = ("mcf", "twolf", "gcc 2")


def _engine(config: MachineConfig, workload: str) -> Engine:
    programs = (
        config.num_contexts if resolve_model(config.mode).multi_program else 1
    )
    wl = get_workload(workload)
    traces = [wl.trace(length=LENGTH, seed=seed) for seed in range(programs)]
    warm = None
    if config.warm_caches and programs == 1:
        warm = _steady_state_footprint(wl, config)
    return Engine(
        traces[0],
        config,
        predictor=OraclePredictor(),
        selector=AlwaysSelector(),
        warm_addresses=warm,
        traces=traces if programs > 1 else None,
    )


def _check_pools(engine: Engine, config: MachineConfig) -> None:
    for i, group in enumerate(engine._groups):
        pool = group.rename
        assert len(pool) <= config.rename_regs, i
        assert all(a <= b for a, b in zip(pool, pool[1:])), (i, pool)
    queues = {id(plan[0]): plan[0] for g in engine._groups for plan in g.op_plan}
    assert len(queues) == 3 * len(engine._groups)
    for queue in queues.values():
        assert len(queue) <= config.iq_size
        assert all(a <= b for a, b in zip(queue, queue[1:])), queue


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_pools_and_positions_hold_at_every_pause(machine, workload):
    config = MACHINES[machine]()
    engine = _engine(config, workload)
    # no run here steps more than num_contexts × LENGTH instructions (the
    # most is SMT(2) at 2 × LENGTH), so a run that stops advancing, as
    # with a position never written back, fails instead of hanging
    most_pauses = config.num_contexts * LENGTH // STEP + 1
    pauses = 0
    stats = engine.run(max_steps=STEP)
    while stats is None:
        pauses += 1
        assert pauses <= most_pauses
        assert engine._global_fetched == STEP * pauses
        _check_pools(engine, config)
        stats = engine.run(max_steps=STEP)
    _check_pools(engine, config)
    assert pauses
    assert engine._global_fetched == stats.instructions_stepped
    assert STEP * pauses < stats.instructions_stepped <= STEP * (pauses + 1)
    if resolve_model(config.mode).single_context:
        # one context steps each instruction once
        assert stats.instructions_stepped == LENGTH


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_every_burst_advances_pos_by_the_instructions_it_fetched(
    monkeypatch, machine, workload
):
    config = MACHINES[machine]()
    engine = _engine(config, workload)
    steps = Engine._steps
    bursts = []

    def checked(self, ctx, second_hint, stop_at):
        pos, fetched = ctx.pos, self._global_fetched
        steps(self, ctx, second_hint, stop_at)
        assert ctx.pos - pos == self._global_fetched - fetched, ctx
        bursts.append(ctx.pos - pos)

    monkeypatch.setattr(Engine, "_steps", checked)
    stats = engine.run()
    # a single-context run is one burst; the others are many
    assert bursts and sum(bursts) == stats.instructions_stepped
