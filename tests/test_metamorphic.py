"""Metamorphic relations: a more generous machine never takes more cycles.

Every golden digest comes from the one step kernel, so a wrong timing rule
in it would agree with itself on every route.  These relations need no
second kernel: each one loosens a single Table 1 knob in the direction that
can only help (half the memory or L2 latency, a shorter front end, twice
the ROB, queue, rename registers or commit width) and asserts the run does
not get slower.  Like Mitrevski and Gušev's analytical bounds on the
potential of speculative execution (PAPERS.md), the check comes from the
model's structure, not from a second implementation of it.

The relations are gated on the single-context machines: the baseline and
STVP with the oracle predictor, over eight workloads.  MTVP-8 with the
always selector is not monotone in the memory latency on some workloads
(DESIGN.md §6), so it is not gated here.  Every run also passes the
conservation check, and every relation must change the cycles of at least
one workload: a knob that never binds would pass vacuously.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import pytest

from repro import simulate
from repro.core import MachineConfig, check_conservation
from repro.vp import OraclePredictor

#: knob -> (Table 1 value, more generous value)
RELATIONS = {
    "mem_latency": (1000, 500),
    "l2_latency": (20, 10),
    "front_latency": (15, 5),
    "rob_size": (256, 512),
    "iq_size": (64, 128),
    "rename_regs": (224, 448),
    "commit_width": (8, 16),
}

#: knob -> settings both sides of its relation hold.  With Table 1's 224
#: rename registers the rename pool fills before a 256-entry ROB does, so
#: doubling the ROB alone changes no run; with 448 the ROB binds.
HELD = {"rob_size": {"rename_regs": 448}}

MACHINES = {
    "baseline": MachineConfig.hpca05_baseline,
    "stvp": MachineConfig.stvp,
}

WORKLOADS = ("gzip g", "gcc e", "crafty", "gap", "twolf", "applu", "art 4", "lucas")

LENGTH, SEED = 2000, 0


def cycles(config: MachineConfig, workload: str) -> int:
    stats = simulate(
        workload, config, predictor=OraclePredictor(), length=LENGTH, seed=SEED
    )
    check_conservation(stats, LENGTH)
    return stats.cycles


def start(machine: str, held: tuple) -> MachineConfig:
    """Table 1 with a relation's ``held`` settings, its starting machine."""
    return dataclasses.replace(MACHINES[machine](), **dict(held))


@lru_cache(maxsize=None)
def start_cycles(machine: str, held: tuple, workload: str) -> int:
    """Cycles on a starting machine, shared by every relation that
    holds the same settings (most hold none: the unmodified machine)."""
    return cycles(start(machine, held), workload)


@pytest.mark.parametrize("knob", sorted(RELATIONS))
@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_a_more_generous_machine_takes_no_more_cycles(machine, knob):
    tight, generous = RELATIONS[knob]
    held = tuple(HELD.get(knob, {}).items())
    config = start(machine, held)
    assert getattr(config, knob) == tight
    config = dataclasses.replace(config, **{knob: generous})
    slower = {}
    changed = 0
    for workload in WORKLOADS:
        before = start_cycles(machine, held, workload)
        after = cycles(config, workload)
        if after > before:
            slower[workload] = (before, after)
        changed += after != before
    assert not slower, f"{knob} {tight} -> {generous} slowed down: {slower}"
    assert changed, f"{knob} {tight} -> {generous} changed no run: it never binds"
