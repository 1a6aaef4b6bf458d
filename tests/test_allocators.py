"""The step kernel's fetch and issue bookings.

The burst kernel (``StepMixin._steps``) is the only code that books a
:class:`~repro.core.engine.records.BookingGroup`'s per-cycle dicts, so
these tests inspect the groups a real run leaves behind: every booking
within its capacity, the per-class issue counts summing to the total in
every cycle, the bookings of an unpruned run summing to the instructions
stepped, and pruning that never changes a result.
"""

from functools import lru_cache

import repro.core.engine.records as records
from repro import simulate
from repro.core import FetchPolicy, MachineConfig
from repro.core.engine import Engine
from repro.core.engine.records import PRUNE_AT, BookingGroup
from repro.obs import Tracer
from repro.obs.events import EventKind
from repro.workloads import get_workload

#: one run per group layout: the single-context baseline, no-stall
#: MTVP and SpMT (many contexts over one shared group), a two-program SMT
#: co-schedule, and CMP's private per-core groups
RUNS = {
    "baseline": (MachineConfig.hpca05_baseline, ("mcf",)),
    "mtvp8_no_stall": (
        lambda: MachineConfig.mtvp(8, fetch_policy=FetchPolicy.NO_STALL),
        ("gcc 1",),
    ),
    "spmt8": (lambda: MachineConfig.spmt(8), ("gcc 1",)),
    "smt2": (lambda: MachineConfig.smt(2), ("mcf", "art 1")),
    "cmp4": (lambda: MachineConfig.cmp(4), ("gcc 1",)),
}


def _engine(config, workloads, length=3000):
    traces = [get_workload(w).trace(length=length, seed=0) for w in workloads]
    return Engine(
        traces[0], config, traces=traces if len(traces) > 1 else None
    )


@lru_cache(maxsize=None)
def _ran(name):
    """The engine of one :data:`RUNS` entry after running to completion."""
    make_config, workloads = RUNS[name]
    engine = _engine(make_config(), workloads)
    return engine, engine.run()


def _all_runs():
    return [_ran(name) for name in RUNS]


def _booking_dicts(group):
    return [group.fetch, group.total, *group.ports.values()]


class TestSlotAllocator:
    """Fetch bookings, one dict per booking group (the class is named for
    the allocator class that held them before the group record did)."""

    def test_capacity_per_cycle(self):
        for engine, _stats in _all_runs():
            for group in engine._groups:
                assert group.fetch
                assert max(group.fetch.values()) <= engine.config.fetch_width

    def test_past_cycles_keep_capacity(self):
        # co-scheduled programs step in approximate time order, so a
        # context that lags books cycles behind the newest booking; the
        # kernel must give it those cycles, not push it past the newest
        traces = [get_workload(w).trace(length=3000, seed=0) for w in RUNS["smt2"][1]]
        tracer = Tracer()
        Engine(traces[0], MachineConfig.smt(2), traces=traces, tracer=tracer).run()
        newest = -1
        behind = 0
        for _cycle, kind, _tid, args in tracer.events:
            if kind == EventKind.INSTRUCTION:
                behind += args["fetch"] < newest
                newest = max(newest, args["fetch"])
        assert behind > 0

    def test_counter(self):
        for engine, stats in _all_runs():
            # a dict is pruned only once it holds over PRUNE_AT cycles and
            # an instruction books one cycle per dict, so these runs never
            # prune: every fetch booking is still there
            assert stats.instructions_stepped <= PRUNE_AT
            booked = sum(sum(g.fetch.values()) for g in engine._groups)
            assert booked == stats.instructions_stepped

    def test_pruning_keeps_recent_state(self, monkeypatch):
        # no tier-1 run books PRUNE_AT cycles, so shrink the bound until
        # the kernel prunes constantly, and demand identical results
        points = [
            ("mcf", MachineConfig.hpca05_baseline),
            ("mcf", lambda: MachineConfig.mtvp(8)),
            ("art 1", lambda: MachineConfig.mtvp(8)),
        ]

        def run(workload, config):
            return simulate(workload, config(), length=6000).to_dict()

        defaults = [run(*point) for point in points]
        prunes = []
        prune = BookingGroup.prune

        def counting_prune(self, now):
            # count the checks that find a dict to prune
            if any(len(b) > records.PRUNE_AT for b in _booking_dicts(self)):
                prunes.append(now)
            prune(self, now)

        monkeypatch.setattr(records, "PRUNE_AT", 512)
        monkeypatch.setattr(BookingGroup, "prune", counting_prune)
        for point, default in zip(points, defaults):
            del prunes[:]
            assert run(*point) == default, point
            assert prunes, point

    def test_pruning_bounds_every_booking_dict(self, monkeypatch):
        # the kernel checks a group's booking dicts every PRUNE_AT
        # instructions, and an instruction adds at most one cycle to each
        # dict, so none holds more than 2 x PRUNE_AT cycles, however short
        # the bursts are (MTVP-8 switches contexts every few instructions).
        # Without pruning, this run's dicts outgrow that bound.
        bound = 2048
        trace = get_workload("mcf").trace(length=20000, seed=0)

        def run():
            engine = Engine(trace, MachineConfig.mtvp(8))
            stats = engine.run()
            sizes = [
                len(booked)
                for group in engine._groups
                for booked in _booking_dicts(group)
            ]
            return stats.to_dict(), sizes

        unpruned_stats, unpruned = run()
        assert max(unpruned) > 2 * bound
        monkeypatch.setattr(records, "PRUNE_AT", bound)
        stats, sizes = run()
        assert stats == unpruned_stats
        assert max(sizes) <= 2 * bound, sizes


class TestPortedIssue:
    """Issue bookings: per-class ports under the global issue width."""

    def test_class_limit(self):
        for engine, _stats in _all_runs():
            config = engine.config
            caps = {"int": config.int_issue, "fp": config.fp_issue, "mem": config.mem_issue}
            for group in engine._groups:
                for q, booked in group.ports.items():
                    assert max(booked.values(), default=0) <= caps[q]

    def test_global_limit_binds_across_classes(self):
        for engine, _stats in _all_runs():
            for group in engine._groups:
                assert max(group.total.values()) <= engine.config.issue_width
                per_cycle: dict[int, int] = {}
                for booked in group.ports.values():
                    for cycle, n in booked.items():
                        per_cycle[cycle] = per_cycle.get(cycle, 0) + n
                assert per_cycle == group.total

    def test_paper_configuration(self):
        # Table 1: 8 issues per cycle, up to 6 int, 2 FP, 4 load/store;
        # between them, mcf and art reach every one of those limits
        peaks = {"total": 0, "int": 0, "fp": 0, "mem": 0}
        for workload in ("mcf", "art 1"):
            engine = _engine(MachineConfig.hpca05_baseline(), (workload,))
            engine.run()
            (group,) = engine._groups
            for name, booked in dict(group.ports, total=group.total).items():
                peak = max(booked.values(), default=0)
                peaks[name] = max(peaks[name], peak)
        assert peaks == {"total": 8, "int": 6, "fp": 2, "mem": 4}

    def test_issued_counter(self):
        for engine, stats in _all_runs():
            # unpruned, as in TestSlotAllocator.test_counter
            assert stats.instructions_stepped <= PRUNE_AT
            issued = 0
            for group in engine._groups:
                total = sum(group.total.values())
                assert total == sum(
                    sum(booked.values()) for booked in group.ports.values()
                )
                issued += total
            assert issued == stats.instructions_stepped
