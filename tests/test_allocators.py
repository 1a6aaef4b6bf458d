"""The step kernel's fetch and issue bookings.

The burst kernel (``StepMixin._steps``) is the only code that books a
:class:`~repro.core.engine.records.BookingGroup`'s calendars, so these
tests inspect the groups a real run leaves behind: every booking within
its capacity, the per-class issue counts summing to the total in every
cycle, the bookings of a run that never dropped a cell summing to the
instructions stepped, and sliding that never changes a result nor lets a
context book below the window.
"""

from functools import lru_cache

import repro.core.engine.records as records
from repro.core import FetchPolicy, MachineConfig
from repro.core.context import ThreadContext
from repro.core.engine import Engine
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
#: the forced-slide points: every group layout, and MTVP-8 on a
#: pointer chaser (mcf: its blocked parents hold the floor back) and on an
#: FP workload (art 1: full issue-port cycles)
SLIDE_POINTS = {
    "baseline_mcf": (MachineConfig.hpca05_baseline, ("mcf",)),
    "mtvp8_mcf": (lambda: MachineConfig.mtvp(8), ("mcf",)),
    "mtvp8_art1": (lambda: MachineConfig.mtvp(8), ("art 1",)),
    "smt2": RUNS["smt2"],
    "cmp4": RUNS["cmp4"],
    "spmt8": RUNS["spmt8"],
}


def _engine(config, workloads, length=3000, tracer=None):
    traces = [get_workload(w).trace(length=length, seed=0) for w in workloads]
    return Engine(
        traces[0], config, traces=traces if len(traces) > 1 else None,
        tracer=tracer,
    )


@lru_cache(maxsize=None)
def _ran(name):
    """The engine of one :data:`RUNS` entry after running to completion."""
    make_config, workloads = RUNS[name]
    engine = _engine(make_config(), workloads)
    return engine, engine.run()


def _all_runs():
    return [_ran(name) for name in RUNS]


def _calendars(group):
    return [group.fetch, group.total, *group.ports.values()]


def _unslid(runs):
    """The runs whose groups never dropped a cell (every base still 0)."""
    return [(e, s) for e, s in runs if not any(g.base for g in e._groups)]


class TestSlotAllocator:
    """Fetch bookings, one calendar per booking group (the class is named
    for the allocator class that held them before the group record did)."""

    def test_capacity_per_cycle(self):
        for engine, _stats in _all_runs():
            for group in engine._groups:
                assert any(group.fetch)
                assert max(group.fetch) <= engine.config.fetch_width

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
        # an instruction books one fetch cell; a slide drops only cells
        # below its floor, so a run whose bases stayed 0 keeps them all
        assert len(_unslid(_all_runs())) >= 2
        for engine, stats in _all_runs():
            booked = sum(sum(g.fetch) for g in engine._groups)
            if any(g.base for g in engine._groups):
                assert 0 < booked < stats.instructions_stepped
            else:
                assert booked == stats.instructions_stepped

    def test_forced_slides_keep_results(self, monkeypatch):
        # few runs outgrow the default chunk, so shrink it until the
        # calendars slide constantly, and demand identical results and
        # calendars that hold a small window of the run
        def run(make_config, workloads):
            engine = _engine(make_config(), workloads, length=6000)
            stats = engine.run()
            return stats.to_dict(), max(
                len(c) for g in engine._groups for c in _calendars(g)
            )

        defaults = {name: run(*point)[0] for name, point in SLIDE_POINTS.items()}
        slides = []
        slide = records.BookingGroup.slide

        def counting_slide(self, floor, need):
            slides.append(floor)
            slide(self, floor, need)

        monkeypatch.setattr(records, "CHUNK", 64)
        monkeypatch.setattr(records.BookingGroup, "slide", counting_slide)
        for name, point in SLIDE_POINTS.items():
            del slides[:]
            stats, longest = run(*point)
            assert stats == defaults[name], name
            assert len(slides) > 10, name
            # unslid, a calendar spans every cycle of the run
            assert longest < stats["cycles"] / 4, (name, longest)

    def test_no_context_books_below_the_floor(self, monkeypatch):
        # after every slide, each live, unfinished context's last fetch is
        # at or above the new base, the calendars reach one chunk past the
        # booking that ran off the end (or past the old end), and every
        # instruction stepped after the slide fetches and issues at or
        # above the base of its context's group
        monkeypatch.setattr(records, "CHUNK", 64)
        slid = Engine._slide
        marks = []
        slots = {}

        def checked_slide(self, group, need):
            end = group.base + len(group.fetch)
            base = slid(self, group, need)
            for c in self._contexts:
                if c is not None and c.alive and not c.done:
                    assert base <= c.last_fetch
            for calendar in _calendars(group):
                assert base + len(calendar) == max(need, end) + 64
            marks.append(
                (len(self._obs.tracer.events), self._groups.index(group), base)
            )
            return base

        init = ThreadContext.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            slots[self.order] = self.slot

        monkeypatch.setattr(Engine, "_slide", checked_slide)
        monkeypatch.setattr(ThreadContext, "__init__", recording_init)
        for name in ("baseline_mcf", "mtvp8_mcf", "smt2", "cmp4"):
            make_config, workloads = SLIDE_POINTS[name]
            config = make_config()
            del marks[:]
            tracer = Tracer(capacity=1 << 20)
            _engine(config, workloads, length=6000, tracer=tracer).run()
            assert tracer.dropped == 0
            assert marks and marks[-1][2] > 0, name
            bases = {}
            pending = iter(marks + [(None, None, None)])
            at, g, base = next(pending)
            for index, (_cycle, kind, tid, args) in enumerate(tracer.events):
                while at is not None and at <= index:
                    bases[g] = base
                    at, g, base = next(pending)
                if kind == EventKind.INSTRUCTION:
                    floor = bases.get(0 if config.smt_shared else slots[tid], 0)
                    assert args["fetch"] >= floor, name
                    assert args["issue"] >= floor, name


class TestPortedIssue:
    """Issue bookings: per-class ports under the global issue width."""

    def test_class_limit(self):
        for engine, _stats in _all_runs():
            config = engine.config
            caps = {"int": config.int_issue, "fp": config.fp_issue, "mem": config.mem_issue}
            for group in engine._groups:
                for q, booked in group.ports.items():
                    assert max(booked) <= caps[q]

    def test_global_limit_binds_across_classes(self):
        for engine, _stats in _all_runs():
            for group in engine._groups:
                assert max(group.total) <= engine.config.issue_width
                calendars = _calendars(group)
                assert len({len(c) for c in calendars}) == 1
                per_cycle = [sum(cells) for cells in zip(*group.ports.values())]
                assert per_cycle == list(group.total)

    def test_paper_configuration(self):
        # Table 1: 8 issues per cycle, up to 6 int, 2 FP, 4 load/store;
        # between them, mcf and art reach every one of those limits
        peaks = {"total": 0, "int": 0, "fp": 0, "mem": 0}
        for workload in ("mcf", "art 1"):
            engine = _engine(MachineConfig.hpca05_baseline(), (workload,))
            engine.run()
            (group,) = engine._groups
            for name, booked in dict(group.ports, total=group.total).items():
                peaks[name] = max(peaks[name], max(booked))
        assert peaks == {"total": 8, "int": 6, "fp": 2, "mem": 4}

    def test_issued_counter(self):
        for engine, stats in _unslid(_all_runs()):
            # as in TestSlotAllocator.test_counter
            issued = 0
            for group in engine._groups:
                total = sum(group.total)
                assert total == sum(sum(booked) for booked in group.ports.values())
                issued += total
            assert issued == stats.instructions_stepped
