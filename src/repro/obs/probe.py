"""The instrumentation hook surface threaded through the simulator.

One :class:`Probe` instance per observed engine bundles the optional
:class:`~repro.obs.tracer.Tracer` and
:class:`~repro.obs.metrics.MetricsRegistry` and exposes one method per
instrumentation site.  The engine holds the probe in ``Engine._obs``,
which is ``None`` when observability is off, so every hook site compiles
down to a single ``is not None`` test.  That test is the entire
disabled-path cost; the untraced suite benchmark under ``bench/``
measures it.

The engine calls every hook but the prefetcher's, with the cycle and the
context in hand: the step kernel reports each load served below the L1
right after the hierarchy returns it, and each mispredicted branch right
after the branch predictor.  The stride prefetcher is the one component
that holds the probe, because its stream-buffer events happen inside a
load; the engine hands it the probe when the timed run starts, so the
warm start and the fast-forward never report.  The probe keeps no clock:
the prefetcher passes its own cycle, and :attr:`Probe.tid`, which the
kernel sets at each burst, names the context whose load it serves.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import TYPE_CHECKING

from repro.obs.events import EventKind
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

if TYPE_CHECKING:
    from repro.memory import MemLevel, MemoryHierarchy

_INSTRUCTION = int(EventKind.INSTRUCTION)
_LOAD_MISS = int(EventKind.LOAD_MISS)
_PREDICT = int(EventKind.PREDICT)
_PRED_VERIFIED = int(EventKind.PRED_VERIFIED)
_PRED_SQUASH = int(EventKind.PRED_SQUASH)
_SPAWN = int(EventKind.SPAWN)
_JOIN = int(EventKind.JOIN)
_KILL = int(EventKind.KILL)
_SB_STALL = int(EventKind.SB_STALL)
_PREFETCH_ISSUE = int(EventKind.PREFETCH_ISSUE)
_PREFETCH_HIT = int(EventKind.PREFETCH_HIT)
_BRANCH_MISPREDICT = int(EventKind.BRANCH_MISPREDICT)
#: (queue key, histogram name) of the IQ, FQ and MQ
_QUEUES = (("int", "iq_occupancy"), ("fp", "fq_occupancy"), ("mem", "mq_occupancy"))

#: bumped when the layout of ``SimStats.extended`` changes shape
EXTENDED_SCHEMA = 1


class Probe:
    """Live observability: fans hook calls out to tracer and/or metrics."""

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if tracer is None and metrics is None:
            raise ValueError("an enabled Probe needs a tracer or a metrics registry")
        self.tracer = tracer
        self.metrics = metrics
        #: order of the context the step kernel is running, set at each
        #: burst; the prefetcher's events carry it
        self.tid = 0

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------
    def register_thread(
        self, tid: int, name: str, parent: int | None = None, cycle: int = 0
    ) -> None:
        if self.tracer is not None:
            self.tracer.register_thread(tid, name, parent, cycle)

    def step(
        self,
        tid: int,
        pc: int,
        op_name: str,
        t_fetch: int,
        t_issue: int,
        t_commit: int,
        rob: deque[int],
        rename: list[int],
        queues: dict[str, list[int]],
        sb_total: int,
    ) -> None:
        """Per-instruction hook: pipeline transit event + occupancies.

        ``rob`` is the context's ascending deque of commit times, ``rename``
        its group's ascending rename pool and ``queues`` its group's
        instruction queues (``int``, ``fp`` and ``mem``: the IQ, FQ and
        MQ), ascending lists of issue times.  The instruction is already
        in its pools.  An entry is in flight at fetch when its time is
        after ``t_fetch``; the pools also keep entries that have left
        (they free one only when a fetch needs the room), so each
        occupancy, one bisect of its ascending pool, counts only the
        in-flight ones.
        """
        metrics = self.metrics
        if metrics is not None:
            metrics.histogram("rob_occupancy").observe(
                t_fetch, len(rob) - bisect_right(rob, t_fetch)
            )
            metrics.histogram("rename_occupancy").observe(
                t_fetch, len(rename) - bisect_right(rename, t_fetch)
            )
            for key, name in _QUEUES:
                queue = queues[key]
                metrics.histogram(name).observe(
                    t_fetch, len(queue) - bisect_right(queue, t_fetch)
                )
            metrics.histogram("store_buffer_occupancy").observe(t_fetch, sb_total)
        if self.tracer is not None:
            self.tracer.emit(
                t_fetch,
                _INSTRUCTION,
                tid,
                {
                    "pc": pc,
                    "op": op_name,
                    "fetch": t_fetch,
                    "issue": t_issue,
                    "commit": t_commit,
                },
            )

    def predict(self, cycle: int, tid: int, pc: int, kind: str, value: int) -> None:
        if self.metrics is not None:
            self.metrics.count(f"predict_{kind}")
        if self.tracer is not None:
            self.tracer.emit(
                cycle, _PREDICT, tid, {"pc": pc, "kind": kind, "value": value}
            )

    def stvp_outcome(self, cycle: int, tid: int, pc: int, correct: bool) -> None:
        if self.tracer is not None:
            kind = _PRED_VERIFIED if correct else _PRED_SQUASH
            self.tracer.emit(cycle, kind, tid, {"pc": pc, "kind": "stvp"})

    def spawn(
        self, cycle: int, parent_tid: int, child_tid: int, pc: int, value: int
    ) -> None:
        if self.tracer is not None:
            self.tracer.register_thread(
                child_tid, f"ctx{child_tid}", parent_tid, cycle
            )
            self.tracer.emit(
                cycle, _SPAWN, parent_tid,
                {"child": child_tid, "pc": pc, "value": value},
            )

    def join(
        self,
        cycle: int,
        winner_tid: int,
        parent_tid: int,
        pc: int,
        distance_instructions: int,
        distance_cycles: int,
    ) -> None:
        """A prediction confirmed: the winner absorbed its parent."""
        metrics = self.metrics
        if metrics is not None:
            metrics.histogram("speculation_distance").add(distance_instructions)
            metrics.histogram("speculation_cycles").add(distance_cycles)
        if self.tracer is not None:
            self.tracer.emit(
                cycle, _PRED_VERIFIED, parent_tid, {"pc": pc, "kind": "mtvp"}
            )
            self.tracer.emit(
                cycle, _JOIN, winner_tid,
                {"parent": parent_tid, "instructions": distance_instructions},
            )

    def squash(self, cycle: int, tid: int, pc: int) -> None:
        """A threaded prediction resolved wrong (children die)."""
        if self.tracer is not None:
            self.tracer.emit(cycle, _PRED_SQUASH, tid, {"pc": pc, "kind": "mtvp"})

    def kill(self, cycle: int, tid: int, wasted: int) -> None:
        if self.metrics is not None:
            self.metrics.count("kills_observed")
        if self.tracer is not None:
            self.tracer.emit(cycle, _KILL, tid, {"wasted": wasted})

    def sb_stall(self, cycle: int, tid: int, pc: int) -> None:
        if self.metrics is not None:
            self.metrics.count("sb_stall_events")
        if self.tracer is not None:
            self.tracer.emit(cycle, _SB_STALL, tid, {"pc": pc})

    def context_count(self, cycle: int, alive: int) -> None:
        if self.metrics is not None:
            self.metrics.histogram("context_count").observe(cycle, alive)

    def vp_outcome(self, correct: bool) -> None:
        if self.metrics is not None:
            self.metrics.count("vp_verified" if correct else "vp_squashed")

    # ------------------------------------------------------------------
    # step-kernel hooks for what the hierarchy and branch predictor decide
    # ------------------------------------------------------------------
    def load_level(
        self,
        cycle: int,
        tid: int,
        pc: int,
        addr: int,
        level: MemLevel,
        complete: int,
        hierarchy: MemoryHierarchy,
    ) -> None:
        """A demand load served below the L1 (the misses that matter).

        ``level`` is the :class:`~repro.memory.MemLevel` that served it
        and ``hierarchy`` the :class:`~repro.memory.MemoryHierarchy`, just
        after the access.  Cache residency is sampled here, at miss times,
        and only here: a store that fills a line between two misses
        moves an occupancy no histogram sees until the next miss.
        """
        level_name = level.name.lower()
        metrics = self.metrics
        if metrics is not None:
            metrics.count(f"load_{level_name}")
            metrics.histogram("l1_residency").observe(cycle, hierarchy.l1.occupancy)
            metrics.histogram("l2_residency").observe(cycle, hierarchy.l2.occupancy)
            metrics.histogram("l3_residency").observe(cycle, hierarchy.l3.occupancy)
        if self.tracer is not None:
            self.tracer.emit(
                cycle, _LOAD_MISS, tid,
                {"pc": pc, "addr": addr, "level": level_name, "complete": complete},
            )

    def branch_mispredict(self, cycle: int, tid: int, pc: int) -> None:
        if self.metrics is not None:
            self.metrics.count("branch_mispredicts_observed")
        if self.tracer is not None:
            self.tracer.emit(cycle, _BRANCH_MISPREDICT, tid, {"pc": pc})

    # ------------------------------------------------------------------
    # prefetcher hooks (timed run only; see the module docstring)
    # ------------------------------------------------------------------
    def prefetch_issue(self, now: int, tag: int, lines: int) -> None:
        if self.metrics is not None:
            self.metrics.count("prefetch_lines_issued", lines)
        if self.tracer is not None:
            self.tracer.emit(
                now, _PREFETCH_ISSUE, self.tid, {"tag": tag, "lines": lines}
            )

    def prefetch_hit(self, now: int, line: int) -> None:
        if self.metrics is not None:
            self.metrics.count("prefetch_hits_observed")
        if self.tracer is not None:
            self.tracer.emit(now, _PREFETCH_HIT, self.tid, {"line": line})

    # ------------------------------------------------------------------
    def finalize(self, finish_time: int) -> dict:
        """Close open intervals; return the ``SimStats.extended`` payload."""
        out: dict = {"schema": EXTENDED_SCHEMA}
        if self.metrics is not None:
            self.metrics.close(finish_time)
            out["metrics"] = self.metrics.to_dict()
        if self.tracer is not None:
            out["trace"] = self.tracer.summary()
        return out
