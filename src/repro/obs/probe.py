"""The instrumentation hook surface threaded through the simulator.

One :class:`Probe` instance per observed engine bundles the optional
:class:`~repro.obs.tracer.Tracer` and
:class:`~repro.obs.metrics.MetricsRegistry` and exposes one method per
instrumentation site.  Components (memory hierarchy, prefetcher, branch
predictor, value predictors) hold an ``obs`` attribute that defaults to
:data:`NULL_PROBE` — the null object whose ``enabled`` is ``False`` —
so every hook site compiles down to a single attribute test when
observability is off.  That test is the entire disabled-path cost; the
untraced suite benchmark under ``bench/`` measures it.

Timestamps: most hooks receive an explicit cycle because the caller has
one in hand.  Sites buried inside predictors (which are deliberately
clock-free) use :attr:`Probe.now`/:attr:`Probe.tid`, which the engine
refreshes per step while a probe is attached.
"""

from __future__ import annotations

from repro.obs.events import EventKind
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

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

#: bumped when the layout of ``SimStats.extended`` changes shape
EXTENDED_SCHEMA = 1


class NullProbe:
    """Disabled observability: ``enabled`` is False, every hook a no-op.

    Components may either guard with ``if self.obs.enabled:`` (the fast
    path used on hot call sites) or call hooks unconditionally on cold
    paths — both are safe against the null object.
    """

    enabled = False
    now = 0
    tid = 0

    def __getattr__(self, name: str):
        # any hook resolves to a shared no-op; keeps the null object in
        # step with the Probe surface without listing every method
        if name.startswith("_"):
            raise AttributeError(name)
        return _noop


def _noop(*_args, **_kwargs) -> None:
    return None


NULL_PROBE = NullProbe()


class Probe:
    """Live observability: fans hook calls out to tracer and/or metrics."""

    enabled = True

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if tracer is None and metrics is None:
            raise ValueError("an enabled Probe needs a tracer or a metrics registry")
        self.tracer = tracer
        self.metrics = metrics
        #: current simulated cycle / context order, engine-refreshed each
        #: step; clock-free components stamp their events with these
        self.now = 0
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
        rob_len: int,
        iq_len: int,
        sb_total: int,
    ) -> None:
        """Per-instruction hook: pipeline transit event + occupancies."""
        metrics = self.metrics
        if metrics is not None:
            metrics.histogram("rob_occupancy").observe(t_fetch, rob_len)
            metrics.histogram("iq_occupancy").observe(t_fetch, iq_len)
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

    # ------------------------------------------------------------------
    # memory-stack hooks (called from hierarchy.py / prefetcher.py)
    # ------------------------------------------------------------------
    def load_level(
        self,
        now: int,
        pc: int,
        addr: int,
        level_name: str,
        complete: int,
        l1_occupancy: int,
        l2_occupancy: int,
        l3_occupancy: int,
    ) -> None:
        """A demand load satisfied below the L1 (the misses that matter)."""
        metrics = self.metrics
        if metrics is not None:
            metrics.count(f"load_{level_name}")
            metrics.histogram("l1_residency").observe(now, l1_occupancy)
            metrics.histogram("l2_residency").observe(now, l2_occupancy)
            metrics.histogram("l3_residency").observe(now, l3_occupancy)
        if self.tracer is not None:
            self.tracer.emit(
                now, _LOAD_MISS, self.tid,
                {"pc": pc, "addr": addr, "level": level_name, "complete": complete},
            )

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
    # predictor hooks (clock-free callers; stamped with Probe.now)
    # ------------------------------------------------------------------
    def branch_mispredict(self, pc: int) -> None:
        if self.metrics is not None:
            self.metrics.count("branch_mispredicts_observed")
        if self.tracer is not None:
            self.tracer.emit(self.now, _BRANCH_MISPREDICT, self.tid, {"pc": pc})

    def vp_outcome(self, correct: bool) -> None:
        if self.metrics is not None:
            self.metrics.count("vp_verified" if correct else "vp_squashed")

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
