"""Deferred ILP-pred measure retirement.

Measures are pure timing bookkeeping: each records the shadow of one load
episode (no prediction / STVP) so the selector can learn forward-progress
rates.  They never touch architectural state — a killed context drops its
pending measures wholesale.
"""

from __future__ import annotations

from collections import deque

from repro.core.context import ThreadContext
from repro.core.engine.records import _KIND, _NO_MEASURES
from repro.select import PredictionKind


class MeasureMixin:
    """Buffers per-context episode measurements until their window closes."""

    def _defer_measure(
        self,
        ctx: ThreadContext,
        pc: int,
        kind: PredictionKind,
        start_time: int,
        end_time: int,
    ) -> None:
        if len(ctx.pending_measures) >= 32:
            self._finalize_oldest(ctx)
        ctx.pending_measures.append(
            (pc, int(kind), start_time, end_time, self._global_fetched)
        )
        if end_time < ctx.measures_min_end:
            ctx.measures_min_end = end_time

    def _finalize_oldest(self, ctx: ThreadContext) -> None:
        pc, kind, start_t, end_t, start_count = ctx.pending_measures.popleft()
        self.selector.record(
            pc,
            _KIND[kind],
            max(0, self._global_fetched - start_count),
            max(1, end_t - start_t),
        )
        pm = ctx.pending_measures
        ctx.measures_min_end = min(e[3] for e in pm) if pm else _NO_MEASURES

    def _finalize_measures(self, ctx: ThreadContext, now: int) -> None:
        """Record every deferred episode whose window has closed.

        ``ctx.measures_min_end`` caches the earliest close time so the
        per-instruction caller can skip this scan entirely (the common
        case); it is refreshed whenever the pending set changes.  With
        ``now = _NO_MEASURES`` every episode is recorded: a retiring
        parent and the run's survivors close their books this way, while
        a killed context drops its pending measures unrecorded.
        """
        if not ctx.pending_measures:
            return
        selector_record = self.selector.record
        global_fetched = self._global_fetched
        remaining: deque[tuple[int, int, int, int, int]] = deque()
        for entry in ctx.pending_measures:
            pc, kind, start_t, end_t, start_count = entry
            if end_t <= now:
                selector_record(
                    pc,
                    _KIND[kind],
                    max(0, global_fetched - start_count),
                    max(1, end_t - start_t),
                )
            else:
                remaining.append(entry)
        ctx.pending_measures = remaining
        ctx.measures_min_end = (
            min(e[3] for e in remaining) if remaining else _NO_MEASURES
        )
