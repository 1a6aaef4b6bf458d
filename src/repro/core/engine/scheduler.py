"""Context scheduling: microarchitectural *timing* control flow.

The schedulers hold only timing state (local clocks, the pending spawn
heap); all architectural effects happen inside the step kernel and the
spawn lifecycle.  All three drive the one burst kernel
(:meth:`~repro.core.engine.step.StepMixin._steps`).  The optimized and
reference schedulers must make bit-identical decisions — tests compare
the two.
"""

from __future__ import annotations

#: step budget meaning "run to completion" — a bound far beyond any trace,
#: so the bounded-run check stays one integer compare on the hot path
NO_LIMIT = 1 << 62


class SchedulerMixin:
    """Chooses which context steps next; drives the run to completion."""

    def _run_scheduler(self, stop_at: int = NO_LIMIT) -> None:
        """Step contexts in approximate time order until the trace drains.

        Scheduling policy (identical to :meth:`_run_scheduler_reference`):
        among runnable contexts, step the one with the smallest
        ``next_time_hint``; ties break by the execution model's
        ``context_priority`` when it defines one (the SMT co-schedule's
        ICOUNT fairness), then toward the lowest slot.  A pending spawn
        record that resolves at or before the winner's hint goes first.

        ``stop_at`` bounds the processor-wide fetched count: the loop
        suspends (between steps, never mid-step) once it is reached, which
        is what makes ``run(max_steps=...)`` pausable and resumable.

        Two things make this loop fast without changing any decision:

        * the candidate scan is inlined over the context slots — no list
          build, no ``min(key=lambda)``, no property calls — and with at
          most ``num_contexts`` (8) entries a first-minimum scan is already
          the "small ordered structure" the ≥2-runnable case needs;
        * once a context wins the scan, the burst kernel keeps stepping it
          without rescanning for as long as a rescan would provably pick
          it again.  The other contexts' hints, priorities and runnable
          flags can only change inside ``_resolve_next`` or when a spawn
          allocates a new context, so between those events the winner
          keeps winning while its hint stays strictly below the
          runner-up's; a tie goes back to this scan, which applies the
          full (hint, priority, slot) order.  This covers both the
          single-context modes and the dominant MTVP state (parent blocked
          on its spawn, one child running).
        """
        prio = self.model.context_priority
        contexts = self._contexts
        pending = self._pending
        while self._global_fetched < stop_at:
            best = None
            best_hint = 0
            for c in contexts:
                if (
                    c is None
                    or not c.alive
                    or c.blocked
                    or c.sb_paused
                    or c.done
                ):
                    continue
                hint = c.last_fetch
                if c.resume_at > hint:
                    hint = c.resume_at
                if (
                    best is None
                    or hint < best_hint
                    or (
                        hint == best_hint
                        and prio is not None
                        and prio(c) < prio(best)
                    )
                ):
                    best = c
                    best_hint = hint
            if best is None:
                if pending:
                    self._resolve_next()
                    continue
                return
            if pending and pending[0][0] <= best_hint:
                self._resolve_next()
                continue
            # runner-up hint: the winner stays the scheduling choice while
            # its own hint stays below this bound
            second_hint = -1
            for c in contexts:
                if (
                    c is None
                    or c is best
                    or not c.alive
                    or c.blocked
                    or c.sb_paused
                    or c.done
                ):
                    continue
                hint = c.last_fetch
                if c.resume_at > hint:
                    hint = c.resume_at
                if second_hint < 0 or hint < second_hint:
                    second_hint = hint
            self._steps(best, second_hint, stop_at)

    def _run_scheduler_reference(self, stop_at: int = NO_LIMIT) -> None:
        """The original rebuild-everything scheduler, kept for A/B tests.

        Bit-for-bit the pre-optimization loop, stepping one instruction
        per scan; when the execution model defines ``context_priority`` it
        breaks hint ties by that priority before slot order, as
        :meth:`_run_scheduler` does.  Also tracks the peak number
        of simultaneously runnable contexts so tests can prove a trace
        exercised true multi-context scheduling.
        """
        prio = self.model.context_priority

        def key(c):
            hint = c.next_time_hint
            return hint if prio is None else (hint, prio(c), c.slot)

        while self._global_fetched < stop_at:
            runnable = [
                c for c in self._contexts if c is not None and c.alive and c.runnable
            ]
            if len(runnable) > self.max_runnable_observed:
                self.max_runnable_observed = len(runnable)
            if runnable:
                ctx = min(runnable, key=key)
                if self._pending and self._pending[0][0] <= ctx.next_time_hint:
                    self._resolve_next()
                    continue
                self._steps(ctx, -1, self._global_fetched + 1)
                continue
            if self._pending:
                self._resolve_next()
                continue
            return
