"""Prophet-style speculative multithreading (SPMT).

A thread spawns at a control-flow boundary — a branch — and starts
executing ``spmt_skip`` instructions *ahead* of the parent, with its
live-ins pre-computed: every register reads ready at the spawn latency,
modeling Prophet's pre-computation slice delivering the live-in set with
the spawn.  The parent keeps executing the skipped region; when it
reaches the child's start position the spawn resolves *positionally*
(there is no load value to wait for, unlike MTVP's time-ordered pending
heap):

* if the control speculation held (the spawning branch was correctly
  predicted at spawn time), the parent retires into the child exactly as
  a confirmed MTVP spawn would — same store-buffer promotion, same
  context splice, same commit accounting;
* otherwise the child and everything it spawned squash through the
  ordinary kill machinery, and the parent continues into the region the
  child wrongly ran ahead of.

The squash criterion folds all control *and* live-in misspeculation into
the spawn-point branch prediction: a trace-driven simulator executes the
one real path, so "the child ran the wrong path" is modeled as losing the
work rather than executing wrong instructions.
"""

from __future__ import annotations

from repro.core.modes.base import ExecutionModel
from repro.isa import NUM_LOGICAL_REGS


class SpmtModel(ExecutionModel):
    """Spawn on branches ahead of the parent; verify by position."""

    key = "spmt"
    spawn_capable = True
    spawn_on_branches = True

    def on_branch(self, engine, ctx, inst, t_queue, t_complete, predicted_ok):
        if ctx.spawn_record_as_parent is not None:
            return
        start = ctx.pos + 1 + engine.config.spmt_skip
        if start >= len(ctx.trace):
            # too close to the end: the skipped region must leave the
            # child at least one instruction to run
            return
        if engine._free_slot() is None:
            engine.stats.spawn_denied_no_context += 1
            return
        spawn_ready = t_queue + engine.config.spawn_latency
        # the child's "value" is the control-speculation validity bit; the
        # parent's remaining work is exactly the skipped region, so its
        # commits there are architectural and the child owns the rest
        record = engine._spawn(
            ctx, inst.pc, 1, start, t_queue,
            [(1 if predicted_ok else 0, spawn_ready)],
        )
        child = record.children[0][0]
        # pre-computed live-ins: the spawn slice delivers the whole live-in
        # set with the spawn, so the child never waits on parent in-flight
        # values (Prophet's latency-tolerance mechanism)
        child.reg_ready = [spawn_ready] * NUM_LOGICAL_REGS
        engine.stats.spmt_spawns += 1
        # NOT pushed onto the time-ordered pending heap: the step kernel
        # resolves this record when the parent's position reaches `start`
        record.resolve_pos = start
        obs = engine._obs
        if obs is not None:
            obs.predict(t_queue, ctx.order, inst.pc, "spmt", start)
            obs.spawn(t_queue, ctx.order, child.order, inst.pc, start)
            obs.context_count(t_queue, len(engine._alive_contexts()))

    # ------------------------------------------------------------------
    # verify / squash
    # ------------------------------------------------------------------
    def child_wins(self, record, child, value):
        # value carries the control-speculation validity bit set at spawn
        return bool(value)

    def on_mispredict(self, engine, record, resolve_time):
        engine.stats.spmt_squashes += 1
