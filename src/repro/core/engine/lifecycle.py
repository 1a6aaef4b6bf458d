"""Spawn / join / kill lifecycle of speculative contexts.

This is where architectural and timing state meet: spawning flash-copies
the architectural register map into a child, confirmation promotes
speculative store-buffer contents (architectural) and splices the context
chain, and a kill discards both the child's buffered stores and its pending
timing bookkeeping.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.core.config import FetchPolicy
from repro.core.context import ThreadContext
from repro.core.engine.records import _NO_MEASURES, SpawnRecord
from repro.isa import Instruction


class LifecycleMixin:
    """Creates, confirms and squashes speculative contexts."""

    def _spawn(
        self,
        parent: ThreadContext,
        pc: int,
        actual: int,
        pos: int,
        t_queue: int,
        values: list[tuple[int, int]],
        dst: int | None = None,
    ) -> SpawnRecord:
        """Fork one speculative child per ``(value, ready time)`` while
        hardware slots last; the only code that builds a child context.

        Each child starts at trace position ``pos`` with a flash copy of
        the parent's register map, in which ``dst``, when given, becomes
        ready at the child's ready time.  The parent's commits before
        ``pos`` stay architectural.
        """
        record = SpawnRecord(parent, actual, pc, t_queue, self._global_fetched)
        for value, ready_time in values:
            slot = self._free_slot()
            if slot is None:
                break
            child = ThreadContext(
                slot=slot,
                order=self._alloc_order(),
                pos=pos,
                start_time=ready_time,
                parent=parent,
                speculative=True,
            )
            if dst is not None:
                child.reg_ready[dst] = ready_time
            child.spawn_record_as_child = record
            if pos >= len(parent.trace):
                # spawned on the final instruction: nothing left to run,
                # the child only waits for its confirmation
                child.done = True
            self._contexts[slot] = child
            record.children.append((child, value))
            self.stats.spawns += 1
        parent.arch_limit = pos - 1
        parent.spawn_record_as_parent = record
        return record

    def _spawn_load(
        self,
        parent: ThreadContext,
        inst: Instruction,
        values: list[tuple[int, int]],
        t_queue: int,
        t_complete: int,
    ) -> SpawnRecord:
        """Spawn past a load; the record resolves when the load returns.

        Under the single-fetch-path policy (§3.2) the parent stops
        fetching until then.
        """
        record = self._spawn(
            parent, inst.pc, inst.value or 0, parent.pos + 1, t_queue, values,
            inst.dst,
        )
        if self.config.fetch_policy is FetchPolicy.SINGLE_FETCH_PATH:
            parent.blocked = True
        heappush(self._pending, (t_complete, self._heap_seq, record))
        self._heap_seq += 1
        obs = self._obs
        if obs is not None:
            for child, value in record.children:
                obs.spawn(t_queue, parent.order, child.order, inst.pc, value)
            obs.context_count(t_queue, len(self._alive_contexts()))
        return record

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def _resolve_next(self) -> None:
        """Resolve the earliest record on the time-ordered pending heap."""
        resolve_time, _seq, record = heappop(self._pending)
        self._resolve_record(record, resolve_time)

    def _resolve_record(self, record: SpawnRecord, resolve_time: int) -> None:
        """Confirm or squash one outstanding spawn at ``resolve_time``.

        Winner selection and statistics attribution are execution-model
        policy (:mod:`repro.core.modes`); the context-graph surgery —
        killing losers, retiring the parent, promoting the winner — is
        shared mechanism and lives here.  Value-predicted spawns arrive
        through :meth:`_resolve_next` when their load returns; SPMT spawns
        arrive straight from the step kernel when the parent reaches the
        child's start position.
        """
        if record.void or not record.parent.alive:
            return
        parent = record.parent
        stats = self.stats
        model = self.model
        obs = self._obs

        winner: ThreadContext | None = None
        for child, value in record.children:
            if child.alive and model.child_wins(record, child, value):
                winner = child
                break
        losers = [
            child
            for child, _v in record.children
            if child.alive and child is not winner
        ]
        for loser in losers:
            self._kill_subtree(loser, resolve_time)

        if winner is None:
            # misprediction: parent resumes past the load; the speculative
            # progress made was useless, so ILP-pred sees zero
            model.on_mispredict(self, record, resolve_time)
            parent.blocked = False
            parent.spawn_record_as_parent = None
            if resolve_time + 1 > parent.resume_at:
                parent.resume_at = resolve_time + 1
            # any progress the parent made past the load (no-stall policy)
            # is real execution and becomes architectural
            parent.within_commits += parent.beyond_commits
            parent.beyond_commits = 0
            parent.arch_limit = None
            if obs is not None:
                obs.squash(resolve_time, parent.order, record.pc)
                obs.context_count(resolve_time, len(self._alive_contexts()))
            return

        # confirmation: the parent retires, the winner carries on
        stats.confirms += 1
        model.on_confirm(self, record, winner, resolve_time)
        self._retire_parent(parent, winner, record, resolve_time)
        if obs is not None:
            obs.join(
                resolve_time, winner.order, parent.order, record.pc,
                max(0, self._global_fetched - record.start_global),
                max(1, resolve_time - record.start_time),
            )
            obs.context_count(resolve_time, len(self._alive_contexts()))

    def _retire_parent(
        self,
        parent: ThreadContext,
        winner: ThreadContext,
        record: SpawnRecord,
        resolve_time: int,
    ) -> None:
        """Release the parent after a confirmed prediction; its work stands.

        The parent's architectural contribution (commits up to and
        including the predicted load) folds *into the winner*: it only
        becomes finally useful if the whole chain below the winner
        survives.  If an older outstanding prediction later turns out
        wrong, the winner — now carrying these counts — is killed and the
        work is correctly accounted as wasted.
        """
        # everything up to and including the load travels with the winner
        winner.within_commits += parent.within_commits
        for t in (parent.last_within_commit, record.load_commit_time, resolve_time):
            if t > winner.last_within_commit:
                winner.last_within_commit = t
        # progress past the load (no-stall policy) duplicated work the
        # winner already performed — wasted either way
        self.stats.wasted_instructions += parent.beyond_commits
        self._finalize_measures(parent, _NO_MEASURES)
        parent.alive = False
        self._contexts[parent.slot] = None
        # splice the chain: the winner takes the parent's place in the
        # record that spawned the parent
        outer = parent.spawn_record_as_child
        if outer is not None and not outer.void:
            outer.children = [
                (winner if c is parent else c, v) for c, v in outer.children
            ]
            winner.spawn_record_as_child = outer
        else:
            winner.spawn_record_as_child = None
        # a dead context links to no record, so no reference cycle keeps
        # it (and its ROB and register map) waiting for the cycle collector
        parent.spawn_record_as_parent = parent.spawn_record_as_child = None
        # speculative status propagates down the chain
        if not parent.speculative:
            self._make_architectural(winner, resolve_time)

    def _make_architectural(self, ctx: ThreadContext, now: int) -> None:
        """Promote a confirmed context to non-speculative status."""
        ctx.speculative = False
        # release this thread's (and dead ancestors') buffered stores
        for entry in self.store_buffer.drain_upto(ctx.order):
            self.hierarchy.store(entry.addr, max(entry.time, now))
        self._wake_sb_waiters(now)
        if ctx.sb_paused:
            ctx.sb_paused = False
            if now > ctx.resume_at:
                ctx.resume_at = now

    def _kill_subtree(self, ctx: ThreadContext, now: int) -> None:
        """Squash a mispredicted context and every thread it spawned."""
        # the (at most one) pending record where ctx is the parent holds
        # its children; kill them, then void the record
        record = ctx.spawn_record_as_parent
        if record is not None:
            for child, _value in record.children:
                if child.alive:
                    self._kill_subtree(child, now)
            record.void = True
            ctx.spawn_record_as_parent = None
        self.stats.kills += 1
        self.stats.wasted_instructions += ctx.within_commits + ctx.beyond_commits
        if self._obs is not None:
            self._obs.kill(now, ctx.order, ctx.within_commits + ctx.beyond_commits)
        self.store_buffer.squash_thread(ctx.order)
        # a killed context's pending measures are dropped unrecorded
        ctx.pending_measures.clear()
        ctx.alive = False
        ctx.spawn_record_as_child = None
        if self._contexts[ctx.slot] is ctx:
            self._contexts[ctx.slot] = None
        self._wake_sb_waiters(now)

    def _sb_pause(self, ctx: ThreadContext, t_fetch: int, pc: int) -> None:
        """Stall speculative ``ctx`` at a store the full buffer cannot hold
        (§3.3) until a resolution frees space (:meth:`_wake_sb_waiters`)."""
        ctx.sb_paused = True
        self.stats.store_buffer_stalls += 1
        self._sb_waiters.append(ctx)
        if self._obs is not None:
            self._obs.sb_stall(max(t_fetch, ctx.resume_at), ctx.order, pc)

    def _wake_sb_waiters(self, now: int) -> None:
        if not self._sb_waiters:
            return
        waiters, self._sb_waiters = self._sb_waiters, []
        for ctx in waiters:
            if not ctx.alive:
                continue
            ctx.sb_paused = False
            if now > ctx.resume_at:
                ctx.resume_at = now
