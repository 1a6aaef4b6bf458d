"""The per-instruction step kernel.

One call advances one context by one instruction: fetch/queue/issue/
complete/commit timestamps under window, rename, queue and issue-port
constraints.  Architectural state it touches: the register ready map,
cache/store-buffer contents, predictor tables, branch history and the trace
position.  Everything else it manipulates — heaps of in-flight entries,
port reservations, deferred measures — is timing state.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.branch import update_history
from repro.core.context import ThreadContext
from repro.core.engine.records import (
    _BRANCH,
    _EXEC_LAT,
    _KIND_NONE,
    _LOAD,
    _ML_L1,
    _ML_L2,
    _OP_NAMES,
    _QUEUE_OF,
    _STORE,
    SpawnRecord,
)


class StepMixin:
    """Fetch/queue/issue/complete/commit one instruction per call."""

    def _step(self, ctx: ThreadContext) -> None:
        """Fetch/queue/issue/complete/commit one instruction of ``ctx``.

        This is the simulator's innermost function — it runs once per
        simulated instruction — so it trades a little repetition for
        speed: the structural-constraint helpers are inlined, per-op
        decisions come from flat tuples indexed by the op class, and
        hot config fields are pre-bound engine attributes (see DESIGN.md
        §5c).  Every decision is bit-identical to the straightforward
        form this replaced.
        """
        inst = ctx.trace[ctx.pos]
        op = inst.op

        # --- speculative store gating: never start a store the buffer
        # cannot hold; the thread stalls until a resolution frees space
        if (
            op is _STORE
            and ctx.speculative
            and self.store_buffer.is_full
        ):
            ctx.sb_paused = True
            self.stats.store_buffer_stalls += 1
            self._sb_waiters.append(ctx)
            if self._obs is not None:
                self._obs.sb_stall(
                    max(ctx.last_fetch, ctx.resume_at), ctx.order, inst.pc
                )
            return

        # --- fetch: gated on stream position, redirects, a ROB slot, a
        # rename register and an IQ slot, then fetch bandwidth.  The
        # constraint heaps release their earliest occupant when full —
        # popping models the slot freeing and keeps each heap bounded.
        t = ctx.last_fetch
        if ctx.resume_at > t:
            t = ctx.resume_at
        rob = ctx.rob
        rob_size = self._rob_size
        if len(rob) >= rob_size and rob[0] > t:
            t = rob[0]
        group = 0 if self._smt_shared else ctx.slot
        dst = inst.dst
        writes_reg = dst is not None
        rename_heap = self._rename_groups[group]
        if writes_reg and len(rename_heap) >= self._rename_regs:
            rename_free = heappop(rename_heap)
            if rename_free > t:
                t = rename_free
        queue = _QUEUE_OF[op]
        iq_heap = self._iq_groups[group][queue]
        if len(iq_heap) >= self._iq_size:
            iq_free = heappop(iq_heap)
            if iq_free > t:
                t = iq_free
        t_fetch = self._fetch_groups[group].acquire(t)
        ctx.last_fetch = t_fetch
        obs = self._obs
        if obs is not None:
            # refresh the clock-free components' stamp before any of them
            # can fire below (hierarchy, branch predictor, value predictor)
            obs.now = t_fetch
            obs.tid = ctx.order

        # --- rename/queue, operand ready
        t_ready = t_queue = t_fetch + self._front_latency
        reg_ready = ctx.reg_ready
        for src in inst.srcs:
            if src:
                rt = reg_ready[src]
                if rt > t_ready:
                    t_ready = rt

        # --- issue (issue-port class == queue class, Table 1)
        t_issue = self._issue_groups[group].acquire(queue, t_ready)
        heappush(iq_heap, t_issue)

        # --- execute / memory access / value prediction / branches
        stats = self.stats
        spawn_record: SpawnRecord | None = None
        if op is _LOAD:
            stats.loads += 1
            if self.store_buffer.search(inst.addr, ctx.visible, ctx.pos) is not None:
                t_complete = t_issue + self._l1_latency
                expected_level = _ML_L1
            else:
                expected_level = self.hierarchy.probe_level(inst.addr)
                t_complete, _level = self.hierarchy.load(inst.addr, inst.pc, t_issue)
            if self._vp_on:
                dst_ready, spawn_record = self._handle_load_prediction(
                    ctx, inst, t_queue, t_complete, expected_level
                )
            else:
                dst_ready = t_complete
                if expected_level >= _ML_L2:
                    self._defer_measure(ctx, inst.pc, _KIND_NONE, t_queue, t_complete)
        elif op is _STORE:
            dst_ready = t_complete = t_issue + 1
        else:
            dst_ready = t_complete = t_issue + _EXEC_LAT[op]
            if op is _BRANCH:
                stats.branches += 1
                predicted = self.branch_predictor.predict_and_update(
                    inst.pc, ctx.bhist, inst.taken
                )
                ctx.bhist = update_history(ctx.bhist, inst.taken)
                if predicted != inst.taken:
                    stats.branch_mispredicts += 1
                    redirect = t_complete + 1
                    if redirect > ctx.resume_at:
                        ctx.resume_at = redirect
                if self._branch_spawn:
                    # SPMT family: offer this control-flow boundary to the
                    # execution model as a spawn point
                    self.model.on_branch(
                        self, ctx, inst, t_queue, t_complete,
                        predicted == inst.taken,
                    )

        # --- writeback
        if writes_reg:
            reg_ready[dst] = dst_ready

        # --- commit (in-order, bandwidth-limited)
        t_commit = ctx.commit_slot(t_complete + 1, self._commit_width)
        if spawn_record is not None:
            spawn_record.load_commit_time = t_commit

        if op is _STORE:
            stats.stores += 1
            if ctx.speculative:
                # pre-checked above: allocation cannot fail here
                self.store_buffer.allocate(
                    ctx.order, ctx.pos, inst.addr, inst.value or 0, t_commit
                )
            else:
                self.hierarchy.store(inst.addr, t_commit)

        # --- window bookkeeping
        rob.append(t_commit)
        if len(rob) > rob_size:
            rob.popleft()
        if writes_reg:
            heappush(rename_heap, t_commit)

        # --- commit accounting (closure-based; see DESIGN.md)
        arch_limit = ctx.arch_limit
        if arch_limit is None or ctx.pos <= arch_limit:
            ctx.within_commits += 1
            ctx.last_within_commit = t_commit
        else:
            ctx.beyond_commits += 1

        # --- predictor training at commit, in program order
        if op is _LOAD and inst.value is not None:
            self.predictor.train(inst, inst.value)

        ctx.fetched_count += 1
        self._global_fetched += 1
        if obs is not None:
            obs.step(
                ctx.order, inst.pc, _OP_NAMES[op], t_fetch, t_issue, t_commit,
                len(rob), len(iq_heap), self.store_buffer.total,
            )
        if t_fetch >= ctx.measures_min_end:
            self._finalize_measures(ctx, t_fetch)
        ctx.pos += 1
        if ctx.pos >= ctx.trace_len:
            ctx.done = True
        if spawn_record is not None and self._fetch_single:
            ctx.blocked = True
        if self._branch_spawn:
            # SPMT resolution is position-triggered: the spawn resolves the
            # moment the parent has executed the whole skipped region
            record = ctx.spawn_record_as_parent
            if record is not None and ctx.pos >= record.resolve_pos:
                self._resolve_record(record, t_commit)
