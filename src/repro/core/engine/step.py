"""The burst step kernel.

One call advances one context by one or more instructions: fetch/queue/
issue/complete/commit timestamps under window, rename, queue and
issue-port constraints.  Architectural state it touches: the register ready
map, cache/store-buffer contents, predictor tables, branch history and the
trace position.  Everything else it manipulates — heaps of in-flight
entries, port reservations, deferred measures — is timing state.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.branch import update_history
from repro.core.allocators import PRUNE_AT
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
    """Fetch/queue/issue/complete/commit instructions of one context."""

    def _steps(
        self,
        ctx: ThreadContext,
        second_hint: int,
        stop_at: int,
    ) -> None:
        """Step ``ctx`` until a rescan of the contexts could pick another.

        Always attempts one instruction.  After each one it stops when
        ``ctx`` is dead, blocked, sb-paused or done; a spawn allocated a
        context (``_next_order`` moved); the processor-wide fetched count
        reached ``stop_at``; ``ctx``'s time hint reached the runner-up's
        ``second_hint`` (a tie goes back to the scheduler's full
        hint/priority/slot order; a negative ``second_hint`` means no
        runner-up); or the head of the pending spawn heap is due.  Those
        are exactly the events after which the scheduler's scan could
        choose differently, so a burst makes the same decisions as one
        scan per instruction.

        This is the simulator's innermost loop, so it trades repetition
        for speed: everything fixed for the burst (the context's trace,
        ROB and register map, its group's heaps and booking dicts, engine
        components and config fields) is a local, the fetch and issue
        bookings work on the allocators' dicts directly (this is the only
        code that books them), and the commit-bandwidth fields live in
        locals until the burst ends.  Per-op decisions come from flat
        tuples indexed by the op class (see DESIGN.md §5c).
        """
        trace = ctx.trace
        trace_len = ctx.trace_len
        rob = ctx.rob
        rob_len = len(rob)
        reg_ready = ctx.reg_ready
        visible = ctx.visible
        group = 0 if self._smt_shared else ctx.slot
        rename_heap = self._rename_groups[group]
        rename_len = len(rename_heap)
        iq_heaps = self._iq_groups[group]
        fetch_alloc = self._fetch_groups[group]
        fetch_booked = fetch_alloc._booked
        fetch_cap = fetch_alloc.capacity
        issue = self._issue_groups[group]
        port_allocs = issue._classes
        total_alloc = issue._total
        total_booked = total_alloc._booked
        total_cap = total_alloc.capacity
        stats = self.stats
        hierarchy = self.hierarchy
        store_buffer = self.store_buffer
        predictor = self.predictor
        obs = self._obs
        pending = self._pending
        rob_size = self._rob_size
        rename_regs = self._rename_regs
        iq_size = self._iq_size
        front_latency = self._front_latency
        commit_width = self._commit_width
        l1_latency = self._l1_latency
        vp_on = self._vp_on
        predict_load = self.model.handle_load_prediction
        branch_spawn = self._branch_spawn
        block_on_spawn = self._fetch_single
        order_snap = self._next_order
        fetched = start_fetched = self._global_fetched
        pos = ctx.pos
        t_fetch = ctx.last_fetch
        last_commit = ctx.last_commit
        commit_cycle = ctx.commit_cycle
        commits_in_cycle = ctx.commits_in_cycle
        while True:
            inst = trace[pos]
            op = inst.op

            # --- speculative store gating: never start a store the buffer
            # cannot hold; the thread stalls until a resolution frees space
            if op is _STORE and ctx.speculative and store_buffer.is_full:
                ctx.sb_paused = True
                stats.store_buffer_stalls += 1
                self._sb_waiters.append(ctx)
                if obs is not None:
                    obs.sb_stall(max(t_fetch, ctx.resume_at), ctx.order, inst.pc)
                break

            # --- fetch: gated on stream position, redirects, a ROB slot, a
            # rename register and an IQ slot, then fetch bandwidth.  The
            # constraint heaps release their earliest occupant when full —
            # popping models the slot freeing and keeps each heap bounded.
            t = t_fetch
            if ctx.resume_at > t:
                t = ctx.resume_at
            if rob_len >= rob_size and rob[0] > t:
                t = rob[0]
            dst = inst.dst
            if dst is not None and rename_len >= rename_regs:
                rename_free = heappop(rename_heap)
                rename_len -= 1
                if rename_free > t:
                    t = rename_free
            queue = _QUEUE_OF[op]
            iq_heap = iq_heaps[queue]
            if len(iq_heap) >= iq_size:
                iq_free = heappop(iq_heap)
                if iq_free > t:
                    t = iq_free
            # fetch booking: the earliest cycle >= t with a free slot
            n = fetch_booked.get(t, 0)
            while n >= fetch_cap:
                t += 1
                n = fetch_booked.get(t, 0)
            fetch_booked[t] = n + 1
            if len(fetch_booked) > PRUNE_AT:
                fetch_alloc._prune(t)
            t_fetch = t
            if obs is not None:
                # refresh the clock-free components' stamp before any of
                # them can fire below (hierarchy, branch and value predictor)
                obs.now = t_fetch
                obs.tid = ctx.order

            # --- rename/queue, operand ready
            t_ready = t_queue = t_fetch + front_latency
            for src in inst.srcs:
                if src:
                    rt = reg_ready[src]
                    if rt > t_ready:
                        t_ready = rt

            # --- issue (issue-port class == queue class, Table 1): book a
            # common cycle free in both the class and the total allocator
            port_alloc = port_allocs[queue]
            port_booked = port_alloc._booked
            port_cap = port_alloc.capacity
            t = t_ready
            while True:
                n = port_booked.get(t, 0)
                while n >= port_cap:
                    t += 1
                    n = port_booked.get(t, 0)
                t_total = t
                n_total = total_booked.get(t, 0)
                while n_total >= total_cap:
                    t_total += 1
                    n_total = total_booked.get(t_total, 0)
                if t_total == t:
                    break
                t = t_total
            port_booked[t] = n + 1
            port_alloc.acquired += 1
            if len(port_booked) > PRUNE_AT:
                port_alloc._prune(t)
            total_booked[t] = n_total + 1
            if len(total_booked) > PRUNE_AT:
                total_alloc._prune(t)
            t_issue = t
            heappush(iq_heap, t_issue)

            # --- execute / memory access / value prediction / branches
            spawn_record: SpawnRecord | None = None
            if op is _LOAD:
                stats.loads += 1
                addr = inst.addr
                if store_buffer.search(addr, visible, pos) is not None:
                    t_complete = t_issue + l1_latency
                    expected_level = _ML_L1
                else:
                    expected_level = hierarchy.probe_level(addr)
                    t_complete, _level = hierarchy.load(addr, inst.pc, t_issue)
                if vp_on:
                    dst_ready, spawn_record = predict_load(
                        self, ctx, inst, t_queue, t_complete, expected_level
                    )
                else:
                    dst_ready = t_complete
                    if expected_level >= _ML_L2:
                        self._defer_measure(
                            ctx, inst.pc, _KIND_NONE, t_queue, t_complete
                        )
            elif op is _STORE:
                dst_ready = t_complete = t_issue + 1
            else:
                dst_ready = t_complete = t_issue + _EXEC_LAT[op]
                if op is _BRANCH:
                    stats.branches += 1
                    taken = inst.taken
                    predicted = self.branch_predictor.predict_and_update(
                        inst.pc, ctx.bhist, taken
                    )
                    ctx.bhist = update_history(ctx.bhist, taken)
                    if predicted != taken:
                        stats.branch_mispredicts += 1
                        redirect = t_complete + 1
                        if redirect > ctx.resume_at:
                            ctx.resume_at = redirect
                    if branch_spawn:
                        # SPMT family: offer this control-flow boundary to
                        # the execution model as a spawn point
                        self.model.on_branch(
                            self, ctx, inst, t_queue, t_complete,
                            predicted == taken,
                        )

            # --- writeback
            if dst is not None:
                reg_ready[dst] = dst_ready

            # --- commit: in order, at most commit_width per cycle
            t = t_complete + 1
            if t < last_commit:
                t = last_commit
            if t == commit_cycle:
                if commits_in_cycle >= commit_width:
                    t += 1
                    commit_cycle = t
                    commits_in_cycle = 1
                else:
                    commits_in_cycle += 1
            else:
                commit_cycle = t
                commits_in_cycle = 1
            last_commit = t_commit = t
            if spawn_record is not None:
                spawn_record.load_commit_time = t_commit

            if op is _STORE:
                stats.stores += 1
                if ctx.speculative:
                    # pre-checked above: allocation cannot fail here
                    store_buffer.allocate(
                        ctx.order, pos, inst.addr, inst.value or 0, t_commit
                    )
                else:
                    hierarchy.store(inst.addr, t_commit)

            # --- window bookkeeping
            rob.append(t_commit)
            if rob_len >= rob_size:
                rob.popleft()
            else:
                rob_len += 1
            if dst is not None:
                heappush(rename_heap, t_commit)
                rename_len += 1

            # --- commit accounting (closure-based; see DESIGN.md)
            arch_limit = ctx.arch_limit
            if arch_limit is None or pos <= arch_limit:
                ctx.within_commits += 1
                ctx.last_within_commit = t_commit
            else:
                ctx.beyond_commits += 1

            # --- predictor training at commit, in program order
            if op is _LOAD and inst.value is not None:
                predictor.train(inst, inst.value)

            fetched += 1
            self._global_fetched = fetched
            if obs is not None:
                obs.step(
                    ctx.order, inst.pc, _OP_NAMES[op], t_fetch, t_issue,
                    t_commit, rob_len, len(iq_heap), store_buffer.total,
                )
            if t_fetch >= ctx.measures_min_end:
                self._finalize_measures(ctx, t_fetch)
            pos += 1
            ctx.pos = pos
            if pos >= trace_len:
                ctx.done = True
            if spawn_record is not None and block_on_spawn:
                ctx.blocked = True
            if branch_spawn:
                # SPMT resolution is position-triggered: the spawn resolves
                # the moment the parent has executed the whole skipped region
                record = ctx.spawn_record_as_parent
                if record is not None and pos >= record.resolve_pos:
                    self._resolve_record(record, t_commit)

            # --- burst exit: the events after which a rescan could choose
            # another context (see the docstring)
            if (
                not ctx.alive
                or ctx.blocked
                or ctx.sb_paused
                or ctx.done
                or self._next_order != order_snap
                or fetched >= stop_at
            ):
                break
            hint = ctx.resume_at
            if t_fetch > hint:
                hint = t_fetch
            if 0 <= second_hint <= hint:
                break
            if pending and pending[0][0] <= hint:
                break

        # fields nothing reads mid-burst: written back once
        stepped = fetched - start_fetched
        ctx.last_fetch = t_fetch
        ctx.last_commit = last_commit
        ctx.commit_cycle = commit_cycle
        ctx.commits_in_cycle = commits_in_cycle
        ctx.fetched_count += stepped
        fetch_alloc.acquired += stepped
        total_alloc.acquired += stepped
