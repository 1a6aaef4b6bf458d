"""The burst step kernel.

One call advances one context by one or more instructions: fetch/queue/
issue/complete/commit timestamps under window, rename, queue and
issue-port constraints.  Architectural state it touches: the register ready
map, cache/store-buffer contents, predictor tables, branch history and the
trace position.  Everything else it manipulates — pools of in-flight
entries, port reservations, deferred measures — is timing state.
"""

from __future__ import annotations

from bisect import insort

from repro.branch import update_history
from repro.core.context import ThreadContext
from repro.core.engine.records import (
    _BRANCH,
    _LOAD,
    _ML_L1,
    _OP_NAMES,
    _STORE,
    BookingGroup,
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
        scan per instruction.  DESIGN.md §5c has the rest: the burst
        locals and their write-backs, the booking calendars and their
        slide, the window pools and the work the kernel skips.
        """
        trace = ctx.trace
        trace_end = len(trace)
        rob = ctx.rob
        rob_len = len(rob)
        reg_ready = ctx.reg_ready
        visible = ctx.visible
        config = self.config
        model = self.model
        group = self._groups[0 if config.smt_shared else ctx.slot]
        rename_pool = group.rename
        rename_len = len(rename_pool)
        op_plan = group.op_plan
        base = group.base
        fetch_booked = group.fetch
        fetch_cap = config.fetch_width
        total_booked = group.total
        total_cap = config.issue_width
        stats = self.stats
        hierarchy = self.hierarchy
        store_buffer = self.store_buffer
        predictor = self.predictor
        obs = self._obs
        if obs is not None:
            # the prefetcher's events, fired inside the hierarchy, carry it
            obs.tid = ctx.order
        pending = self._pending
        rob_size = config.rob_size
        rename_regs = config.rename_regs
        iq_size = config.iq_size
        front_latency = config.front_latency
        commit_width = config.commit_width
        l1_latency = config.l1_latency
        vp_on = model.uses_value_prediction
        # the level probe feeds only the selector: skip it unless the
        # selector reads the level
        reads_level = vp_on and self.selector.reads_level
        predict_load = model.handle_load_prediction
        branch_spawn = model.spawn_on_branches
        order_snap = self._next_order
        fetched = self._global_fetched
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
                self._sb_pause(ctx, t_fetch, inst.pc)
                break

            # --- fetch: gated on stream position, redirects, a ROB slot, a
            # rename register and an IQ slot, then fetch bandwidth.  A full
            # pool releases its earliest occupant: the rename list pops its
            # head here; a full IQ's head is read here and deleted at issue
            # (nothing touches the queue in between).
            t = t_fetch
            if ctx.resume_at > t:
                t = ctx.resume_at
            if rob_len >= rob_size and rob[0] > t:
                t = rob[0]
            dst = inst.dst
            if dst is not None and rename_len >= rename_regs:
                rename_free = rename_pool.pop(0)
                rename_len -= 1
                if rename_free > t:
                    t = rename_free
            iq, port_booked, port_cap, exec_lat = op_plan[op]
            iq_full = len(iq) >= iq_size
            if iq_full and iq[0] > t:
                t = iq[0]
            # fetch booking: the earliest cycle >= t with a free slot.  A
            # read past the calendar's end slides the group's calendars and
            # redoes the booking, which writes only after all its reads
            while True:
                try:
                    i = t - base
                    n = fetch_booked[i]
                    while n >= fetch_cap:
                        i += 1
                        n = fetch_booked[i]
                    break
                except IndexError:
                    ctx.last_fetch = t_fetch
                    base = self._slide(group, t)
            fetch_booked[i] = n + 1
            t_fetch = i + base

            # --- rename/queue, operand ready
            t_ready = t_queue = t_fetch + front_latency
            for src in inst.srcs:
                if src:
                    rt = reg_ready[src]
                    if rt > t_ready:
                        t_ready = rt

            # --- issue (issue-port class == queue class, Table 1): book the
            # earliest cycle free in both the class and the total calendar,
            # which share one index; slid and redone like the fetch booking
            while True:
                try:
                    i = t_ready - base
                    while True:
                        n = port_booked[i]
                        if n < port_cap:
                            n_total = total_booked[i]
                            if n_total < total_cap:
                                break
                        i += 1
                    break
                except IndexError:
                    ctx.last_fetch = t_fetch
                    base = self._slide(group, t_ready)
            port_booked[i] = n + 1
            total_booked[i] = n_total + 1
            t_issue = i + base
            if iq_full:
                del iq[0]
            insort(iq, t_issue)

            # --- execute / memory access / value prediction / branches
            spawn_record: SpawnRecord | None = None
            if op is _LOAD:
                addr = inst.addr
                if (
                    store_buffer.total
                    and store_buffer.search(addr, visible, pos) is not None
                ):
                    t_complete = t_issue + l1_latency
                    expected_level = _ML_L1
                else:
                    expected_level = (
                        hierarchy.probe_level(addr) if reads_level else None
                    )
                    t_complete, level = hierarchy.load(addr, inst.pc, t_issue)
                    if obs is not None and level:
                        # served below the L1 (``MemLevel.L1`` is 0)
                        obs.load_level(
                            t_issue, ctx.order, inst.pc, addr, level,
                            t_complete, hierarchy,
                        )
                if vp_on:
                    ctx.pos = pos
                    self._global_fetched = fetched
                    dst_ready, spawn_record = predict_load(
                        self, ctx, inst, t_queue, t_complete, expected_level
                    )
                    # predictor training at commit, in program order: the
                    # load commits below and nothing in between reads the
                    # predictor (Wang-Franklin's train relies on this to
                    # settle the prediction predict just made)
                    if inst.value is not None:
                        predictor.train(inst, inst.value)
                else:
                    dst_ready = t_complete
            elif op is _STORE:
                dst_ready = t_complete = t_issue + 1
            else:
                dst_ready = t_complete = t_issue + exec_lat
                if op is _BRANCH:
                    stats.branches += 1
                    taken = inst.taken
                    predicted = self.branch_predictor.predict_and_update(
                        inst.pc, ctx.bhist, taken
                    )
                    ctx.bhist = update_history(ctx.bhist, taken)
                    if predicted != taken:
                        stats.branch_mispredicts += 1
                        if obs is not None:
                            obs.branch_mispredict(t_fetch, ctx.order, inst.pc)
                        redirect = t_complete + 1
                        if redirect > ctx.resume_at:
                            ctx.resume_at = redirect
                    if branch_spawn:
                        # SPMT family: offer this control-flow boundary to
                        # the execution model as a spawn point
                        ctx.pos = pos
                        self._global_fetched = fetched
                        model.on_branch(
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
                # the list stays ascending: in-order commit appends, and
                # only a context committing below its group's leftovers
                # (a new context in a slot, SMT interleaving) inserts
                if rename_len and t_commit < rename_pool[-1]:
                    insort(rename_pool, t_commit)
                else:
                    rename_pool.append(t_commit)
                rename_len += 1

            # --- commit accounting (closure-based; see DESIGN.md)
            arch_limit = ctx.arch_limit
            if arch_limit is None or pos <= arch_limit:
                ctx.within_commits += 1
                ctx.last_within_commit = t_commit
            else:
                ctx.beyond_commits += 1

            fetched += 1
            if obs is not None:
                obs.step(
                    ctx.order, inst.pc, _OP_NAMES[op], t_fetch, t_issue,
                    t_commit, rob, rename_pool, group.queues,
                    store_buffer.total,
                )
            if t_fetch >= ctx.measures_min_end:
                ctx.pos = pos
                self._global_fetched = fetched
                self._finalize_measures(ctx, t_fetch)
            pos += 1
            if pos >= trace_end:
                ctx.done = True
            if branch_spawn:
                # SPMT resolution is position-triggered: the spawn resolves
                # the moment the parent has executed the whole skipped region
                record = ctx.spawn_record_as_parent
                if record is not None and pos >= record.resolve_pos:
                    ctx.pos = pos
                    self._global_fetched = fetched
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

        # burst state kept in locals, written back once (the position and
        # fetched count also before each call above that reads them)
        ctx.pos = pos
        self._global_fetched = fetched
        ctx.last_fetch = t_fetch
        ctx.last_commit = last_commit
        ctx.commit_cycle = commit_cycle
        ctx.commits_in_cycle = commits_in_cycle

    def _slide(self, group: BookingGroup, need: int) -> int:
        """Slide ``group``'s calendars to cover cycle ``need``; return the
        new base.

        The floor is the least ``last_fetch`` of the live, unfinished
        contexts (the kernel writes its burst's fetch time back first).
        None of them books below it: the kernel's ``t`` starts at a
        context's ``last_fetch`` and only grows, and a spawned context
        starts at or after its spawner's fetch.  So no cell below the
        floor is read again.
        """
        group.slide(
            min(
                c.last_fetch
                for c in self._contexts
                if c is not None and c.alive and not c.done
            ),
            need,
        )
        return group.base
