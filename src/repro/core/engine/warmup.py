"""Warm start and functional fast-forward.

Two distinct mechanisms live here, both touching *architectural* state
only:

* :meth:`WarmupMixin._warm_state` — the legacy SimPoint-style warm start
  (``config.warm_caches``): pre-touch the steady-state footprint and train
  the predictors by replaying the trace functionally, without advancing
  the trace position.  The timed run still covers the whole trace.
* :meth:`WarmupMixin.fast_forward` — functional fast-forward: *advance*
  the root context through the first N instructions with architectural
  effects only (cache contents, prefetcher streams, branch/value predictor
  tables, branch history, trace position) and zero timing bookkeeping.
  The timed run then covers only the remaining instructions.  The
  prefetcher's counters, the one component counter the pass moves, are
  reset so stats describe the measured interval alone.
"""

from __future__ import annotations

from repro.branch import update_history
from repro.core.context import ThreadContext
from repro.core.engine.records import _BRANCH, _LOAD, _STORE


class WarmupMixin:
    """Architectural-only trace replay: warm start and fast-forward."""

    def _warm_state(self, addresses, roots: list[ThreadContext]) -> None:
        """SimPoint-style warm start for long-lived microarchitectural state.

        A SimPoint window begins mid-execution, with caches, branch
        predictor and value predictor all trained by the preceding
        billions of instructions.  A short synthetic trace would otherwise
        charge all of that warm-up to the timed region:

        * cache contents: the caller supplies the footprints that are
          resident in steady state, as address ranges (regions that fit in
          the L3; giant non-revisiting walks stay cold, as they would be at
          any point of a real long run), and
          :meth:`~repro.memory.MemoryHierarchy.install` builds exactly the
          caches storing each address in turn would;
        * branch predictor and value predictor: one functional pass over
          the trace trains the tables exactly as the previous loop
          iterations of the real program would have.

        Neither step moves a counter that :class:`SimStats` reports.

        A restored warmup checkpoint overwrites everything built here, so
        an engine constructed with one skips this method altogether.
        """
        if addresses is not None:
            self.hierarchy.install(addresses)
        bp = self.branch_predictor
        vp = self.predictor
        load, branch = _LOAD, _BRANCH
        # one functional pass per program: single-program engines have one
        # root over self.trace (the historical behaviour, bit for bit),
        # multi-program co-schedules train the shared tables from every
        # stream — itself a realistic interference channel
        for root in roots:
            branches = []
            load_insts = []
            for inst in root.trace:
                op = inst.op
                if op is branch:
                    branches.append((inst.pc, inst.taken))
                elif op is load and inst.value is not None:
                    load_insts.append(inst)
            root.bhist = bp.train_many(branches, 0)
            # the branch and value-predictor tables are independent, so the
            # functional pass's load trainings join the replay passes below
            # without changing either table.  extra value-predictor passes:
            # confidence counters (+1 per hit) need far more history than
            # one short trace to reach the steady state a 100M-instruction
            # run would have — minority pattern values gain confidence a
            # point at a time and need several hundred sightings per static
            # load before their counters mean anything.  scale the replay
            # count so each static load sees ~800 trainings.
            if load_insts:
                per_pc = len(load_insts) / max(1, len({i.pc for i in load_insts}))
                passes = min(40, max(1, round(800 / per_pc) - 1))
                vp.train_many(load_insts, passes + 1)

    # ------------------------------------------------------------------
    def fast_forward(self, n: int) -> int:
        """Functionally advance the root context by ``n`` instructions.

        Architectural state only: the trace position and branch history
        move, the memory image flows through the cache hierarchy and
        prefetcher, and the branch/value predictor tables train exactly as
        a timed run would have trained them at commit.  No timestamps, no
        window/port/queue bookkeeping, no spawns, no stats — timing starts
        from a clean slate at the new position.

        Must be called before the timed run starts (it is the "cheap
        warmup" half of the warmup+sample protocol; see DESIGN.md §5f for
        the fidelity caveats).  Returns the number of instructions
        skipped.

        Args:
            n: Instructions to fast-forward past.  Must leave at least one
                instruction for the timed region.
        """
        if self._started:
            raise RuntimeError("fast_forward() must run before Engine.run()")
        if self.model.multi_program:
            raise RuntimeError(
                "fast_forward() advances the single root context; "
                "multi-program co-schedules have no single warmup stream"
            )
        if n < 0:
            raise ValueError("fast-forward distance must be non-negative")
        root = self._contexts[0]
        if n >= len(self.trace) - root.pos:
            raise ValueError(
                f"fast-forward of {n} leaves no instructions to simulate "
                f"(trace has {len(self.trace) - root.pos} left)"
            )
        if n == 0:
            return 0
        bp = self.branch_predictor
        vp = self.predictor
        hierarchy = self.hierarchy
        hist = root.bhist
        start = root.pos
        load, store, branch = _LOAD, _STORE, _BRANCH
        for inst in self.trace[start : start + n]:
            op = inst.op
            if op is load:
                hierarchy.warm_access(inst.addr, inst.pc)
                if inst.value is not None:
                    vp.train(inst, inst.value)
            elif op is store:
                hierarchy.store(inst.addr, 0)
            elif op is branch:
                bp.update(inst.pc, hist, inst.taken)
                hist = update_history(hist, inst.taken)
        root.bhist = hist
        root.pos = start + n
        root.start_pos = root.pos
        # the pass is warmup, not measurement: drop the prefetcher counters
        # it moved so the timed interval reports only itself
        pf = hierarchy.prefetcher
        if pf is not None:
            pf.reset_stats()
        self.stats.warmup_instructions += n
        return n
