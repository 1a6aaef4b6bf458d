"""The :class:`Engine` facade: construction, the run loop and final stats.

The engine's behaviour lives in focused mixins (see the package docstring
in :mod:`repro.core.engine`); this module owns the state they share —
construction wires every component, :meth:`Engine.run` drives the scheduler
and closes the books.  The facade is also where the run's *lifecycle*
flags live: a run can be paused (``run(max_steps=...)`` returns ``None``)
and resumed, and the snapshot mixin checkpoints the architectural state
before the timed run starts.
"""

from __future__ import annotations

import time

from repro.branch import TwoBcGskewPredictor
from repro.core.config import MachineConfig
from repro.core.context import ThreadContext
from repro.core.engine.lifecycle import LifecycleMixin
from repro.core.engine.measures import MeasureMixin
from repro.core.engine.records import _NO_MEASURES, BookingGroup, SpawnRecord
from repro.core.engine.scheduler import NO_LIMIT, SchedulerMixin
from repro.core.engine.snapshot import SnapshotMixin
from repro.core.engine.step import StepMixin
from repro.core.engine.warmup import WarmupMixin
from repro.core.modes import resolve_model
from repro.core.stats import SimStats
from repro.isa import Instruction
from repro.memory import Cache, MemoryHierarchy, StoreBuffer, StridePrefetcher
from repro.obs import MetricsRegistry, Probe, Tracer
from repro.select import AlwaysSelector, LoadSelector
from repro.vp import ValuePredictor
from repro.vp.oracle import OraclePredictor


class Engine(
    SchedulerMixin,
    StepMixin,
    LifecycleMixin,
    MeasureMixin,
    WarmupMixin,
    SnapshotMixin,
):
    """Runs one trace through one machine configuration.

    Args:
        trace: Dynamic instruction sequence (see :mod:`repro.workloads`).
        config: Machine parameters and simulation mode.
        predictor: Load value predictor; defaults to the oracle.
        selector: Load selector; defaults to :class:`AlwaysSelector`.
        warm_addresses: The steady-state cache footprint the warm start
            installs (``config.warm_caches``), as line-stepped address
            ranges (see :meth:`~repro.memory.MemoryHierarchy.install`);
            ``None`` leaves the caches cold.
        reference_scheduler: Debug flag — run the straightforward
            rebuild-and-``min()`` scheduler instead of the optimized
            incremental one.  Results must be identical; tests compare the
            two.  The reference path additionally records
            ``max_runnable_observed``.
        tracer: Optional :class:`~repro.obs.Tracer`; when given, the run
            emits structured cycle-stamped events into it.
        metrics: Optional :class:`~repro.obs.MetricsRegistry`; when given,
            occupancy/speculation metrics land in ``stats.extended``.
            Instrumentation is strictly read-only: an instrumented run
            produces bit-identical :class:`SimStats` counters.  Only the
            timed run reports (the warm start and :meth:`fast_forward`
            never do), so an observed engine snapshots and restores like
            any other.
        arch: Optional :meth:`snapshot` payload (a warmup checkpoint).
            The engine restores it *instead of* running the warm start;
            the result is identical to warming and then restoring.
    """

    def __init__(
        self,
        trace: list[Instruction],
        config: MachineConfig,
        predictor: ValuePredictor | None = None,
        selector: LoadSelector | None = None,
        warm_addresses=None,
        reference_scheduler: bool = False,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        traces: list[list[Instruction]] | None = None,
        arch: dict | None = None,
    ) -> None:
        model = self.model = resolve_model(config.mode)
        if traces is None:
            traces = [trace]
        else:
            traces = list(traces)
            if not traces:
                raise ValueError("traces must not be empty")
            trace = traces[0]
        if any(not t for t in traces):
            raise ValueError("trace must not be empty")
        if model.multi_program:
            if len(traces) != config.num_contexts:
                raise ValueError(
                    f"{config.mode.value} runs one program per context: got "
                    f"{len(traces)} trace(s) for {config.num_contexts} "
                    f"context(s) (pass traces=[...], one per program)"
                )
        elif len(traces) != 1:
            raise ValueError(
                f"mode {config.mode.value} runs a single program; got "
                f"{len(traces)} traces"
            )
        self.trace = trace
        self.config = config
        self.reference_scheduler = reference_scheduler
        #: peak simultaneously-runnable contexts (reference scheduler only)
        self.max_runnable_observed = 0
        self.predictor = predictor if predictor is not None else OraclePredictor()
        self.selector = selector if selector is not None else AlwaysSelector()
        self.stats = SimStats()

        prefetcher = None
        if config.prefetch_enabled:
            prefetcher = StridePrefetcher(
                table_entries=config.prefetch_entries,
                num_streams=config.prefetch_streams,
                depth=config.prefetch_depth,
                line_size=config.line_size,
                fill_latency=config.prefetch_fill_latency,
                hit_latency=config.l1_latency + 2,
            )
        self.hierarchy = MemoryHierarchy(
            l1=Cache(config.l1_size, config.l1_assoc, config.line_size,
                     config.l1_latency, "L1D"),
            l2=Cache(config.l2_size, config.l2_assoc, config.line_size,
                     config.l2_latency, "L2"),
            l3=Cache(config.l3_size, config.l3_assoc, config.line_size,
                     config.l3_latency, "L3"),
            mem_latency=config.mem_latency,
            prefetcher=prefetcher,
            mshrs=config.mshrs,
        )
        self.branch_predictor = TwoBcGskewPredictor()
        self.store_buffer = StoreBuffer(capacity=config.store_buffer_entries)
        # SMT: one shared set of queues/rename/issue/fetch (slot index 0);
        # CMP: private per-core copies (indexed by hardware context slot)
        self._groups = [
            BookingGroup(config)
            for _ in range(1 if config.smt_shared else config.num_contexts)
        ]

        self._contexts: list[ThreadContext | None] = [None] * config.num_contexts
        self._next_order = 0
        self._pending: list[tuple[int, int, SpawnRecord]] = []
        self._heap_seq = 0
        self._sb_waiters: list[ThreadContext] = []
        self._finish_time = 0
        #: run lifecycle: ``_started`` flips on the first ``run()`` call,
        #: ``_finished`` when the trace drains; between the two the engine
        #: may be paused (``run(max_steps=...)`` returned None)
        self._started = False
        self._finished = False
        self._wall_accum = 0.0

        #: processor-wide fetched-instruction counter; ILP-pred episodes are
        #: measured in total forward progress, as in the paper
        self._global_fetched = 0

        roots = []
        for i, tr in enumerate(traces):
            root = ThreadContext(slot=i, order=self._alloc_order(), pos=0)
            root.trace = tr
            root.stream = i
            self._contexts[i] = root
            roots.append(root)
        root = roots[0]

        #: live observability probe, or None.  The engine's hook sites (the
        #: step kernel's loads and branches among them) each test this one
        #: attribute; the prefetcher, whose events the kernel cannot see,
        #: is handed the probe when the timed run starts (:meth:`run`).
        self._obs: Probe | None = None
        if tracer is not None or metrics is not None:
            obs = self._obs = Probe(tracer=tracer, metrics=metrics)
            for r in roots:
                obs.register_thread(r.order, f"ctx{r.slot}")
            obs.context_count(0, len(roots))

        if arch is not None:
            # a warmup checkpoint overwrites every piece of state the warm
            # start builds (caches, branch and value-predictor tables,
            # branch history), so it takes the warm start's place
            if model.multi_program:
                raise ValueError("arch= takes a snapshot of a single-program engine")
            self.restore(arch)
        elif config.warm_caches:
            self._warm_state(warm_addresses, roots)

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    def _alloc_order(self) -> int:
        order = self._next_order
        self._next_order += 1
        return order

    def _free_slot(self) -> int | None:
        for i, ctx in enumerate(self._contexts):
            if ctx is None:
                return i
        return None

    def _alive_contexts(self) -> list[ThreadContext]:
        return [c for c in self._contexts if c is not None and c.alive]

    def _has_work(self) -> bool:
        """True while the run can still make progress (paused, not done)."""
        if self._pending:
            return True
        return any(
            c is not None and c.alive and c.runnable for c in self._contexts
        )

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, max_steps: int | None = None) -> SimStats | None:
        """Simulate the trace; returns the statistics object.

        Without ``max_steps`` the whole remaining trace runs, exactly as
        before.  With ``max_steps`` the engine steps at most that many
        instructions and then *pauses*, returning ``None``; the caller may
        resume with another ``run()`` call.
        Segmenting a run never changes its results — the scheduler stops
        between instructions, at a point every decision has already been
        made for.
        """
        if self._finished:
            raise RuntimeError("Engine.run() may only be called once")
        self._started = True
        if self._obs is not None and self.hierarchy.prefetcher is not None:
            # from here on, not before: the warm start and fast-forward
            # train the prefetcher unobserved
            self.hierarchy.prefetcher.obs = self._obs
        t0 = time.perf_counter()
        stop_at = (
            NO_LIMIT if max_steps is None else self._global_fetched + max_steps
        )
        if self.reference_scheduler:
            self._run_scheduler_reference(stop_at)
        else:
            self._run_scheduler(stop_at)
        if self._has_work():
            # budget exhausted mid-run: pause, resumable
            self._wall_accum += time.perf_counter() - t0
            return None
        self._finished = True
        self._close_final()
        self._collect_component_stats()
        stats = self.stats
        if self._obs is not None:
            stats.extended = self._obs.finalize(self._finish_time)
        stats.instructions_stepped = self._global_fetched
        self._wall_accum += time.perf_counter() - t0
        stats.wall_seconds = self._wall_accum
        return stats

    def _close_final(self) -> None:
        """Fold the surviving context(s) into the final accounting."""
        survivors = self._alive_contexts()
        for ctx in survivors:
            # the remaining context is the architectural head; every commit
            # it made within its arch range is useful
            self.stats.useful_instructions += ctx.within_commits
            self.stats.wasted_instructions += ctx.beyond_commits
            if ctx.last_within_commit > self._finish_time:
                self._finish_time = ctx.last_within_commit
            self._finalize_measures(ctx, _NO_MEASURES)
        self.stats.cycles = self._finish_time
        self.model.finalize_stats(self)

    def _collect_component_stats(self) -> None:
        self.stats.level_counts = dict(self.hierarchy.level_counts)
        self.stats.store_forwards = self.store_buffer.forward_hits
        # every timed load is a store-buffer forward or one hierarchy load
        self.stats.loads = self.stats.store_forwards + sum(
            self.stats.level_counts.values()
        )
        pf = self.hierarchy.prefetcher
        if pf is not None:
            self.stats.prefetch_stream_hits = pf.stream_hits
            self.stats.prefetch_mistrains = pf.mistrains
