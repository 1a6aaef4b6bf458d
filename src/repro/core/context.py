"""Per-hardware-context state for the timestamp pipeline."""

from __future__ import annotations

from collections import deque

from repro.isa import NUM_LOGICAL_REGS


class ThreadContext:
    """One SMT hardware context executing a window of the trace.

    A context owns everything the paper replicates per thread: the logical
    register map (here, per-register *ready times* — values live in the
    trace), its reorder buffer, fetch stream state, branch history, and the
    bookkeeping used for confirmation and kill (spawn order, visibility set
    for the tagged store buffer, and the spawn records it takes part in:
    the spawn tree lives in those records, not in the contexts).

    Attributes of note:
        order: Monotonic spawn order; the store-buffer tag from Section 3.3.
        visible: Spawn orders whose buffered stores this thread may consume
            (its ancestors and itself).
        arch_limit: Trace position of the load this context spawned on.
            Commits at or before this position are architectural when the
            context is (or becomes) non-speculative; commits beyond it
            belong to the doomed parent path (no-stall fetch policy only).
    """

    __slots__ = (
        "slot",
        "order",
        "pos",
        "start_pos",
        "trace",
        "stream",
        "speculative",
        "spawn_record_as_child",
        "reg_ready",
        "visible",
        "rob",
        "last_fetch",
        "last_commit",
        "commit_cycle",
        "commits_in_cycle",
        "bhist",
        "within_commits",
        "beyond_commits",
        "last_within_commit",
        "arch_limit",
        "spawn_record_as_parent",
        "alive",
        "blocked",
        "sb_paused",
        "done",
        "resume_at",
        "pending_measures",
        "measures_min_end",
    )

    def __init__(
        self,
        slot: int,
        order: int,
        pos: int,
        start_time: int = 0,
        parent: "ThreadContext | None" = None,
        speculative: bool = False,
    ) -> None:
        self.slot = slot
        self.order = order
        self.pos = pos
        self.start_pos = pos
        self.speculative = speculative
        #: the spawn record in which this context is (currently) the child
        self.spawn_record_as_child = None
        if parent is None:
            self.reg_ready = [0] * NUM_LOGICAL_REGS
            self.visible: tuple[int, ...] = (order,)
            self.bhist = 0
            #: instruction stream this context executes; the engine assigns
            #: root contexts their trace (roots are built before the engine
            #: knows them), children inherit the parent's
            self.trace: list | None = None
            #: index of ``trace`` in the engine's trace list (0 except for
            #: multi-program roots)
            self.stream = 0
        else:
            # flash register-map copy (Section 3.2): ready times carry over
            self.reg_ready = parent.reg_ready.copy()
            self.visible = parent.visible + (order,)
            self.bhist = parent.bhist
            self.trace = parent.trace
            self.stream = parent.stream
        self.rob: deque[int] = deque()
        self.last_fetch = start_time
        self.last_commit = start_time
        self.commit_cycle = -1
        self.commits_in_cycle = 0
        self.within_commits = 0
        self.beyond_commits = 0
        self.last_within_commit = start_time
        self.arch_limit: int | None = None
        #: this thread's own outstanding spawn record (it is the parent), or
        #: None; each thread has at most one (the paper's single-entry child
        #: table), and its ``children`` are this thread's children
        self.spawn_record_as_parent = None
        self.alive = True
        self.blocked = False
        self.sb_paused = False
        self.done = False
        self.resume_at = start_time
        #: deferred ILP-pred episodes: (pc, kind, start_t, end_t, start_count)
        self.pending_measures: deque[tuple[int, int, int, int, int]] = deque()
        #: earliest ``end_t`` among pending measures, or a huge sentinel
        #: when none are pending — lets the engine's per-instruction hot
        #: path skip the finalize scan without touching the deque
        self.measures_min_end = 1 << 62

    # ------------------------------------------------------------------
    @property
    def runnable(self) -> bool:
        """True when the scheduler may step this context."""
        return self.alive and not (self.blocked or self.sb_paused or self.done)

    @property
    def next_time_hint(self) -> int:
        """Approximate time of the next instruction (scheduler ordering key)."""
        return self.last_fetch if self.last_fetch > self.resume_at else self.resume_at

    def __repr__(self) -> str:
        flags = "".join(
            f
            for f, on in (
                ("S", self.speculative),
                ("B", self.blocked),
                ("P", self.sb_paused),
                ("D", self.done),
            )
            if on
        )
        return f"ThreadContext(slot={self.slot}, order={self.order}, pos={self.pos}, {flags})"
