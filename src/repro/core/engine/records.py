"""Shared hot-loop tables and the spawn record.

The per-instruction kernel runs once per simulated instruction; enum
property lookups (``op.is_memory``, ``EXEC_LATENCY[op]`` hashing) are
measurable there, so the per-op decisions are flattened into tuples indexed
by the OpClass value (see DESIGN.md §5c).  Issue *port* and instruction
*queue* use the same {int, fp, mem} partition (Table 1), so one table
serves both; :class:`BookingGroup` folds it and the latencies into each
group's op-class plan.  Every staged engine module imports these names so
the split keeps the exact globals the monolithic engine resolved.
"""

from __future__ import annotations

from repro.core.config import MachineConfig
from repro.core.context import ThreadContext
from repro.isa import EXEC_LATENCY, OpClass
from repro.memory import MemLevel
from repro.select import PredictionKind

_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH
_QUEUE_OF = tuple(
    "mem" if op.is_memory else ("fp" if op.is_fp else "int") for op in OpClass
)
_EXEC_LAT = tuple(EXEC_LATENCY[op] for op in OpClass)
_OP_NAMES = tuple(op.name.lower() for op in OpClass)
_KIND = (PredictionKind.NONE, PredictionKind.STVP, PredictionKind.MTVP)
_ML_L1 = MemLevel.L1
_NO_MEASURES = 1 << 62  # pending-measures min-end sentinel: "nothing can fire"

#: once every PRUNE_AT fetched instructions, the step kernel prunes each of
#: the running group's booking dicts that holds more cycles than this.  An
#: instruction books at most one cycle per dict and a prune keeps only the
#: last 2^14 cycles, so no dict grows past 2 x PRUNE_AT.
PRUNE_AT = 1 << 16


class BookingGroup:
    """The window and bandwidth state one booking group's contexts share.

    SMT has one group for every context; CMP has one per core (indexed by
    hardware slot).  The timestamp pipeline has no central clock, so
    bandwidth is per-cycle booking counts: ``fetch`` and ``total`` (issue
    width) map a cycle to its bookings, ``ports`` holds one such dict per
    issue class (Table 1: 6 int, 2 FP, 4 load/store under an 8-wide
    total).  ``rename`` is the rename-register pool, an ascending list of
    the commit times of in-flight writers (registers free at commit).
    ``queues`` holds the instruction queues (IQ / FQ / MQ, keyed like
    ``ports``), ascending lists of the issue times of their entries (a
    slot frees when its entry issues, in any order).  A full pool frees
    its head, the minimum.  ``op_plan`` is a tuple indexed by op value of
    (queue, issue-port booking dict, its capacity, execute latency).  The
    step kernel is the only code that books; capacities come from the
    config it reads once per burst.
    """

    __slots__ = (
        "fetch", "total", "ports", "rename", "queues", "op_plan", "prune_due",
    )

    def __init__(self, config: MachineConfig) -> None:
        self.fetch: dict[int, int] = {}
        self.total: dict[int, int] = {}
        self.ports: dict[str, dict[int, int]] = {"int": {}, "fp": {}, "mem": {}}
        self.rename: list[int] = []
        caps = {
            "int": config.int_issue, "fp": config.fp_issue, "mem": config.mem_issue,
        }
        self.queues: dict[str, list[int]] = {"int": [], "fp": [], "mem": []}
        self.op_plan = tuple(
            (self.queues[q], self.ports[q], caps[q], lat)
            for q, lat in zip(_QUEUE_OF, _EXEC_LAT)
        )
        #: the processor-wide fetched count at which the kernel next
        #: checks this group's booking dicts for pruning
        self.prune_due = 0

    def prune(self, now: int) -> None:
        """Drop the cycles before the last 2^14 from each booking dict that
        holds more than :data:`PRUNE_AT` cycles."""
        horizon = now - (1 << 14)
        for booked in (self.fetch, self.total, *self.ports.values()):
            if len(booked) > PRUNE_AT:
                for cycle in [c for c in booked if c < horizon]:
                    del booked[cycle]


class SpawnRecord:
    """One outstanding spawn: a parent and the children it forked.

    The records alone hold the spawn tree: a context's children are the
    live entries of its ``spawn_record_as_parent``.
    """

    __slots__ = (
        "parent",
        "children",
        "actual",
        "pc",
        "start_time",
        "start_global",
        "load_commit_time",
        "void",
        "resolve_pos",
    )

    def __init__(
        self, parent: ThreadContext, actual: int, pc: int, start_time: int,
        start_global: int,
    ) -> None:
        self.parent = parent
        #: (context, predicted value) per spawned alternative; a confirmed
        #: child that retires into its winner is replaced in place
        self.children: list[tuple[ThreadContext, int]] = []
        self.actual = actual
        self.pc = pc
        self.start_time = start_time
        #: processor-wide fetched count at prediction time (ILP-pred metric)
        self.start_global = start_global
        self.load_commit_time = 0
        self.void = False
        #: SPMT only: trace position whose reach by the parent resolves
        #: this record (position-triggered, not on the time-ordered heap)
        self.resolve_pos = 0
