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

#: cycles every calendar of a booking group extends past the booking
#: that ran off its end (see :meth:`BookingGroup.slide`)
CHUNK = 1 << 14


class BookingGroup:
    """The window and bandwidth state one booking group's contexts share.

    SMT has one group for every context; CMP has one per core (indexed by
    hardware slot).  The timestamp pipeline has no central clock, so
    bandwidth is per-cycle booking counts, kept in calendars: ``fetch``,
    ``total`` (issue width) and ``ports`` (one per issue class; Table 1:
    6 int, 2 FP, 4 load/store under an 8-wide total) are bytearrays of one
    common length whose cell ``i`` holds the bookings of cycle
    ``base + i``.  ``rename`` is the rename-register pool, an ascending
    list of the commit times of in-flight writers (registers free at
    commit).  ``queues`` holds the instruction queues (IQ / FQ / MQ, keyed
    like ``ports``), ascending lists of the issue times of their entries (a
    slot frees when its entry issues, in any order).  A full pool frees
    its head, the minimum.  ``op_plan`` is a tuple indexed by op value of
    (queue, issue-port calendar, its capacity, execute latency).  The
    step kernel is the only code that books; capacities come from the
    config it reads once per burst, which bounds every booked width by
    :data:`~repro.core.config.BOOKED_MAX`, what a cell holds.
    """

    __slots__ = ("base", "fetch", "total", "ports", "rename", "queues", "op_plan")

    def __init__(self, config: MachineConfig) -> None:
        self.base = 0
        self.fetch = bytearray(CHUNK)
        self.total = bytearray(CHUNK)
        self.ports = {q: bytearray(CHUNK) for q in ("int", "fp", "mem")}
        self.rename: list[int] = []
        caps = {
            "int": config.int_issue, "fp": config.fp_issue, "mem": config.mem_issue,
        }
        self.queues: dict[str, list[int]] = {"int": [], "fp": [], "mem": []}
        self.op_plan = tuple(
            (self.queues[q], self.ports[q], caps[q], lat)
            for q, lat in zip(_QUEUE_OF, _EXEC_LAT)
        )

    def slide(self, floor: int, need: int) -> None:
        """Drop every calendar's cells below cycle ``floor`` and extend it
        :data:`CHUNK` cycles past ``need`` or its end, whichever is later.

        The calendars change in place (the op-class plan holds them), so
        only ``base`` moves.  ``floor`` must not exceed a cycle any live
        context can still book.
        """
        base = self.base
        assert base <= floor, (base, floor)
        length = max(need, base + len(self.fetch)) + CHUNK - floor
        for calendar in (self.fetch, self.total, *self.ports.values()):
            del calendar[: floor - base]
            calendar += bytes(length - len(calendar))
        self.base = floor


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
