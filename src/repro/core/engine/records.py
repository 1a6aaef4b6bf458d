"""Shared hot-loop tables and the spawn record.

The per-instruction kernel runs once per simulated instruction; enum
property lookups (``op.is_memory``, ``EXEC_LATENCY[op]`` hashing) are
measurable there, so the per-op decisions are flattened into tuples indexed
by the OpClass value (see DESIGN.md §5c).  Issue *port* and instruction
*queue* use the same {int, fp, mem} partition (Table 1), so one table
serves both; the engine folds it and the latencies into each group's
op-class plan.  Every staged engine module imports these names so the split
keeps the exact globals the monolithic engine resolved.
"""

from __future__ import annotations

from repro.core.config import SimMode
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


class SpawnRecord:
    """A pending threaded value prediction awaiting its load's return."""

    __slots__ = (
        "resolve_time",
        "parent",
        "children",
        "actual",
        "pc",
        "start_time",
        "start_global",
        "load_commit_time",
        "kind",
        "void",
        "resolve_pos",
    )

    def __init__(
        self,
        resolve_time: int,
        parent: ThreadContext,
        actual: int,
        pc: int,
        start_time: int,
        kind: SimMode,
    ) -> None:
        self.resolve_time = resolve_time
        self.parent = parent
        #: (context, predicted value) per spawned alternative
        self.children: list[tuple[ThreadContext, int]] = []
        self.actual = actual
        self.pc = pc
        self.start_time = start_time
        #: processor-wide fetched count at prediction time (ILP-pred metric)
        self.start_global = 0
        self.load_commit_time = 0
        self.kind = kind
        self.void = False
        #: SPMT only: trace position whose reach by the parent resolves
        #: this record (position-triggered, not on the time-ordered heap)
        self.resolve_pos = 0
