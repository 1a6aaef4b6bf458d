"""Cycle-granular bandwidth allocators shared between SMT contexts.

The timestamp-based pipeline has no central clock, so structural bandwidth
(issue ports, shared fetch in the no-stall policy) is arbitrated by
per-cycle booking counts held here.  The step kernel
(:meth:`repro.core.engine.step.StepMixin._steps`) is the one place that
books: it takes the earliest cycle at or after the requested one with a
free slot (for issue, a cycle free in both the class and the total
allocator).  Contexts are stepped in approximate time order, so bookings
arrive nearly monotonically and the search loop is short.  These classes
own the booking state and its pruning.
"""

from __future__ import annotations

#: once every PRUNE_AT fetched instructions, the step kernel prunes each of
#: the running group's booking dicts that holds more cycles than this.  An
#: instruction books at most one cycle per dict and a prune keeps only the
#: last 2^14 cycles, so no dict grows past 2 x PRUNE_AT.
PRUNE_AT = 1 << 16


class SlotAllocator:
    """Up to ``capacity`` bookings per cycle.

    Sparse dict from cycle to booked count; entries older than the pruning
    horizon are dropped opportunistically so memory stays bounded over long
    simulations.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._booked: dict[int, int] = {}

    def _prune(self, now: int) -> None:
        horizon = now - (1 << 14)
        for cycle in [c for c in self._booked if c < horizon]:
            del self._booked[cycle]


class PortedIssue:
    """Issue bandwidth: per-class port limits under a global width cap.

    Table 1: "8 instructions per cycle, up to 6 Integer, 2 FP, 4
    load/store".  Every issue books one slot in both the class allocator
    and the global allocator at a common cycle.
    """

    def __init__(self, total: int = 8, int_ports: int = 6, fp_ports: int = 2,
                 mem_ports: int = 4) -> None:
        self._total = SlotAllocator(total)
        self._classes = {
            "int": SlotAllocator(int_ports),
            "fp": SlotAllocator(fp_ports),
            "mem": SlotAllocator(mem_ports),
        }
