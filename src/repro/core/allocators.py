"""Cycle-granular bandwidth allocators shared between SMT contexts.

The timestamp-based pipeline has no central clock, so structural bandwidth
(issue ports, shared fetch in the no-stall policy) is arbitrated by
per-cycle booking counts held here.  The step kernel
(:meth:`repro.core.engine.step.StepMixin._steps`) is the one place that
books: it takes the earliest cycle at or after the requested one with a
free slot (for issue, a cycle free in both the class and the total
allocator).  Contexts are stepped in approximate time order, so bookings
arrive nearly monotonically and the search loop is short.  These classes
own the booking state, its pruning and its snapshot format.
"""

from __future__ import annotations

#: a booking dict holding more cycles than this is pruned on the next
#: booking
PRUNE_AT = 1 << 16


class SlotAllocator:
    """Up to ``capacity`` bookings per cycle.

    Sparse dict from cycle to booked count; entries older than the pruning
    horizon are dropped opportunistically so memory stays bounded over long
    simulations.
    """

    def __init__(self, capacity: int, name: str = "slots") -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.name = name
        self._booked: dict[int, int] = {}
        self.acquired = 0

    def _prune(self, now: int) -> None:
        horizon = now - (1 << 14)
        for cycle in [c for c in self._booked if c < horizon]:
            del self._booked[cycle]

    def snapshot(self) -> dict:
        """Serialize bookings and counters to a versioned picklable dict."""
        return {
            "version": 2,
            "capacity": self.capacity,
            "booked": [[c, n] for c, n in self._booked.items()],
            "acquired": self.acquired,
        }

    def restore(self, data: dict) -> None:
        """Restore from a :meth:`snapshot` payload (same capacity).

        Only version 2 payloads load; older ones raise ``ValueError``.
        """
        version = data.get("version")
        if version != 2:
            raise ValueError(
                f"unsupported SlotAllocator snapshot version: {version!r} "
                f"(this code reads version 2; re-take the snapshot)"
            )
        if data["capacity"] != self.capacity:
            raise ValueError("SlotAllocator snapshot capacity mismatch")
        self._booked = {c: n for c, n in data["booked"]}
        self.acquired = data["acquired"]


class PortedIssue:
    """Issue bandwidth: per-class port limits under a global width cap.

    Table 1: "8 instructions per cycle, up to 6 Integer, 2 FP, 4
    load/store".  Every issue books one slot in both the class allocator
    and the global allocator at a common cycle.
    """

    def __init__(self, total: int = 8, int_ports: int = 6, fp_ports: int = 2,
                 mem_ports: int = 4) -> None:
        self._total = SlotAllocator(total, "issue-total")
        self._classes = {
            "int": SlotAllocator(int_ports, "issue-int"),
            "fp": SlotAllocator(fp_ports, "issue-fp"),
            "mem": SlotAllocator(mem_ports, "issue-mem"),
        }

    def snapshot(self) -> dict:
        """Serialize the total and per-class allocators (versioned)."""
        return {
            "version": 1,
            "total": self._total.snapshot(),
            "classes": {
                name: alloc.snapshot() for name, alloc in self._classes.items()
            },
        }

    def restore(self, data: dict) -> None:
        """Restore from a :meth:`snapshot` payload (same port structure)."""
        if data.get("version") != 1:
            raise ValueError(
                f"unsupported PortedIssue snapshot version: "
                f"{data.get('version')!r}"
            )
        if set(data["classes"]) != set(self._classes):
            raise ValueError("PortedIssue snapshot port classes mismatch")
        self._total.restore(data["total"])
        for name, alloc in self._classes.items():
            alloc.restore(data["classes"][name])
