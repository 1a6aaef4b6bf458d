"""Cycle-granular bandwidth allocators shared between SMT contexts.

The timestamp-based pipeline has no central clock, so structural bandwidth
(issue ports, shared fetch in the no-stall policy) is arbitrated by these
allocators: ``acquire(t)`` books the earliest cycle at or after ``t`` with a
free slot.  Contexts are stepped in approximate time order by the engine,
so bookings arrive nearly monotonically and the search loop is short.
"""

from __future__ import annotations

#: a booking dict holding more cycles than this is pruned on the next
#: booking (the step kernel inlines the same rule)
PRUNE_AT = 1 << 16


class SlotAllocator:
    """Books up to ``capacity`` events per cycle.

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

    def acquire(self, t: int) -> int:
        """Book one slot at the earliest cycle >= ``t``; returns that cycle."""
        cycle = int(t)
        booked = self._booked
        while booked.get(cycle, 0) >= self.capacity:
            cycle += 1
        booked[cycle] = booked.get(cycle, 0) + 1
        self.acquired += 1
        if len(booked) > PRUNE_AT:
            self._prune(cycle)
        return cycle

    def peek(self, t: int) -> int:
        """Earliest cycle >= ``t`` with a free slot, without booking it."""
        cycle = int(t)
        while self._booked.get(cycle, 0) >= self.capacity:
            cycle += 1
        return cycle

    def _prune(self, now: int) -> None:
        horizon = now - (1 << 14)
        for cycle in [c for c in self._booked if c < horizon]:
            del self._booked[cycle]

    def booked_at(self, t: int) -> int:
        """How many slots are already booked in cycle ``t`` (for tests)."""
        return self._booked.get(int(t), 0)

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
    load/store".  ``acquire`` books one slot in both the class allocator
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

    def acquire(self, port: str, t: int) -> int:
        """Book an issue slot of class ``port`` at or after ``t``.

        Equivalent to alternating ``peek`` calls on the class and total
        allocators until they agree, then ``acquire`` on both — but fused
        over the two booking dicts directly, since this runs once per
        simulated instruction and the calls dominated its cost.
        """
        class_alloc = self._classes[port]
        total = self._total
        class_booked = class_alloc._booked
        total_booked = total._booked
        class_cap = class_alloc.capacity
        total_cap = total.capacity
        cycle = int(t)
        while True:
            while class_booked.get(cycle, 0) >= class_cap:
                cycle += 1
            total_cycle = cycle
            while total_booked.get(total_cycle, 0) >= total_cap:
                total_cycle += 1
            if total_cycle == cycle:
                class_booked[cycle] = class_booked.get(cycle, 0) + 1
                class_alloc.acquired += 1
                if len(class_booked) > PRUNE_AT:
                    class_alloc._prune(cycle)
                total_booked[cycle] = total_booked.get(cycle, 0) + 1
                total.acquired += 1
                if len(total_booked) > PRUNE_AT:
                    total._prune(cycle)
                return cycle
            cycle = total_cycle

    @property
    def issued(self) -> int:
        """Total issue slots booked."""
        return self._total.acquired

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
