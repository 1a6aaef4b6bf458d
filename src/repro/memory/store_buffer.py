"""Speculative store buffer for threaded value prediction.

Section 3.2 of the paper requires speculative threads to buffer their memory
writes; Section 3.3's single-fetch-path variant simplifies this to "a single
store buffer ... with a tag for each entry indicating which thread generated
it.  Searches through the store buffer are then a hit if the searching
thread was spawned more recently than the owner thread."

We implement exactly that unified tagged buffer.  Threads are identified by
a monotonically increasing *spawn order* (the linear chain of single fetch
path MTVP), and entries carry the trace position of the store so that a
load only sees stores that precede it in program order.

Capacity is the architectural knob studied in Section 5.3 (512 physical
entries, 128 used by default; performance "begins to tail off at 64 and
below entries").
"""

from __future__ import annotations

from repro.tables import power_of_two


class StoreEntry:
    """One buffered speculative store."""

    __slots__ = ("owner", "trace_pos", "addr", "value", "time")

    def __init__(self, owner: int, trace_pos: int, addr: int, value: int, time: int) -> None:
        self.owner = owner
        self.trace_pos = trace_pos
        self.addr = addr
        self.value = value
        self.time = time

    def __repr__(self) -> str:
        return (
            f"StoreEntry(owner={self.owner}, pos={self.trace_pos}, "
            f"addr={self.addr:#x}, value={self.value})"
        )


class StoreBuffer:
    """Unified, thread-tagged speculative store buffer.

    Args:
        capacity: Maximum buffered stores across all speculative threads.
            ``None`` models the unlimited buffer of the oracle limit study
            in Section 5.1.
        granularity: Address match granularity in bytes (8 = one 64-bit
            word, the natural store size of the abstract ISA).
    """

    def __init__(self, capacity: int | None = 128, granularity: int = 8) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        power_of_two("granularity", granularity)
        self.capacity = capacity
        self.granularity = granularity
        self._shift = granularity.bit_length() - 1
        self._by_addr: dict[int, list[StoreEntry]] = {}
        self._by_owner: dict[int, list[StoreEntry]] = {}
        self.total = 0
        #: searches that found a visible store, reported as
        #: ``SimStats.store_forwards``
        self.forward_hits = 0

    # ------------------------------------------------------------------
    def _key(self, addr: int) -> int:
        return addr >> self._shift

    @property
    def is_full(self) -> bool:
        """True when no further store can be buffered."""
        return self.capacity is not None and self.total >= self.capacity

    def allocate(self, owner: int, trace_pos: int, addr: int, value: int, time: int) -> bool:
        """Buffer a speculative store; returns False when the buffer is full.

        A full buffer stalls the storing thread until its value prediction
        resolves — the mechanism that bounds speculation distance.
        """
        if self.is_full:
            return False
        entry = StoreEntry(owner, trace_pos, addr, value, time)
        self._by_addr.setdefault(self._key(addr), []).append(entry)
        self._by_owner.setdefault(owner, []).append(entry)
        self.total += 1
        return True

    def search(
        self, addr: int, visible: tuple[int, ...], trace_pos: int
    ) -> StoreEntry | None:
        """Find the youngest visible store to ``addr`` for a loading thread.

        ``visible`` is the searcher's ancestor chain (own order included):
        on the linear single-fetch-path chain this implements exactly the
        paper's "hit if the searching thread was spawned more recently than
        the owner thread"; with multiple-value siblings it additionally
        keeps alternative universes from seeing each other's stores.
        Program order is enforced with ``entry.trace_pos < trace_pos``.
        """
        entries = self._by_addr.get(self._key(addr))
        if not entries:
            return None
        best: StoreEntry | None = None
        for entry in entries:
            if entry.owner in visible and entry.trace_pos < trace_pos:
                if best is None or entry.trace_pos > best.trace_pos:
                    best = entry
        if best is not None:
            self.forward_hits += 1
        return best

    def _remove_owner(self, owner: int) -> list[StoreEntry]:
        entries = self._by_owner.pop(owner, [])
        for entry in entries:
            bucket = self._by_addr[self._key(entry.addr)]
            bucket.remove(entry)
            if not bucket:
                del self._by_addr[self._key(entry.addr)]
        self.total -= len(entries)
        return entries

    def drain_upto(self, max_order: int) -> list[StoreEntry]:
        """Release every store owned by threads with order <= ``max_order``.

        Used when a confirmed thread becomes non-speculative: its own
        stores, and those of already-retired ancestors still parked in the
        buffer, become architectural together.  Returns the released
        entries oldest-first for write-back.
        """
        released: list[StoreEntry] = []
        for owner in [o for o in self._by_owner if o <= max_order]:
            released.extend(self._remove_owner(owner))
        released.sort(key=lambda e: e.trace_pos)
        return released

    def squash_thread(self, owner: int) -> int:
        """Discard a killed thread's stores; returns how many were dropped."""
        return len(self._remove_owner(owner))

    def __len__(self) -> int:
        return self.total
