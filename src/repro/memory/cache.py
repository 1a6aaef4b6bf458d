"""A set-associative cache with true-LRU replacement.

The timing model is timestamp-based, so the cache only tracks *contents*;
latency accounting lives in :mod:`repro.memory.hierarchy`.  State is updated
in call order, which the engine keeps approximately time-ordered by always
advancing the context with the smallest local clock.
"""

from __future__ import annotations

#: distinguishes "absent" from the stored value (always ``None``) so the
#: hot lookup path can do one ``dict.pop`` instead of test + delete + insert
_MISS = object()


class Cache:
    """Set-associative cache storing line tags with LRU replacement.

    Python dicts preserve insertion order, so each set is a dict whose
    iteration order *is* the LRU order (oldest first); a hit re-inserts the
    tag to move it to the MRU position.

    Args:
        size_bytes: Total capacity in bytes.
        assoc: Associativity (ways per set).
        line_size: Cache line size in bytes (must be a power of two).
        latency: Hit latency in cycles, exposed for the hierarchy to use.
        name: Label used in stats and repr.
    """

    def __init__(
        self,
        size_bytes: int,
        assoc: int,
        line_size: int = 64,
        latency: int = 1,
        name: str = "cache",
    ) -> None:
        if line_size & (line_size - 1):
            raise ValueError("line_size must be a power of two")
        if size_bytes % (assoc * line_size):
            raise ValueError("size must be a multiple of assoc * line_size")
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_size = line_size
        self.latency = latency
        self.name = name
        self.num_sets = size_bytes // (assoc * line_size)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")
        self._set_mask = self.num_sets - 1
        self._line_shift = line_size.bit_length() - 1
        self._sets: list[dict[int, None]] = [{} for _ in range(self.num_sets)]
        #: running count of valid lines, maintained by insert/invalidate so
        #: occupancy is O(1) instead of a sum over every set
        self._lines = 0
        self.hits = 0
        self.misses = 0

    def line_of(self, addr: int) -> int:
        """Return the line-aligned address containing byte address ``addr``."""
        return addr >> self._line_shift

    def lookup(self, addr: int) -> bool:
        """Probe-and-update access: returns True on hit, updates LRU state.

        A miss does *not* allocate; call :meth:`insert` when the fill
        arrives (the hierarchy does this immediately since timing is
        tracked separately).

        The hit path is a single ``pop``-and-reinsert: one membership
        test doubles as the removal, halving the dict operations on the
        engine's most common memory outcome.
        """
        line = addr >> self._line_shift
        cset = self._sets[line & self._set_mask]
        if cset.pop(line, _MISS) is _MISS:
            self.misses += 1
            return False
        cset[line] = None
        self.hits += 1
        return True

    def fill(self, addr: int) -> bool:
        """:meth:`lookup`, then :meth:`insert` on a miss, in one step.

        Returns True on a hit.  Contents, LRU order, hit/miss counters and
        occupancy end up exactly as ``lookup(addr) or insert(addr)`` leaves
        them — the write-allocate path of a store, which the warm start
        runs once per line of the steady-state footprint.
        """
        line = addr >> self._line_shift
        cset = self._sets[line & self._set_mask]
        if cset.pop(line, _MISS) is _MISS:
            self.misses += 1
            if len(cset) >= self.assoc:
                del cset[next(iter(cset))]
            else:
                self._lines += 1
            cset[line] = None
            return False
        cset[line] = None
        self.hits += 1
        return True

    def probe(self, addr: int) -> bool:
        """Non-destructive presence check (no LRU update, no stats)."""
        line = self.line_of(addr)
        return line in self._sets[line & self._set_mask]

    def insert(self, addr: int) -> int | None:
        """Fill the line containing ``addr``; return the evicted line or None.

        The evicted value is the line-aligned address of the victim, which
        inclusive hierarchies can use for back-invalidation (we do not need
        it but expose it for completeness and tests).
        """
        line = self.line_of(addr)
        cset = self._sets[line & self._set_mask]
        victim = None
        if line in cset:
            del cset[line]
        elif len(cset) >= self.assoc:
            victim = next(iter(cset))
            del cset[victim]
        else:
            self._lines += 1
        cset[line] = None
        return victim

    def invalidate(self, addr: int) -> bool:
        """Remove the line containing ``addr``; return True if it was present."""
        line = self.line_of(addr)
        cset = self._sets[line & self._set_mask]
        if line in cset:
            del cset[line]
            self._lines -= 1
            return True
        return False

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently held (O(1): maintained count)."""
        return self._lines

    def reset_stats(self) -> None:
        """Zero the hit/miss counters without touching contents."""
        self.hits = 0
        self.misses = 0

    def snapshot(self) -> dict:
        """Serialize contents and counters to a versioned picklable dict.

        Dict insertion order *is* the LRU order, so each set serializes as
        its list of tags oldest-first; restoring re-inserts in that order
        and recovers the exact replacement state.
        """
        return {
            "version": 1,
            "geometry": [self.size_bytes, self.assoc, self.line_size],
            "sets": [list(cset) for cset in self._sets],
            "hits": self.hits,
            "misses": self.misses,
        }

    def restore(self, data: dict) -> None:
        """Restore from a :meth:`snapshot` payload (geometry must match)."""
        if data.get("version") != 1:
            raise ValueError(
                f"unsupported Cache snapshot version: {data.get('version')!r}"
            )
        if list(data["geometry"]) != [self.size_bytes, self.assoc, self.line_size]:
            raise ValueError(
                f"Cache snapshot geometry {data['geometry']} does not match "
                f"{self.name} ({self.size_bytes}B {self.assoc}-way "
                f"{self.line_size}B lines)"
            )
        self._sets = [dict.fromkeys(lines) for lines in data["sets"]]
        self._lines = sum(len(s) for s in self._sets)
        self.hits = data["hits"]
        self.misses = data["misses"]

    def __repr__(self) -> str:
        return (
            f"Cache({self.name}, {self.size_bytes // 1024}KB, "
            f"{self.assoc}-way, {self.num_sets} sets)"
        )
