"""A set-associative cache with true-LRU replacement.

The timing model is timestamp-based, so the cache only tracks *contents*;
latency accounting lives in :mod:`repro.memory.hierarchy`.  State is updated
in call order, which the engine keeps approximately time-ordered by always
advancing the context with the smallest local clock.
"""

from __future__ import annotations

from array import array
from itertools import chain, compress, islice, repeat

from repro.tables import power_of_two

#: schema of :meth:`Cache.snapshot` payloads; version 2 stores only the
#: occupied sets, as one per-set count blob plus one flat tag list, and
#: version 3 dropped the hit/miss counters
SNAPSHOT_VERSION = 3

#: distinguishes "absent" from the stored value (always ``None``) so the
#: hot lookup path can do one ``dict.pop`` instead of test + delete + insert
_MISS = object()

#: the one empty set every new cache, and every unoccupied set of a
#: :meth:`Cache.shared` payload, reads; never written (a first write
#: copies it)
_EMPTY: dict[int, None] = {}


def _count_code(assoc: int) -> str:
    """``array`` typecode of a snapshot's per-set counts: a byte each,
    wider past 255 ways."""
    return "B" if assoc <= 0xFF else "I"


class Cache:
    """Set-associative cache storing line tags with LRU replacement.

    Python dicts preserve insertion order, so each set is a dict whose
    iteration order *is* the LRU order (oldest first); a hit re-inserts the
    tag to move it to the MRU position.

    Sets are copy-on-write.  ``_sets[i]`` is the set this cache owns, or
    ``None`` while it reads ``_base[i]``, a set it may share with other
    caches and must not change: the mutators copy it into ``_sets`` on
    their first write.  A new cache owns no set and reads one shared
    empty set everywhere; a restored cache reads a tuple of warmed sets
    (:meth:`shared`), so one tuple serves many caches in O(sets) each.

    Args:
        size_bytes: Total capacity in bytes.
        assoc: Associativity (ways per set).
        line_size: Cache line size in bytes (must be a power of two).
        latency: Hit latency in cycles, exposed for the hierarchy to use.
        name: Label used in error messages and repr.
    """

    def __init__(
        self,
        size_bytes: int,
        assoc: int,
        line_size: int = 64,
        latency: int = 1,
        name: str = "cache",
    ) -> None:
        for field, value in (("size_bytes", size_bytes), ("assoc", assoc)):
            if value <= 0:
                raise ValueError(f"{name}: {field} must be positive, got {value!r}")
        power_of_two(f"{name}: line_size", line_size)
        if size_bytes % (assoc * line_size):
            raise ValueError(
                f"{name}: size_bytes must be a multiple of assoc * line_size"
            )
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_size = line_size
        self.latency = latency
        self.name = name
        self.num_sets = size_bytes // (assoc * line_size)
        power_of_two(f"{name}: number of sets", self.num_sets)
        self._set_mask = self.num_sets - 1
        self._line_shift = line_size.bit_length() - 1
        self._sets: list[dict[int, None] | None] = [None] * self.num_sets
        #: the shared sets this cache reads where ``_sets`` holds None
        self._base: tuple[dict[int, None], ...] = (_EMPTY,) * self.num_sets
        #: running count of valid lines, maintained by the fills so
        #: occupancy is O(1) instead of a sum over every set
        self._lines = 0

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
        if cset is None:
            cset = self._own(line & self._set_mask)
        if cset.pop(line, _MISS) is _MISS:
            return False
        cset[line] = None
        return True

    def fill(self, addr: int) -> bool:
        """:meth:`lookup`, then :meth:`insert` on a miss, in one step.

        Returns True on a hit.  Contents, LRU order and occupancy end up
        exactly as ``lookup(addr) or insert(addr)`` leaves them — the
        write-allocate path of :meth:`MemoryHierarchy.store
        <repro.memory.MemoryHierarchy.store>`.
        """
        line = addr >> self._line_shift
        cset = self._sets[line & self._set_mask]
        if cset is None:
            cset = self._own(line & self._set_mask)
        if cset.pop(line, _MISS) is _MISS:
            if len(cset) >= self.assoc:
                del cset[next(iter(cset))]
            else:
                self._lines += 1
            cset[line] = None
            return False
        cset[line] = None
        return True

    def install(self, lines: range) -> None:
        """:meth:`fill` every line number of ``lines`` in order, set by set.

        ``lines`` is a run of consecutive line numbers (step 1), none of
        which the cache holds — the caller guarantees it, as
        :meth:`MemoryHierarchy.install
        <repro.memory.MemoryHierarchy.install>` does.  Every fill is then
        a miss, and a true-LRU set ends up holding the ``assoc`` most
        recently filled lines in fill order: set ``s`` keeps its old lines
        followed by the run's lines that map to it, cut to the last
        ``assoc``.  Only the last ``num_sets * assoc`` lines of a longer
        run can survive, so the rest are never touched.  Contents, LRU
        order and occupancy end up exactly as the per-line :meth:`fill`
        loop leaves them.
        """
        if lines.step != 1:
            raise ValueError(f"{self.name}: install takes consecutive line numbers")
        num_sets, assoc = self.num_sets, self.assoc
        lines = lines[-num_sets * assoc:]
        sets, base = self._sets, self._base
        mask = self._set_mask
        first = lines.start
        added = 0
        for j in range(min(num_sets, len(lines))):
            # the run's lines in this set: at most assoc, now that the run
            # fits the cache
            new = lines[j::num_sets]
            index = (first + j) & mask
            cset = sets[index]
            held = len(base[index] if cset is None else cset)
            if not held or len(new) == assoc:
                sets[index] = dict.fromkeys(new)
                added += len(new) - held
                continue
            if cset is None:
                cset = self._own(index)
            overflow = held + len(new) - assoc
            if overflow > 0:
                # the oldest lines go first, as one fill at a time evicts them
                for victim in list(islice(cset, overflow)):
                    del cset[victim]
                added -= overflow
            cset.update(dict.fromkeys(new))
            added += len(new)
        self._lines += added

    def probe(self, addr: int) -> bool:
        """Non-destructive presence check (no LRU update)."""
        line = addr >> self._line_shift
        index = line & self._set_mask
        cset = self._sets[index]
        return line in (self._base[index] if cset is None else cset)

    def insert(self, addr: int) -> None:
        """Fill the line containing ``addr`` at the MRU position, evicting
        the set's LRU line when the set is full."""
        line = addr >> self._line_shift
        cset = self._sets[line & self._set_mask]
        if cset is None:
            cset = self._own(line & self._set_mask)
        if line in cset:
            del cset[line]
        elif len(cset) >= self.assoc:
            del cset[next(iter(cset))]
        else:
            self._lines += 1
        cset[line] = None

    def _own(self, index: int) -> dict[int, None]:
        """Set ``index`` copied out of the shared base, for a first write.

        ``dict.copy`` keeps insertion order, so the copy keeps the LRU
        order.
        """
        cset = self._sets[index] = self._base[index].copy()
        return cset

    def _view(self) -> list[dict[int, None]]:
        """Every set as this cache reads it: its own where it has one."""
        return [
            base if own is None else own
            for own, base in zip(self._sets, self._base)
        ]

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently held (O(1): maintained count)."""
        return self._lines

    def snapshot(self) -> dict:
        """Serialize contents to a versioned picklable dict.

        Dict insertion order *is* the LRU order, so the contents flatten
        to every set's tags oldest-first, concatenated in set order, plus
        one count per set (a byte each, wider past 255 ways); restoring
        re-inserts in that order and recovers the exact replacement state.
        """
        sets = self._view()
        return {
            "version": SNAPSHOT_VERSION,
            "geometry": [self.size_bytes, self.assoc, self.line_size],
            "counts": array(_count_code(self.assoc), map(len, sets)).tobytes(),
            "tags": list(chain.from_iterable(sets)),
        }

    @staticmethod
    def shared(data: dict, name: str = "cache") -> dict:
        """A :meth:`snapshot` payload as the shared form caches adopt.

        The flat tags become ``sets``, a tuple of one dict per set in LRU
        order, plus the ``lines`` they hold; the version and geometry
        stay the payload's.  A cache that restores it reads the
        tuple's sets and copies each before its first write to it, so
        they never change and every unoccupied set is the module's one
        empty set, as in a new cache.  The counts and tags are checked
        against the payload's own geometry; a malformed payload raises
        :class:`ValueError` (named ``name``) or the
        ``KeyError``/``TypeError`` of a missing or mistyped field.
        """
        size_bytes, assoc, line_size = data["geometry"]
        num_sets = size_bytes // (assoc * line_size)
        blob, tags = data["counts"], data["tags"]
        counts = array(_count_code(assoc))
        if not isinstance(blob, bytes) or len(blob) != num_sets * counts.itemsize:
            raise ValueError(
                f"{name}: snapshot set counts do not cover {num_sets} sets"
            )
        if not isinstance(tags, list):
            raise ValueError(f"{name}: snapshot tags are not a list")
        counts.frombytes(blob)
        if max(counts) > assoc:
            raise ValueError(f"{name}: snapshot set holds more than {assoc} lines")
        if sum(counts) != len(tags):
            raise ValueError(
                f"{name}: snapshot set counts sum to {sum(counts)}, "
                f"not the {len(tags)} tags"
            )
        sets = [_EMPTY] * num_sets
        # one set per nonzero count, each taking the next ``count`` tags
        tag_stream = iter(tags)
        occupied = zip(
            compress(range(num_sets), counts),
            map(dict.fromkeys, map(islice, repeat(tag_stream), compress(counts, counts))),
        )
        for index, cset in occupied:
            sets[index] = cset
        return {
            "version": data["version"],
            "geometry": data["geometry"],
            "sets": tuple(sets),
            "lines": len(tags),
        }

    def restore(self, data: dict) -> None:
        """Restore from a :meth:`snapshot` payload or its :meth:`shared`
        form (geometry must match).

        A snapshot is converted with :meth:`shared` first; then the cache
        adopts the sets as its base in O(sets), copy-on-write.  A
        malformed payload raises :class:`ValueError` naming this cache
        and leaves it unchanged.
        """
        try:
            self._check_header(data)
            if "sets" not in data:
                data = Cache.shared(data, self.name)
            base, lines = data["sets"], data["lines"]
            if type(base) is not tuple or len(base) != self.num_sets:
                raise ValueError(
                    f"{self.name}: shared sets do not cover {self.num_sets} sets"
                )
        except (KeyError, TypeError, AttributeError, IndexError) as exc:
            raise ValueError(
                f"malformed Cache snapshot for {self.name}: {exc!r}"
            ) from None
        self._sets = [None] * self.num_sets
        self._base = base
        self._lines = lines

    def _check_header(self, data: dict) -> None:
        """A payload's version and geometry, checked against this cache."""
        if data.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported Cache snapshot version: {data.get('version')!r}"
            )
        if list(data["geometry"]) != [self.size_bytes, self.assoc, self.line_size]:
            raise ValueError(
                f"Cache snapshot geometry {data['geometry']} does not match "
                f"{self.name} ({self.size_bytes}B {self.assoc}-way "
                f"{self.line_size}B lines)"
            )

    def __repr__(self) -> str:
        return (
            f"Cache({self.name}, {self.size_bytes // 1024}KB, "
            f"{self.assoc}-way, {self.num_sets} sets)"
        )
