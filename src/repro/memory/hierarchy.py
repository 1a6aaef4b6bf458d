"""Three-level data-cache hierarchy with miss merging and prefetching.

Latencies follow Table 1 of the paper: L1 2 cycles, L2 20, L3 50, main
memory 1000.  The hierarchy is inclusive and contents-only; an access at
time ``now`` returns the completion time, so the timestamp-based pipeline
never needs a per-cycle loop.

Outstanding misses are merged: a second access to a line already in flight
completes when the first fill arrives, mimicking MSHR behaviour.  This
matters for MTVP because a killed speculative thread's demand fetches act
as prefetches for the recovering parent — an effect the paper relies on
when discussing misprediction costs.
"""

from __future__ import annotations

import enum
import heapq
from collections.abc import Iterable

from repro.memory.cache import Cache
from repro.memory.prefetcher import StridePrefetcher


class MemLevel(enum.IntEnum):
    """Where an access was satisfied (used by stats and the miss oracle)."""

    L1 = 0
    STREAM = 1
    L2 = 2
    L3 = 3
    MEMORY = 4


class MemoryHierarchy:
    """L1/L2/L3 + memory with a stride prefetcher in front of L2.

    Args:
        l1: L1 data cache (64 KB 2-way, 2 cycles in the paper).
        l2: Unified L2 (512 KB 8-way, 20 cycles).
        l3: L3 (4 MB 16-way, 50 cycles).
        mem_latency: Main-memory latency in cycles (1000).
        prefetcher: Optional stride prefetcher; the paper's baseline always
            includes one ("all results we present use it").
    """

    def __init__(
        self,
        l1: Cache | None = None,
        l2: Cache | None = None,
        l3: Cache | None = None,
        mem_latency: int = 1000,
        prefetcher: StridePrefetcher | None = None,
        mshrs: int = 16,
    ) -> None:
        self.l1 = l1 if l1 is not None else Cache(64 * 1024, 2, latency=2, name="L1D")
        self.l2 = l2 if l2 is not None else Cache(512 * 1024, 8, latency=20, name="L2")
        self.l3 = l3 if l3 is not None else Cache(4 * 1024 * 1024, 16, latency=50, name="L3")
        self.mem_latency = mem_latency
        self.prefetcher = prefetcher
        #: maximum outstanding memory misses (miss status holding
        #: registers); when exhausted, a new miss waits for the earliest
        #: outstanding fill — the memory-level-parallelism cap any real
        #: machine has, idealized windows included
        self.mshrs = mshrs
        self._mshr_heap: list[int] = []
        #: line address -> fill completion time for in-flight misses
        self._inflight: dict[int, int] = {}
        #: next _inflight size at which a pruning sweep runs; doubles when
        #: a sweep frees little, so sweeps stay amortized O(1) per miss
        self._prune_threshold = 4096
        #: demand loads satisfied at each level, reported as
        #: ``SimStats.level_counts``
        self.level_counts: dict[MemLevel, int] = {level: 0 for level in MemLevel}

    # ------------------------------------------------------------------
    def _prune_inflight(self, now: int) -> None:
        """Drop merge records whose fills have long since landed.

        Contexts run on slightly skewed local clocks, so records are kept
        for a grace window past completion rather than dropped eagerly.
        Sweeps are amortized: each full rescan raises the size threshold
        for the next one to twice the surviving population, so even a
        pathological miss stream that keeps every record live pays O(1)
        amortized per miss instead of rescanning the whole dict every time.
        """
        inflight = self._inflight
        if len(inflight) < self._prune_threshold:
            return
        horizon = now - 4 * self.mem_latency
        for line in [ln for ln, t in inflight.items() if t < horizon]:
            del inflight[line]
        self._prune_threshold = max(4096, 2 * len(inflight))

    def load(self, addr: int, pc: int, now: int) -> tuple[int, MemLevel]:
        """Perform a demand load access at time ``now``.

        Returns ``(complete_time, level)`` — the completion time and the
        level that satisfied the access, as a plain tuple to keep the
        per-load allocation cost at zero on the engine's hot path.  Fills
        update all levels immediately (contents-only model); the returned
        time carries the latency.
        """
        level_counts = self.level_counts
        l1 = self.l1
        line = addr >> l1._line_shift
        # an access to a line whose fill is still in flight completes when
        # that fill lands, regardless of where the (already-inserted)
        # contents nominally sit — checked first because fills update
        # cache state at request time in this contents-only model
        pending = self._inflight.get(line)
        if pending is not None and pending > now:
            l1.lookup(addr)  # keep LRU state moving
            level_counts[MemLevel.L1] += 1  # a merged, L1-level wait
            return pending, MemLevel.L1
        if l1.lookup(addr):
            level_counts[MemLevel.L1] += 1
            return now + l1.latency, MemLevel.L1
        if self.prefetcher is not None:
            # stream buffers filter the miss stream: a hit consumes the
            # entry and extends the stream; only stream misses train the
            # stride table (otherwise every hit would allocate a new
            # buffer and evict the very stream that is working)
            stream_time = self.prefetcher.lookup(addr, now)
            if stream_time is not None:
                l1.insert(addr)
                level_counts[MemLevel.STREAM] += 1
                return stream_time, MemLevel.STREAM
            self.prefetcher.train(pc, addr, now)
        if self.l2.lookup(addr):
            l1.insert(addr)
            level_counts[MemLevel.L2] += 1
            return now + self.l2.latency, MemLevel.L2
        if self.l3.lookup(addr):
            l1.insert(addr)
            self.l2.insert(addr)
            level_counts[MemLevel.L3] += 1
            return now + self.l3.latency, MemLevel.L3
        # full miss to memory, subject to MSHR availability
        start = now
        heap = self._mshr_heap
        while heap and heap[0] <= start:
            heapq.heappop(heap)
        if len(heap) >= self.mshrs:
            start = heapq.heappop(heap)
        complete = start + self.mem_latency
        heapq.heappush(heap, complete)
        l1.insert(addr)
        self.l2.insert(addr)
        self.l3.insert(addr)
        self._inflight[line] = complete
        self._prune_inflight(now)
        level_counts[MemLevel.MEMORY] += 1
        return complete, MemLevel.MEMORY

    def store(self, addr: int, now: int) -> None:
        """Retire a store into the hierarchy (write-allocate, contents only).

        Store latency never stalls commit in the model — the store buffer
        handles ordering — so no completion time is returned.  Each level
        that misses is filled as it is probed: the levels are separate
        caches, so that leaves the state of probing L1 -> L3 and then
        filling L3 -> L1.
        """
        if not self.l1.fill(addr) and not self.l2.fill(addr):
            self.l3.fill(addr)

    def install(self, ranges: Iterable[range]) -> None:
        """Write-allocate every address of ``ranges`` into empty caches.

        The warm start's steady-state footprint: one
        ``range(base, end, line_size)`` per resident region.  Every level
        ends up exactly as calling :meth:`store` once per address, range
        after range, leaves it (contents and LRU order), but each
        level is built set by set with :meth:`Cache.install`.  That is
        exact because the addresses are distinct lines and the caches
        start empty: every store misses every level, so each level sees
        the whole sequence.  A :class:`ValueError` names the broken
        precondition: a level that already holds lines, a range whose
        step is not a level's line size or whose start is not
        line-aligned, or two ranges that overlap.
        """
        levels = (self.l1, self.l2, self.l3)
        for cache in levels:
            if cache.occupancy:
                raise ValueError(
                    f"install needs empty caches; {cache.name} holds "
                    f"{cache.occupancy} lines"
                )
        checked = []
        for r in ranges:
            if not isinstance(r, range):
                raise TypeError(f"install takes address ranges, got {r!r}")
            if not r:
                continue
            checked.append(r)
            for cache in levels:
                if r.step != cache.line_size:
                    raise ValueError(
                        f"{r} does not step by {cache.name}'s "
                        f"{cache.line_size}-byte lines"
                    )
                if r.start % cache.line_size:
                    raise ValueError(f"{r} does not start on a {cache.name} line")
        end = None
        for r in sorted(checked, key=lambda r: r.start):
            if end is not None and r.start < end:
                raise ValueError(f"{r} overlaps an earlier range")
            end = r[-1] + r.step
        shift = self.l1._line_shift
        runs = [range(r.start >> shift, (r.start >> shift) + len(r)) for r in checked]
        for cache in levels:
            for lines in runs:
                cache.install(lines)

    def warm_access(self, addr: int, pc: int) -> None:
        """Functional (timing-free) load used by warmup fast-forward.

        Moves contents, LRU state and the prefetcher exactly as a demand
        load would, but skips the MSHR and in-flight bookkeeping — those
        model *when* fills land, which is meaningless while no clock is
        running — and the level counts, which describe the timed run
        alone.  All component times are taken at cycle 0, so any stream
        prefetches issued during warmup appear as (deterministically)
        in-flight fills when the timed region starts.
        """
        l1 = self.l1
        if l1.lookup(addr):
            return
        if self.prefetcher is not None:
            if self.prefetcher.lookup(addr, 0) is not None:
                l1.insert(addr)
                return
            self.prefetcher.train(pc, addr, 0)
        if self.l2.lookup(addr):
            l1.insert(addr)
            return
        if self.l3.lookup(addr):
            l1.insert(addr)
            self.l2.insert(addr)
            return
        l1.insert(addr)
        self.l2.insert(addr)
        self.l3.insert(addr)

    def probe_level(self, addr: int) -> MemLevel:
        """Non-destructive check of where ``addr`` would currently hit.

        Used by the oracle ("cache-level") load selector from Section 5.1,
        which knows the cache behaviour of each load in advance.
        """
        if self.l1.probe(addr):
            return MemLevel.L1
        if self.l2.probe(addr):
            return MemLevel.L2
        if self.l3.probe(addr):
            return MemLevel.L3
        return MemLevel.MEMORY

    def snapshot(self) -> dict:
        """Serialize the caches' contents and the prefetcher's tables.

        The MSHR and in-flight fill records are timing state and the level
        counts describe a timed run; only :meth:`load` moves either, so
        neither is part of the payload.
        """
        return {
            "version": 2,
            "l1": self.l1.snapshot(),
            "l2": self.l2.snapshot(),
            "l3": self.l3.snapshot(),
            "prefetcher": (
                None if self.prefetcher is None else self.prefetcher.snapshot()
            ),
        }

    @staticmethod
    def shared(data: dict) -> dict:
        """``data``, a :meth:`snapshot` payload, with each cache's entry in
        the :meth:`Cache.shared <repro.memory.Cache.shared>` form that
        :meth:`restore` adopts in O(sets) per cache."""
        return {
            **data,
            "l1": Cache.shared(data["l1"]),
            "l2": Cache.shared(data["l2"]),
            "l3": Cache.shared(data["l3"]),
        }

    def restore(self, data: dict) -> None:
        """Restore from a :meth:`snapshot` payload or its :meth:`shared`
        form (same shape hierarchy) into a hierarchy that has not run:
        the MSHR, in-flight and level-count state stay as they are."""
        if data.get("version") != 2:
            raise ValueError(
                f"unsupported MemoryHierarchy snapshot version: "
                f"{data.get('version')!r}"
            )
        if (data["prefetcher"] is None) != (self.prefetcher is None):
            raise ValueError(
                "MemoryHierarchy snapshot prefetcher presence mismatch"
            )
        self.l1.restore(data["l1"])
        self.l2.restore(data["l2"])
        self.l3.restore(data["l3"])
        if self.prefetcher is not None:
            self.prefetcher.restore(data["prefetcher"])
