"""Unit tests for the cache hierarchy (latency, inclusion, MSHR merge)."""

from repro.memory import Cache, MemLevel, MemoryHierarchy


def make_hierarchy(prefetcher=None, mshrs=16):
    return MemoryHierarchy(
        l1=Cache(4 * 1024, 2, latency=2, name="L1"),
        l2=Cache(32 * 1024, 8, latency=20, name="L2"),
        l3=Cache(256 * 1024, 16, latency=50, name="L3"),
        mem_latency=1000,
        prefetcher=prefetcher,
        mshrs=mshrs,
    )


class TestLatencies:
    def test_cold_miss_costs_memory_latency(self):
        h = make_hierarchy()
        complete, level = h.load(0x10000, pc=0x100, now=5)
        assert level is MemLevel.MEMORY
        assert complete == 5 + 1000

    def test_l1_hit_after_fill(self):
        h = make_hierarchy()
        h.load(0x10000, 0x100, 0)
        complete, level = h.load(0x10000, 0x100, 2000)
        assert level is MemLevel.L1
        assert complete == 2000 + 2

    def test_l2_hit_when_l1_evicted(self):
        h = make_hierarchy()
        h.load(0x10000, 0x100, 0)
        # blow the tiny L1 with conflicting lines, keeping L2 resident
        for i in range(1, 200):
            h.load(0x10000 + i * 64, 0x100, 0)
        complete, level = h.load(0x10000, 0x100, 5000)
        assert level is MemLevel.L2
        assert complete == 5000 + 20

    def test_inclusive_fill(self):
        h = make_hierarchy()
        h.load(0x40000, 0x100, 0)
        assert h.l1.probe(0x40000)
        assert h.l2.probe(0x40000)
        assert h.l3.probe(0x40000)


class TestMissMerging:
    def test_second_access_merges_with_inflight_fill(self):
        h = make_hierarchy()
        first, _ = h.load(0x20000, 0x100, 0)
        second, _ = h.load(0x20000 + 8, 0x104, 100)
        assert second == first

    def test_after_fill_completes_it_is_a_plain_hit(self):
        h = make_hierarchy()
        h.load(0x20000, 0x100, 0)
        _, level = h.load(0x20000, 0x100, 1500)
        assert level is MemLevel.L1


class TestMshrs:
    def test_mshr_limit_serializes_excess_misses(self):
        h = make_hierarchy(mshrs=2)
        t0 = h.load(0x1000000, 0x100, 0)[0]
        t1 = h.load(0x2000000, 0x104, 0)[0]
        t2 = h.load(0x3000000, 0x108, 0)[0]
        assert t0 == 1000 and t1 == 1000
        # the third miss waits for the earliest fill to free an MSHR, and
        # a fourth for the next one
        assert t2 == 2000
        assert h.load(0x4000000, 0x10C, 0)[0] == 2000

    def test_mshrs_recycle_over_time(self):
        h = make_hierarchy(mshrs=1)
        h.load(0x1000000, 0x100, 0)
        late, _ = h.load(0x2000000, 0x104, 5000)
        # the first fill landed long ago: its MSHR is free, no wait
        assert late == 6000


class TestStores:
    def test_store_allocates_into_caches(self):
        h = make_hierarchy()
        h.store(0x50000, 0)
        _, level = h.load(0x50000, 0x100, 10)
        assert level is MemLevel.L1

    def test_store_hit_keeps_line(self):
        h = make_hierarchy()
        h.load(0x50000, 0x100, 0)
        h.store(0x50000, 10)
        assert h.l1.probe(0x50000)


class TestProbeLevel:
    def test_probe_levels(self):
        h = make_hierarchy()
        assert h.probe_level(0x60000) is MemLevel.MEMORY
        h.load(0x60000, 0x100, 0)
        assert h.probe_level(0x60000) is MemLevel.L1

    def test_probe_has_no_side_effects(self):
        h = make_hierarchy()
        h.probe_level(0x70000)
        assert set(h.level_counts.values()) == {0}
        assert not h.l3.probe(0x70000)


class TestStats:
    def test_level_counts(self):
        h = make_hierarchy()
        h.load(0x80000, 0x100, 0)
        h.load(0x80000, 0x100, 2000)
        assert h.level_counts[MemLevel.MEMORY] == 1
        assert h.level_counts[MemLevel.L1] == 1
        assert sum(h.level_counts.values()) == 2
