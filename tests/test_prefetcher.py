"""Unit tests for the stride prefetcher and stream buffers."""

import pytest

from repro.memory import MemLevel, MemoryHierarchy, StridePrefetcher


def make_pf(**kw):
    defaults = dict(depth=8, fill_latency=100, hit_latency=4)
    defaults.update(kw)
    return StridePrefetcher(**defaults)


class TestDenseDetection:
    def test_sequential_walk_gets_covered(self):
        pf = make_pf()
        base = 1 << 30
        # three sequential misses confirm; later lines should be buffered
        for i in range(3):
            assert pf.lookup(base + i * 64, now=i * 10) is None
            pf.train(0x100, base + i * 64, now=i * 10)
        assert pf.active_streams == 1
        hit = pf.lookup(base + 3 * 64, now=1000)
        assert hit is not None

    def test_hit_consumes_and_extends(self):
        pf = make_pf(depth=4)
        base = 1 << 30
        for i in range(3):
            pf.train(0x100, base + i * 64, now=0)
        sb = pf._streams[0]
        frontier_before = sb.next_line
        assert pf.lookup(base + 3 * 64, now=50) is not None
        assert pf.lookup(base + 3 * 64, now=60) is None  # consumed
        assert sb.next_line > frontier_before or len(sb.entries) == 4

    def test_fill_latency_respected(self):
        pf = make_pf(fill_latency=500)
        base = 1 << 30
        for i in range(3):
            pf.train(0x100, base + i * 64, now=0)
        # the line was prefetched at now=0, so an early demand waits
        t = pf.lookup(base + 3 * 64, now=10)
        assert t == 500

    def test_late_demand_pays_only_hit_latency(self):
        pf = make_pf(fill_latency=100, hit_latency=4)
        base = 1 << 30
        for i in range(3):
            pf.train(0x100, base + i * 64, now=0)
        t = pf.lookup(base + 3 * 64, now=1000)
        assert t == 1004


class TestRandomIsNotPrefetched:
    def test_random_misses_do_not_allocate(self):
        import random

        pf = make_pf()
        rng = random.Random(3)
        base = 1 << 30
        for i in range(100):
            pf.train(0x100 + (i % 8) * 4, base + rng.randrange(0, 1 << 24, 64), now=i)
        assert pf.active_streams == 0


class TestRegionIsolation:
    def test_interleaved_streams_in_distinct_regions_both_covered(self):
        pf = make_pf()
        a, b = 1 << 30, 1 << 34
        for i in range(4):
            pf.train(0x100, a + i * 64, now=i)
            pf.train(0x200, b + i * 64, now=i)
        assert pf.active_streams == 2
        assert pf.lookup(a + 4 * 64, now=1000) is not None
        assert pf.lookup(b + 4 * 64, now=1000) is not None


class TestMistraining:
    def test_mistrain_counter(self):
        pf = make_pf()
        base = 1 << 30
        # establish a confirmed per-PC stride
        for i in range(4):
            pf.train(0x500, base + i * 4096 * 16, now=i)
        before = pf.mistrains
        # now break it
        pf.train(0x500, base + 3, now=10)
        assert pf.mistrains == before + 1


class TestSparsePcStreams:
    def test_large_consistent_pc_stride_allocates(self):
        pf = make_pf(depth=4)
        base = 1 << 30
        stride = 64 * 64  # 64 lines >> 4 * depth
        for i in range(5):
            pf.train(0x900, base + i * stride, now=i)
        assert pf.active_streams >= 1
        assert pf.lookup(base + 5 * stride, now=1000) is not None


class TestPoolManagement:
    def test_buffer_pool_bounded(self):
        pf = make_pf(num_streams=2)
        for k in range(6):
            region = 1 << (30 + k)
            for i in range(4):
                pf.train(0x100 + k * 4, region + i * 64, now=k * 100 + i)
        assert pf.active_streams <= 2

    def test_stale_entries_age_out(self):
        pf = make_pf(depth=4)
        base = 1 << 30
        for i in range(3):
            pf.train(0x100, base + i * 64, now=0)
        sb = pf._streams[0]
        # consume far ahead repeatedly; old entries must not pin capacity
        for j in range(3, 40):
            pf.lookup(base + j * 64, now=j * 10)
        horizon = sb.next_line - 2 * pf.depth
        assert all(line >= horizon for line in sb.entries)


class TestDescendingStreams:
    """Regression tests for negative-stride (descending walk) streams."""

    def test_descending_pc_stride_allocates_and_hits(self):
        pf = make_pf(depth=4)
        base = 1 << 30
        stride = -64 * 64  # 64 lines per step, well past the sparse gate
        for i in range(5):
            pf.train(0x900, base + i * stride, now=i)
        assert pf.active_streams >= 1
        # the buffer must run *down* the walk, ahead of the next demand
        assert pf.lookup(base + 5 * stride, now=1000) is not None
        assert pf.lookup(base + 6 * stride, now=1000) is not None

    def test_covered_sees_descending_frontier(self):
        pf = make_pf(depth=4)
        pf._allocate(0x1, -2, start_line=1000, now=0)
        sb = pf._streams[0]
        assert sb.next_line == 1000 - 2 * pf.depth
        # lines the stream is about to prefetch count as covered, exactly
        # as they do for an ascending stream
        assert pf._covered(sb.next_line - 1)
        assert pf._covered(sb.next_line - 3)
        assert not pf._covered(sb.next_line - 4)

    def test_no_duplicate_buffer_for_covered_descending_walk(self):
        pf = make_pf(depth=4)
        pf._allocate(0x1, -64, 1 << 24, now=0)
        sb = pf._streams[0]
        # a second PC walks the same descending path; its successor line
        # lands one stride ahead of the stream frontier, so the cover
        # filter must suppress the duplicate allocation that would
        # otherwise thrash the 8-entry pool
        final_line = sb.next_line
        addr = final_line << pf._line_shift
        step = -64 << pf._line_shift
        for i in range(3, -1, -1):
            pf.train(0x904, addr - i * step, now=10)
        # no second buffer, and the first one is not redirected either
        assert pf.active_streams == 1
        assert pf._streams[0] is sb and sb.tag == 0x1

    def test_descending_aging_evicts_stale_lines_not_fresh_ones(self):
        pf = make_pf(depth=4)
        base_line = 1 << 24
        pf._allocate(0x3, -1, base_line, now=0)
        sb = pf._streams[0]
        fresh = sorted(sb.entries)
        # a walk that skipped lines leaves them far *above* the descending
        # head; with the buffer at capacity, _extend must age those out —
        # not the freshly prefetched lines ahead of (below) the stream
        stale = [base_line + 100, base_line + 200]
        for line in stale:
            sb.entries[line] = 0
        pf._extend(sb, now=10)
        assert all(line not in sb.entries for line in stale)
        assert sorted(sb.entries) == fresh


class TestValidation:
    def test_non_power_of_two_line_size_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            StridePrefetcher(line_size=48)

    def test_zero_line_size_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            StridePrefetcher(line_size=0)


class TestHierarchyIntegration:
    def test_stream_hits_counted_at_stream_level(self):
        pf = make_pf()
        h = MemoryHierarchy(prefetcher=pf, mem_latency=1000)
        base = 1 << 30
        for i in range(10):
            h.load(base + i * 64, 0x100, now=i * 200)
        assert h.level_counts[MemLevel.STREAM] > 0
        assert pf.stream_hits == h.level_counts[MemLevel.STREAM]
