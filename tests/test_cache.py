"""Unit tests for the set-associative cache."""

import pytest

from repro.memory import Cache


def make_cache(size=4096, assoc=2, line=64):
    return Cache(size, assoc, line_size=line, latency=2, name="test")


class TestConstruction:
    def test_geometry(self):
        c = make_cache(size=4096, assoc=2, line=64)
        assert c.num_sets == 32

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ValueError):
            Cache(4096, 2, line_size=48)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            Cache(4096 + 64, 2, line_size=64)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            Cache(3 * 64 * 2, 2, line_size=64)

    @pytest.mark.parametrize(
        "size, assoc, line, field",
        [
            (0, 2, 64, "size_bytes must be positive"),
            (-4096, 2, 64, "size_bytes must be positive"),
            (4096, 0, 64, "assoc must be positive"),
            (4096, -2, 64, "assoc must be positive"),
            (4096, 2, 0, "line_size must be a positive power of two"),
            (4096, 2, -64, "line_size must be a positive power of two"),
            (4096, 2, 48, "line_size must be a positive power of two"),
            (4096 + 64, 2, 64, "size_bytes must be a multiple of assoc"),
            (3 * 64 * 2, 2, 64, "number of sets must be a positive power of two"),
        ],
    )
    def test_unrunnable_geometry_names_the_cache_and_field(self, size, assoc, line, field):
        # zero sets used to build and fail on the first lookup; a zero
        # associativity or line size used to divide by zero
        with pytest.raises(ValueError, match=f"^L2: {field}"):
            Cache(size, assoc, line_size=line, name="L2")


class TestLookupInsert:
    def test_cold_miss_then_hit(self):
        c = make_cache()
        assert not c.lookup(0x1000)
        c.insert(0x1000)
        assert c.lookup(0x1000)
        assert c.hits == 1
        assert c.misses == 1

    def test_same_line_different_bytes_hit(self):
        c = make_cache()
        c.insert(0x1000)
        assert c.lookup(0x1000 + 63)
        assert not c.lookup(0x1000 + 64)

    def test_lru_eviction_order(self):
        c = make_cache(size=2 * 64, assoc=2, line=64)  # one set, two ways
        c.insert(0 * 64)
        c.insert(1 * 64)
        # touch line 0 so line 1 becomes LRU
        assert c.lookup(0)
        victim = c.insert(2 * 64)
        assert victim == 1  # line-aligned address of the victim
        assert c.probe(0)
        assert not c.probe(64)
        assert c.probe(128)

    def test_insert_existing_line_refreshes_without_eviction(self):
        c = make_cache(size=2 * 64, assoc=2, line=64)
        c.insert(0)
        c.insert(64)
        assert c.insert(0) is None  # refresh, no eviction
        c.insert(128)  # evicts 64 (LRU), not 0
        assert c.probe(0)
        assert not c.probe(64)

    def test_occupancy(self):
        c = make_cache()
        assert c.occupancy == 0
        for i in range(10):
            c.insert(i * 64)
        assert c.occupancy == 10

    def test_capacity_bounded(self):
        c = make_cache(size=4096, assoc=2)
        for i in range(1000):
            c.insert(i * 64)
        assert c.occupancy <= 4096 // 64


class TestProbeInvalidate:
    def test_probe_does_not_update_stats_or_lru(self):
        c = make_cache(size=2 * 64, assoc=2, line=64)
        c.insert(0)
        c.insert(64)
        c.probe(0)  # must NOT promote line 0
        c.insert(128)  # evicts true LRU = 0
        assert not c.probe(0)
        assert c.hits == 0 and c.misses == 0

    def test_invalidate(self):
        c = make_cache()
        c.insert(0x2000)
        assert c.invalidate(0x2000)
        assert not c.probe(0x2000)
        assert not c.invalidate(0x2000)

    def test_reset_stats_keeps_contents(self):
        c = make_cache()
        c.insert(0x40)
        c.lookup(0x40)
        c.reset_stats()
        assert c.hits == 0 and c.misses == 0
        assert c.probe(0x40)


class TestConflicts:
    def test_set_conflict_behavior(self):
        c = make_cache(size=4096, assoc=2, line=64)  # 32 sets
        # three lines mapping to the same set
        stride = 32 * 64
        c.insert(0)
        c.insert(stride)
        c.insert(2 * stride)
        present = [c.probe(k * stride) for k in range(3)]
        assert present == [False, True, True]

    def test_different_sets_do_not_conflict(self):
        c = make_cache(size=4096, assoc=2, line=64)
        c.insert(0)
        c.insert(64)
        c.insert(128)
        assert all(c.probe(a) for a in (0, 64, 128))
