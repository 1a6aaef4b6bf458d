"""Unit tests for the set-associative cache."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
        assert not c.lookup(0x1000)  # a miss does not allocate
        assert not c.lookup(0x1000)
        c.insert(0x1000)
        assert c.lookup(0x1000)
        assert c.lookup(0x1000)

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
        c.insert(2 * 64)
        # the victim is line 1, the LRU line
        assert c.probe(0)
        assert not c.probe(64)
        assert c.probe(128)
        assert c.occupancy == 2

    def test_insert_existing_line_refreshes_without_eviction(self):
        c = make_cache(size=2 * 64, assoc=2, line=64)
        c.insert(0)
        c.insert(64)
        c.insert(0)  # refresh, no eviction
        assert c.probe(0) and c.probe(64)
        assert c.occupancy == 2
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
        assert c.probe(64) and c.probe(128)


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


class TestCopyOnWrite:
    """Caches adopting one shared snapshot behave like the cache it came from.

    :meth:`Cache.shared` builds a snapshot's flat tags into a tuple of
    sets; caches that restore it read those sets until their first write
    to one, which copies it.  Whatever a run of lookups, fills, inserts
    and installs does, an adopting cache must behave
    exactly like the owning cache the snapshot was taken from, and the
    shared sets must not change.
    """

    SIZE, ASSOC = 8 * 2 * 64, 2  # 8 sets of 2 ways: frequent conflicts
    MUTATORS = ("lookup", "fill", "insert", "install")

    @staticmethod
    def contents(sets) -> list[list[int]]:
        return [list(cset) for cset in sets]

    @settings(max_examples=200, deadline=None)
    @given(
        warm=st.lists(st.integers(0, 31), max_size=40),
        ops=st.lists(
            st.tuples(st.sampled_from(MUTATORS), st.integers(0, 31)),
            max_size=60,
        ),
    )
    # one write to a shared set per mutator: line 0 is its set's LRU line,
    # and the one installed line (1000) lands in that set too
    @example(warm=[0, 8], ops=[("lookup", 0)])
    @example(warm=[0, 8], ops=[("fill", 16)])
    @example(warm=[0, 8], ops=[("insert", 0)])
    @example(warm=[0, 8], ops=[("install", 1)])
    def test_adopted_and_flat_restored_caches_stay_identical(self, warm, ops):
        source = make_cache(self.SIZE, self.ASSOC)  # never restored: the oracle
        for line in warm:
            source.fill(line * 64)
        flat = source.snapshot()
        template = Cache.shared(flat)
        before = self.contents(template["sets"])
        adopted = make_cache(self.SIZE, self.ASSOC)
        adopted.restore(template)
        restored = make_cache(self.SIZE, self.ASSOC)
        restored.restore(flat)
        caches = (adopted, restored, source)
        assert adopted.snapshot() == restored.snapshot() == flat
        fresh = 1000  # install takes lines no cache holds yet
        for op, line in ops:
            results = []
            for cache in caches:
                if op == "install":
                    cache.install(range(fresh, fresh + line))
                    results.append(None)
                else:
                    results.append(getattr(cache, op)(line * 64))
            if op == "install":
                fresh += line
            assert results[0] == results[1] == results[2], (op, line)
            assert adopted.snapshot() == restored.snapshot() == source.snapshot()
            assert adopted.occupancy == restored.occupancy == source.occupancy
            assert self.contents(template["sets"]) == before, (op, line)
        late = make_cache(self.SIZE, self.ASSOC)
        late.restore(template)
        assert late.snapshot() == flat

    def test_unoccupied_sets_share_one_empty_dict(self):
        source = make_cache()
        source.insert(0)
        sets = Cache.shared(source.snapshot())["sets"]
        assert list(sets[0]) == [0]
        assert len({id(cset) for cset in sets[1:]}) == 1 and not sets[1]

    def test_new_caches_read_one_empty_set_they_never_write(self):
        first, second = make_cache(), make_cache()
        assert first._sets == [None] * first.num_sets
        empty = first._base[0]
        assert all(cset is empty for cset in first._base + second._base)
        for op in ("lookup", "fill", "insert"):
            getattr(first, op)(64)
        first.install(range(2, 4))
        assert not empty and first.occupancy == 3
        assert not second.probe(64) and second.snapshot()["tags"] == []

    def test_shared_payload_must_cover_every_set(self):
        source = make_cache()
        source.insert(0)
        shared = Cache.shared(source.snapshot())
        with pytest.raises(ValueError, match="shared sets do not cover"):
            make_cache().restore({**shared, "sets": shared["sets"][1:]})
        with pytest.raises(ValueError, match="geometry"):
            make_cache(size=8192).restore(shared)
