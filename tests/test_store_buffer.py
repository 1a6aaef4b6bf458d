"""Unit tests for the tagged speculative store buffer (Section 3.3)."""

import pytest

from repro.memory import StoreBuffer


class TestCapacity:
    def test_rejects_when_full(self):
        sb = StoreBuffer(capacity=2)
        assert sb.allocate(1, 10, 0x100, 7, time=0)
        assert sb.allocate(1, 11, 0x200, 8, time=1)
        assert not sb.allocate(1, 12, 0x300, 9, time=2)
        # the refused store is not buffered
        assert len(sb) == 2
        assert sb.search(0x300, visible=(1,), trace_pos=20) is None

    def test_unlimited_never_rejects(self):
        sb = StoreBuffer(capacity=None)
        for i in range(1000):
            assert sb.allocate(1, i, 0x1000 + 8 * i, i, time=i)
        assert not sb.is_full

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            StoreBuffer(capacity=0)

    def test_non_power_of_two_granularity_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            StoreBuffer(capacity=8, granularity=6)

    def test_zero_granularity_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            StoreBuffer(capacity=8, granularity=0)

    def test_not_full_below_capacity(self):
        sb = StoreBuffer(capacity=4)
        sb.allocate(1, 0, 0x100, 1, 0)
        assert len(sb) == 1
        assert not sb.is_full


class TestVisibilitySearch:
    def test_own_store_visible(self):
        sb = StoreBuffer(capacity=8)
        sb.allocate(2, 5, 0x100, 42, 0)
        hit = sb.search(0x100, visible=(1, 2), trace_pos=9)
        assert hit is not None and hit.value == 42

    def test_ancestor_store_visible(self):
        sb = StoreBuffer(capacity=8)
        sb.allocate(1, 5, 0x100, 42, 0)
        assert sb.search(0x100, visible=(1, 3), trace_pos=9) is not None

    def test_non_ancestor_store_invisible(self):
        sb = StoreBuffer(capacity=8)
        sb.allocate(2, 5, 0x100, 42, 0)
        # thread 3 was spawned from thread 1, sibling of 2
        assert sb.search(0x100, visible=(1, 3), trace_pos=9) is None

    def test_program_order_respected(self):
        sb = StoreBuffer(capacity=8)
        sb.allocate(1, 20, 0x100, 42, 0)
        # a load earlier in the trace must not see a later store
        assert sb.search(0x100, visible=(1,), trace_pos=15) is None
        assert sb.search(0x100, visible=(1,), trace_pos=25) is not None

    def test_youngest_visible_store_wins(self):
        sb = StoreBuffer(capacity=8)
        sb.allocate(1, 5, 0x100, 1, 0)
        sb.allocate(2, 8, 0x100, 2, 0)
        hit = sb.search(0x100, visible=(1, 2), trace_pos=10)
        assert hit.value == 2

    def test_granularity(self):
        sb = StoreBuffer(capacity=8, granularity=8)
        sb.allocate(1, 5, 0x100, 42, 0)
        assert sb.search(0x104, visible=(1,), trace_pos=9) is not None
        assert sb.search(0x108, visible=(1,), trace_pos=9) is None


class TestRelease:
    def test_confirm_returns_entries_in_program_order(self):
        sb = StoreBuffer(capacity=8)
        sb.allocate(2, 9, 0x300, 3, 0)
        sb.allocate(1, 5, 0x100, 1, 0)
        sb.allocate(1, 12, 0x200, 2, 0)
        released = sb.drain_upto(2)
        assert [e.trace_pos for e in released] == [5, 9, 12]
        assert len(sb) == 0

    def test_squash_discards(self):
        sb = StoreBuffer(capacity=2)
        sb.allocate(1, 5, 0x100, 1, 0)
        sb.allocate(1, 6, 0x108, 2, 0)
        assert sb.squash_thread(1) == 2
        assert not sb.is_full
        assert sb.search(0x100, visible=(1,), trace_pos=10) is None

    def test_drain_upto_releases_old_threads_only(self):
        sb = StoreBuffer(capacity=8)
        sb.allocate(1, 5, 0x100, 1, 0)
        sb.allocate(2, 8, 0x200, 2, 0)
        sb.allocate(5, 9, 0x300, 3, 0)
        released = sb.drain_upto(2)
        assert {e.owner for e in released} == {1, 2}
        assert len(sb) == 1
        assert sb.search(0x300, visible=(5,), trace_pos=10) is not None

    def test_capacity_recovered_after_release(self):
        sb = StoreBuffer(capacity=2)
        sb.allocate(1, 5, 0x100, 1, 0)
        sb.allocate(2, 6, 0x108, 2, 0)
        assert sb.is_full
        sb.drain_upto(1)
        assert sb.allocate(3, 7, 0x110, 3, 0)

    def test_confirm_missing_thread_is_noop(self):
        sb = StoreBuffer(capacity=2)
        assert sb.drain_upto(9) == []
        assert sb.squash_thread(9) == 0


class TestStats:
    def test_forward_hit_counter(self):
        sb = StoreBuffer(capacity=8)
        sb.allocate(1, 5, 0x100, 1, 0)
        sb.search(0x100, visible=(1,), trace_pos=9)
        sb.search(0x900, visible=(1,), trace_pos=9)
        assert sb.forward_hits == 1
