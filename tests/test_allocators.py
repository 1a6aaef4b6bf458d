"""Unit tests for the cycle-slot bandwidth allocators."""

import pytest

from repro.core import PortedIssue, SlotAllocator


class TestSlotAllocator:
    def test_capacity_per_cycle(self):
        a = SlotAllocator(2)
        assert a.acquire(10) == 10
        assert a.acquire(10) == 10
        assert a.acquire(10) == 11

    def test_past_cycles_keep_capacity(self):
        a = SlotAllocator(1)
        a.acquire(100)
        assert a.acquire(50) == 50

    def test_peek_does_not_book(self):
        a = SlotAllocator(1)
        assert a.peek(5) == 5
        assert a.peek(5) == 5
        a.acquire(5)
        assert a.peek(5) == 6

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SlotAllocator(0)

    def test_booked_at(self):
        a = SlotAllocator(4)
        a.acquire(7)
        a.acquire(7)
        assert a.booked_at(7) == 2
        assert a.booked_at(8) == 0

    def test_counter(self):
        a = SlotAllocator(4)
        for _ in range(5):
            a.acquire(0)
        assert a.acquired == 5

    def test_pruning_keeps_recent_state(self):
        a = SlotAllocator(1)
        for t in range(0, 70000):
            a.acquire(t)
        # old cycles may be pruned, but recent bookings must hold
        assert a.acquire(69999) == 70000


class TestPortedIssue:
    def test_class_limit(self):
        p = PortedIssue(total=8, int_ports=2, fp_ports=2, mem_ports=2)
        assert p.acquire("int", 5) == 5
        assert p.acquire("int", 5) == 5
        assert p.acquire("int", 5) == 6

    def test_global_limit_binds_across_classes(self):
        p = PortedIssue(total=3, int_ports=2, fp_ports=2, mem_ports=2)
        times = [p.acquire(c, 0) for c in ("int", "int", "fp", "fp")]
        # only three issues fit in cycle 0
        assert sorted(times) == [0, 0, 0, 1]

    def test_paper_configuration(self):
        p = PortedIssue(total=8, int_ports=6, fp_ports=2, mem_ports=4)
        cycle0 = [p.acquire("int", 0) for _ in range(6)]
        assert cycle0 == [0] * 6
        assert p.acquire("mem", 0) == 0
        assert p.acquire("mem", 0) == 0
        # total of 8 used: anything else moves to cycle 1
        assert p.acquire("fp", 0) == 1

    def test_issued_counter(self):
        p = PortedIssue()
        p.acquire("int", 0)
        p.acquire("mem", 0)
        assert p.issued == 2

    def test_classes_do_not_starve_each_other_across_cycles(self):
        p = PortedIssue(total=8, int_ports=6, fp_ports=2, mem_ports=4)
        for _ in range(12):
            p.acquire("int", 0)
        assert p.acquire("fp", 0) in (0, 1, 2)


class TestAllocatorSnapshots:
    def test_slot_allocator_roundtrip(self):
        a = SlotAllocator(2)
        for t in (3, 3, 3, 9):
            a.acquire(t)
        b = SlotAllocator(2)
        b.restore(a.snapshot())
        assert b.snapshot() == a.snapshot()
        assert b.acquire(3) == 4

    def test_version_1_payload_is_refused(self):
        payload = SlotAllocator(2).snapshot()
        payload["version"] = 1
        payload["min_interesting"] = 0
        with pytest.raises(ValueError, match="version: 1 .*version 2"):
            SlotAllocator(2).restore(payload)

    def test_ported_issue_refuses_a_stale_class_payload(self):
        payload = PortedIssue().snapshot()
        payload["classes"]["fp"]["version"] = 1
        with pytest.raises(ValueError, match="SlotAllocator snapshot version"):
            PortedIssue().restore(payload)
