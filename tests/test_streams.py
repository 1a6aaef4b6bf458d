"""Unit tests for the address/value/branch stream walkers."""

import random

from repro.workloads.spec import (
    AddressPattern,
    BranchModel,
    BranchSpec,
    StreamSpec,
    ValueClass,
    ValueMix,
)
from repro.workloads.streams import (
    AddressStream,
    BranchOutcomes,
    ValueStream,
    slot_offset,
)


def make_rng():
    return random.Random(17)


class TestAddressStream:
    def test_sequential_advances_by_stride(self):
        s = AddressStream(
            StreamSpec(AddressPattern.SEQUENTIAL, 1 << 20, stride=256),
            base=1 << 32,
            rng=make_rng(),
        )
        first = s.addr(0)
        s.advance()
        assert s.addr(0) == first + 256

    def test_offsets_are_relative_to_cursor(self):
        s = AddressStream(
            StreamSpec(AddressPattern.SEQUENTIAL, 1 << 20, stride=256),
            base=1 << 32,
            rng=make_rng(),
        )
        assert s.addr(64) == s.addr(0) + 64

    def test_region_wraparound(self):
        s = AddressStream(
            StreamSpec(AddressPattern.SEQUENTIAL, 1024, stride=256),
            base=1 << 32,
            rng=make_rng(),
        )
        for _ in range(10):
            s.advance()
            addr = s.addr(0)
            assert (1 << 32) <= addr < (1 << 32) + 1024 + 64

    def test_random_pattern_gives_fresh_lines(self):
        s = AddressStream(
            StreamSpec(AddressPattern.RANDOM, 1 << 24),
            base=1 << 32,
            rng=make_rng(),
        )
        addrs = {s.addr(0) >> 6 for _ in range(50)}
        assert len(addrs) > 40  # overwhelmingly distinct lines

    def test_chase_jumps_move_the_cursor(self):
        spec = StreamSpec(AddressPattern.CHASE, 1 << 24, stride=512, jump_prob=1.0)
        s = AddressStream(spec, base=1 << 32, rng=make_rng())
        a = s.addr(0)
        s.advance()  # guaranteed jump
        b = s.addr(0)
        assert abs(b - a) != 512

    def test_chase_without_jump_is_strided(self):
        spec = StreamSpec(AddressPattern.CHASE, 1 << 24, stride=512, jump_prob=0.0)
        s = AddressStream(spec, base=1 << 32, rng=make_rng())
        a = s.addr(0)
        s.advance()
        assert s.addr(0) == a + 512

    def test_slot_offsets_fit_the_span(self):
        spec = StreamSpec(AddressPattern.CHASE, 1 << 24, stride=1088)
        rng = make_rng()
        for _ in range(50):
            off = slot_offset(spec, rng)
            assert 0 <= off < 1088
            assert off % 8 == 0


class TestValueStream:
    def test_constant(self):
        v = ValueStream(ValueMix(ValueClass.CONSTANT), make_rng())
        values = {v.next_value() for _ in range(20)}
        assert len(values) == 1

    def test_strided(self):
        v = ValueStream(ValueMix(ValueClass.STRIDED, stride=5), make_rng())
        seq = [v.next_value() for _ in range(5)]
        assert all(b - a == 5 for a, b in zip(seq, seq[1:]))

    def test_pattern_cycles(self):
        v = ValueStream(ValueMix(ValueClass.PATTERN, nvalues=3), make_rng())
        seq = [v.next_value() for _ in range(9)]
        assert seq[:3] == seq[3:6] == seq[6:9]
        assert len(set(seq)) == 3

    def test_pattern_stutter_repeats_previous(self):
        v = ValueStream(
            ValueMix(ValueClass.PATTERN, nvalues=3, break_prob=1.0), make_rng()
        )
        # with permanent stutter, the same (previous) value repeats forever
        seq = [v.next_value() for _ in range(5)]
        assert len(set(seq)) == 1

    def test_random_varies(self):
        v = ValueStream(ValueMix(ValueClass.RANDOM), make_rng())
        assert len({v.next_value() for _ in range(20)}) > 15

    def test_values_in_64bit_range(self):
        for vclass in ValueClass:
            v = ValueStream(ValueMix(vclass), make_rng())
            for _ in range(50):
                assert 0 <= v.next_value() < (1 << 64)


class TestBranchOutcomes:
    def test_loop_density(self):
        b = BranchOutcomes(BranchSpec(BranchModel.LOOP, 16), make_rng())
        outcomes = [b.next_outcome() for _ in range(160)]
        assert abs(sum(outcomes) - 150) <= 2  # taken 15/16 of the time

    def test_pattern_periodicity(self):
        b = BranchOutcomes(BranchSpec(BranchModel.PATTERN, 8), make_rng())
        seq = [b.next_outcome() for _ in range(32)]
        assert seq[:8] == seq[8:16] == seq[16:24]

    def test_biased_rate(self):
        b = BranchOutcomes(BranchSpec(BranchModel.BIASED, 0.8), make_rng())
        outcomes = [b.next_outcome() for _ in range(2000)]
        assert 0.72 < sum(outcomes) / len(outcomes) < 0.88

    def test_noise_flips_outcomes(self):
        clean = BranchOutcomes(BranchSpec(BranchModel.LOOP, 16, noise=0.0), make_rng())
        noisy = BranchOutcomes(BranchSpec(BranchModel.LOOP, 16, noise=0.5), make_rng())
        a = [clean.next_outcome() for _ in range(200)]
        b = [noisy.next_outcome() for _ in range(200)]
        assert a != b
