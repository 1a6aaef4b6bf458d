"""Unit tests for last-value and stride predictors."""

import pytest

from repro.isa import InstructionBuilder
from repro.vp import LastValuePredictor, StridePredictor


def load_seq(values, pc=0x1000):
    ib = InstructionBuilder()
    return [ib.load(dst=1, addr=0x8000 + 8 * i, value=v, pc=pc) for i, v in enumerate(values)]


class TestLastValue:
    def test_no_prediction_when_cold(self):
        p = LastValuePredictor()
        inst = load_seq([42])[0]
        assert p.predict(inst) is None

    def test_predicts_after_repeats(self):
        p = LastValuePredictor(threshold=2)
        for inst in load_seq([7, 7, 7]):
            p.train(inst, inst.value)
        pred = p.predict(load_seq([7])[0])
        assert pred is not None and pred.value == 7

    def test_confidence_resets_on_change(self):
        p = LastValuePredictor(threshold=2)
        for inst in load_seq([7, 7, 7, 9]):
            p.train(inst, inst.value)
        assert p.predict(load_seq([9])[0]) is None

    def test_non_load_returns_none(self):
        ib = InstructionBuilder()
        p = LastValuePredictor()
        assert p.predict(ib.int_alu(dst=1)) is None

    def test_distinct_pcs_tracked_separately(self):
        p = LastValuePredictor(threshold=1)
        a = load_seq([5, 5], pc=0x1000)
        b = load_seq([9, 9], pc=0x2000)
        for inst in a + b:
            p.train(inst, inst.value)
        assert p.predict(a[0]).value == 5
        assert p.predict(b[0]).value == 9

    def test_rejects_bad_table_size(self):
        with pytest.raises(ValueError):
            LastValuePredictor(entries=1000)


class TestStride:
    def test_predicts_arithmetic_sequence(self):
        p = StridePredictor(threshold=2)
        seq = load_seq([10, 20, 30, 40])
        for inst in seq:
            p.train(inst, inst.value)
        pred = p.predict(load_seq([50])[0])
        assert pred is not None and pred.value == 50

    def test_two_delta_rule(self):
        p = StridePredictor(threshold=2)
        # stride observed only once: not confident yet
        for inst in load_seq([10, 20]):
            p.train(inst, inst.value)
        assert p.predict(load_seq([30])[0]) is None

    def test_stride_change_resets(self):
        p = StridePredictor(threshold=2)
        for inst in load_seq([10, 20, 30, 35]):
            p.train(inst, inst.value)
        assert p.predict(load_seq([40])[0]) is None

    def test_zero_stride_acts_as_last_value(self):
        p = StridePredictor(threshold=2)
        for inst in load_seq([7, 7, 7, 7]):
            p.train(inst, inst.value)
        assert p.predict(load_seq([7])[0]).value == 7

    def test_wraparound_arithmetic(self):
        top = (1 << 64) - 4
        mask = (1 << 64) - 1
        values = [top, (top + 2) & mask, (top + 4) & mask, (top + 6) & mask]
        p = StridePredictor(threshold=2)
        for inst in load_seq(values):
            p.train(inst, inst.value)
        pred = p.predict(load_seq([0])[0])
        assert pred.value == (top + 8) & mask
