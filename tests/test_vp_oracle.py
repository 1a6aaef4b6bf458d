"""Unit tests for the oracle predictor and the ValuePredictor base."""

from repro.isa import InstructionBuilder
from repro.vp import OraclePredictor
from repro.vp.base import ValuePrediction, ValuePredictor


class TestOracle:
    def test_always_predicts_the_actual_value(self):
        ib = InstructionBuilder()
        p = OraclePredictor()
        for v in (0, 1, 42, (1 << 64) - 1):
            inst = ib.load(dst=1, addr=0x8000, value=v)
            pred = p.predict(inst)
            assert pred is not None
            assert pred.value == v
            assert pred.confidence == OraclePredictor.MAX_CONFIDENCE

    def test_ignores_non_loads(self):
        ib = InstructionBuilder()
        p = OraclePredictor()
        assert p.predict(ib.int_alu(dst=1)) is None
        assert p.predict(ib.store(addr=0x10, srcs=(1,))) is None
        assert p.predict(ib.branch(taken=True)) is None

    def test_training_is_a_noop(self):
        ib = InstructionBuilder()
        p = OraclePredictor()
        inst = ib.load(dst=1, addr=0x8000, value=9)
        p.train(inst, 9)
        assert p.predict(inst).value == 9


class TestBaseClass:
    def test_predict_all_defaults_to_single_best(self):
        ib = InstructionBuilder()
        p = OraclePredictor()
        candidates = p.predict_all(ib.load(dst=1, addr=0x8000, value=5))
        assert [c.value for c in candidates] == [5]

    def test_predict_all_empty_when_no_prediction(self):
        class Never(ValuePredictor):
            def predict(self, inst):
                return None

            def train(self, inst, actual):
                pass

        ib = InstructionBuilder()
        assert Never().predict_all(ib.load(dst=1, addr=0x8000, value=5)) == []

    def test_value_prediction_repr(self):
        pred = ValuePrediction(42, 12, slot=3)
        assert "42" in repr(pred)
        assert "slot=3" in repr(pred)
