"""Unit tests for the hybrid Wang-Franklin value predictor."""

from repro.isa import InstructionBuilder
from repro.vp import WangFranklinPredictor
from repro.vp.wang_franklin import SLOT_ONE, SLOT_STRIDE, SLOT_ZERO


def loads(values, pc=0x1000):
    ib = InstructionBuilder()
    return [ib.load(dst=1, addr=0x8000 + 8 * i, value=v, pc=pc) for i, v in enumerate(values)]


def train_seq(p, values, pc=0x1000):
    for inst in loads(values, pc):
        p.train(inst, inst.value)


class TestBasicPrediction:
    def test_cold_pc_predicts_nothing(self):
        p = WangFranklinPredictor()
        assert p.predict(loads([5])[0]) is None

    def test_constant_value_learned(self):
        p = WangFranklinPredictor()
        train_seq(p, [77] * 20)
        pred = p.predict(loads([77])[0])
        assert pred is not None and pred.value == 77

    def test_confidence_threshold_respected(self):
        p = WangFranklinPredictor(threshold=12)
        train_seq(p, [77] * 5)  # only 5 correct => confidence 5 < 12
        assert p.predict(loads([77])[0]) is None

    def test_hardwired_zero_slot(self):
        p = WangFranklinPredictor()
        train_seq(p, [0] * 20)
        pred = p.predict(loads([0])[0])
        assert pred.value == 0 and pred.slot == SLOT_ZERO

    def test_hardwired_one_slot(self):
        p = WangFranklinPredictor()
        train_seq(p, [1] * 20)
        pred = p.predict(loads([1])[0])
        assert pred.value == 1 and pred.slot == SLOT_ONE

    def test_stride_slot(self):
        p = WangFranklinPredictor()
        train_seq(p, list(range(100, 400, 10)))
        pred = p.predict(loads([400])[0])
        assert pred is not None
        assert pred.slot == SLOT_STRIDE
        assert pred.value == 400


class TestConfidenceDynamics:
    def test_penalty_is_heavier_than_bonus(self):
        p = WangFranklinPredictor(threshold=12, bonus=1, penalty=8)
        train_seq(p, [5] * 20)  # saturated-ish confidence
        assert p.predict(loads([5])[0]) is not None
        # two wrong values knock 16 off the counter
        train_seq(p, [9991, 9992])
        assert p.predict(loads([5])[0]) is None

    def test_liberal_parameterization_keeps_more_candidates(self):
        import random

        # a noisy mix of two values: the pattern index cannot cleanly
        # separate the contexts, so every ValPHT entry sees both values;
        # only a liberal penalty lets several slots stay over threshold
        rng = random.Random(13)
        noisy = [rng.choice([10, 20]) for _ in range(120)]
        strict = WangFranklinPredictor(threshold=12, penalty=8)
        liberal = WangFranklinPredictor(threshold=4, penalty=0)
        train_seq(strict, noisy)
        train_seq(liberal, noisy)
        probe = loads([10])[0]
        assert len(liberal.predict_all(probe)) > len(strict.predict_all(probe))


class TestMultiValue:
    def test_predict_all_orders_by_confidence(self):
        p = WangFranklinPredictor(threshold=1, penalty=1)
        train_seq(p, [5] * 12 + [9] * 4 + [5] * 12)
        candidates = p.predict_all(loads([5])[0])
        assert len(candidates) >= 1
        confidences = [c.confidence for c in candidates]
        assert confidences == sorted(confidences, reverse=True)

    def test_predict_all_deduplicates_values(self):
        p = WangFranklinPredictor(threshold=1, penalty=1)
        train_seq(p, [0] * 20)  # zero is learned AND hardwired
        candidates = p.predict_all(loads([0])[0])
        assert len({c.value for c in candidates}) == len(candidates)

    def test_pattern_values_all_represented(self):
        import random

        # noisy rotation keeps every value alive in several contexts
        rng = random.Random(7)
        seq = [rng.choice([11, 22, 33]) for _ in range(200)]
        p = WangFranklinPredictor(threshold=2, penalty=0)
        train_seq(p, seq)
        candidates = p.predict_all(loads([11])[0])
        values = {c.value for c in candidates}
        assert {11, 22, 33} <= values


class TestLearnedValueLru:
    def test_more_than_five_values_evicts_oldest(self):
        p = WangFranklinPredictor(threshold=1, penalty=0)
        train_seq(p, [1000, 2000, 3000, 4000, 5000, 6000])
        entry = p._vht_entry(0x1000, allocate=False)
        assert len(entry.values) == 5
        assert 1000 not in entry.values
        assert 6000 in entry.values

    def test_reuse_moves_to_mru(self):
        p = WangFranklinPredictor()
        train_seq(p, [1000, 2000, 1000])
        entry = p._vht_entry(0x1000, allocate=False)
        assert entry.values[-1] == 1000


class TestAliasing:
    def test_distinct_pcs_do_not_interfere(self):
        p = WangFranklinPredictor()
        train_seq(p, [5] * 20, pc=0x1000)
        train_seq(p, [9] * 20, pc=0x2000)
        assert p.predict(loads([5], pc=0x1000)[0]).value == 5
        assert p.predict(loads([9], pc=0x2000)[0]).value == 9
