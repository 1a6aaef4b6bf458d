"""Unit tests for the order-3 DFCM predictor."""

from repro.isa import InstructionBuilder
from repro.vp import DfcmPredictor, WangFranklinPredictor


def loads(values, pc=0x1000):
    ib = InstructionBuilder()
    return [ib.load(dst=1, addr=0x8000 + 8 * i, value=v, pc=pc) for i, v in enumerate(values)]


def train_seq(p, values, pc=0x1000):
    for inst in loads(values, pc):
        p.train(inst, inst.value)


def score(p, values, pc=0x1000):
    """Train on a prefix then score predictions over the suffix."""
    correct = attempts = 0
    for inst in loads(values, pc):
        pred = p.predict(inst)
        if pred is not None:
            attempts += 1
            correct += pred.value == inst.value
        p.train(inst, inst.value)
    return attempts, correct


class TestStridePatterns:
    def test_constant_sequence(self):
        p = DfcmPredictor()
        train_seq(p, [42] * 20)
        assert p.predict(loads([42])[0]).value == 42

    def test_simple_stride(self):
        p = DfcmPredictor()
        train_seq(p, list(range(0, 300, 10)))
        assert p.predict(loads([300])[0]).value == 300

    def test_repeating_stride_pattern(self):
        # strides alternate +1, +9: a 2nd-order context a stride predictor
        # cannot learn but DFCM-3 can
        values = [0]
        for i in range(60):
            values.append(values[-1] + (1 if i % 2 == 0 else 9))
        p = DfcmPredictor()
        attempts, correct = score(p, values)
        assert attempts > 10
        assert correct / attempts > 0.8

    def test_cold_predicts_nothing(self):
        p = DfcmPredictor()
        assert p.predict(loads([5])[0]) is None


class TestAggressiveness:
    def test_dfcm_more_aggressive_than_wf(self):
        """Section 5.4: DFCM makes more predictions (and more mistakes)."""
        import random

        rng = random.Random(9)
        # half-predictable stream: strided with frequent random breaks
        values = []
        v = 0
        for _ in range(400):
            if rng.random() < 0.25:
                v = rng.randrange(1 << 30)
            else:
                v += 8
            values.append(v)
        dfcm_attempts, dfcm_correct = score(DfcmPredictor(), values)
        wf_attempts, wf_correct = score(WangFranklinPredictor(), values)
        assert dfcm_attempts > wf_attempts
        dfcm_wrong = dfcm_attempts - dfcm_correct
        wf_wrong = wf_attempts - wf_correct
        assert dfcm_wrong >= wf_wrong


class TestConfidence:
    def test_threshold_blocks_unconfident(self):
        p = DfcmPredictor(threshold=4)
        train_seq(p, [0, 10, 20])  # too few confirmations
        assert p.predict(loads([30])[0]) is None

    def test_level2_replacement_when_confidence_drains(self):
        p = DfcmPredictor(threshold=2, penalty=2)
        train_seq(p, list(range(0, 100, 10)))
        # break the stride pattern repeatedly: old stride must be replaced
        train_seq(p, [1000, 1003, 1006, 1009, 1012, 1015, 1018])
        pred = p.predict(loads([1021])[0])
        assert pred is not None and pred.value == 1021


class TestIndexFunction:
    def test_fold_covers_full_width(self):
        from repro.vp.dfcm import _fold

        assert _fold(0, 10) == 0
        assert _fold(1 << 40, 10) != 0
        assert 0 <= _fold((1 << 64) - 1, 10) < (1 << 10)

    def test_distinct_histories_rarely_collide(self):
        p = DfcmPredictor()
        seen = set()
        entry = p._l1_entry(0x1000, allocate=True)
        for a in range(8):
            for b in range(8):
                entry.strides = [a * 8, b * 8, 16]
                seen.add(p._l2_index(entry))
        assert len(seen) > 48  # 64 histories, mostly distinct indices
