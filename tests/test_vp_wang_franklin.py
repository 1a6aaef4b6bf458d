"""Unit tests for the hybrid Wang-Franklin value predictor."""

import random

import pytest

from repro.isa import Instruction, InstructionBuilder, OpClass
from repro.vp import WangFranklinPredictor
from repro.vp.wang_franklin import SLOT_ONE, SLOT_STRIDE, SLOT_ZERO


def loads(values, pc=0x1000):
    ib = InstructionBuilder()
    return [ib.load(dst=1, addr=0x8000 + 8 * i, value=v, pc=pc) for i, v in enumerate(values)]


def vht_entry(p, pc):
    entry = p._vht[(pc >> 2) & p._vht_mask]
    return entry if entry is not None and entry.pc == pc else None


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
        entry = vht_entry(p, 0x1000)
        assert len(entry.values) == 5
        assert 1000 not in entry.values
        assert 6000 in entry.values

    def test_reuse_moves_to_mru(self):
        p = WangFranklinPredictor()
        train_seq(p, [1000, 2000, 1000])
        entry = vht_entry(p, 0x1000)
        assert entry.values[-1] == 1000


class TestAliasing:
    def test_distinct_pcs_do_not_interfere(self):
        p = WangFranklinPredictor()
        train_seq(p, [5] * 20, pc=0x1000)
        train_seq(p, [9] * 20, pc=0x2000)
        assert p.predict(loads([5], pc=0x1000)[0]).value == 5
        assert p.predict(loads([9], pc=0x2000)[0]).value == 9


# ----------------------------------------------------------------------
# the acting-prediction record: predict() then train() of the same load
# must leave exactly the tables of a train() that walks them itself
# ----------------------------------------------------------------------

#: a non-load: predicting it returns None and drops any recorded load,
#: so the next train() walks the tables itself
NON_LOAD = InstructionBuilder().nop(pc=0x40)

#: predictor shapes: tiny tables (every PC aliases in the ValPHT, two in
#: the VHT), the paper's tables, a liberal variant that predicts often and
#: one whose threshold makes an all-zero vector confident
SHAPES = {
    "tiny": dict(vht_entries=8, valpht_entries=16),
    "paper": {},
    "liberal": dict(threshold=2, penalty=1),
    "zero-threshold": dict(vht_entries=8, valpht_entries=16, threshold=0),
}

#: six load PCs: 0x1000 and 0x1020 share a slot of an 8-entry VHT, and
#: 0x1004 and 0x5004 share one of the paper's 4K-entry VHT
PCS = (0x1000, 0x1020, 0x1004, 0x5004, 0x1008, 0x100C)


def _value_streams(rng):
    """One value generator per PC: constant, strided (downwards through
    zero), a repeating pattern, 0/1 noise, random and a mostly-constant
    stream."""
    def constant():
        while True:
            yield 77

    def strided():
        v = 40
        while True:
            yield v
            v -= 8

    def pattern():
        while True:
            yield from (11, 22, 33, 22)

    def zero_one():
        while True:
            yield rng.choice((0, 1))

    def noise():
        while True:
            yield rng.getrandbits(rng.choice((4, 64)))

    def mostly():
        while True:
            yield 5 if rng.random() < 0.85 else rng.choice((6, 0))

    return dict(zip(PCS, (constant(), strided(), pattern(), zero_one(), noise(), mostly())))


def load_stream(seed, n):
    """``n`` fresh load instructions over :data:`PCS`; about 1 in 20 has
    no value (a load that predicts but never trains)."""
    rng = random.Random(seed)
    streams = _value_streams(rng)
    out = []
    for i in range(n):
        pc = rng.choice(PCS)
        value = next(streams[pc])
        if rng.random() < 0.05:
            value = None
        out.append(Instruction(pc, OpClass.LOAD, (), 1, 0x8000 + 8 * i, value))
    return out


def outcome(prediction):
    if prediction is None:
        return None
    return prediction.value, prediction.confidence, prediction.slot


def commit(p, inst, forced):
    """Train ``inst`` with its value; ``forced`` drops the record first."""
    if inst.value is None:
        return
    if forced:
        p.predict(NON_LOAD)
    p.train(inst, inst.value)


class TestActingRecord:
    """Predictor A runs the given call order; twin B runs the same calls
    but predicts a non-load before each train, so every B train walks the
    tables.  Both must predict alike and end with equal tables."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_kernel_order_matches_forced_walks(self, shape, seed):
        a = WangFranklinPredictor(**SHAPES[shape])
        b = WangFranklinPredictor(**SHAPES[shape])
        rng = random.Random(seed)
        predicted = 0
        for k, inst in enumerate(load_stream(seed, 3000)):
            got = outcome(a.predict(inst))
            assert got == outcome(b.predict(inst)), (k, inst.pc)
            predicted += got is not None
            if rng.random() < 0.2:
                # the Figure 5 probe between a load's predict and train
                assert [outcome(c) for c in a.predict_all(inst)] == [
                    outcome(c) for c in b.predict_all(inst)
                ]
            commit(a, inst, forced=False)
            commit(b, inst, forced=True)
            if k % 500 == 0:
                assert a._snapshot_state() == b._snapshot_state(), k
        assert a._snapshot_state() == b._snapshot_state()
        assert predicted > 100

    @pytest.mark.parametrize(
        "order",
        ["predict-predict-train", "predict-train-train", "predict-train_many-train",
         "predict-restore-train"],
    )
    @pytest.mark.parametrize("shape", ["tiny", "liberal"])
    def test_other_orders_match_forced_walks(self, shape, order):
        a = WangFranklinPredictor(**SHAPES[shape])
        b = WangFranklinPredictor(**SHAPES[shape])
        stream = load_stream(11, 4000)
        for inst in stream[:600]:
            for p, forced in ((a, False), (b, True)):
                p.predict(inst)
                commit(p, inst, forced)
        saved = a.snapshot()
        rest = stream[600:]
        rng = random.Random(5)
        for k in range(0, len(rest) - 3, 3):
            first, second, third = rest[k:k + 3]
            if rng.random() < 0.5:
                # the intervening load is another instance of the same PC
                second = Instruction(
                    first.pc, OpClass.LOAD, (), 1, second.addr, second.value
                )
            for p, forced in ((a, False), (b, True)):
                got = [outcome(p.predict(first))]
                if order == "predict-predict-train":
                    got.append(outcome(p.predict(second)))
                elif order == "predict-train-train":
                    commit(p, second, forced)
                elif order == "predict-train_many-train":
                    p.train_many(
                        [i for i in (second, third) if i.value is not None], 2
                    )
                else:
                    p.restore(saved)
                commit(p, first, forced)
                if p is a:
                    expected = got
                else:
                    assert got == expected, (k, order)
            if order == "predict-restore-train" and k % 30 == 0:
                saved = a.snapshot()
            if k % 300 == 0:
                assert a._snapshot_state() == b._snapshot_state(), k
        assert a._snapshot_state() == b._snapshot_state()
