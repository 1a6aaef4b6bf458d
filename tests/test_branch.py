"""Unit tests for the branch predictors."""

import random

from repro.branch import (
    BimodalPredictor,
    GsharePredictor,
    TwoBcGskewPredictor,
    update_history,
)


def train_and_score(predictor, outcome_fn, n=4000, npc=4):
    hist = 0
    correct = 0
    for i in range(n):
        pc = 0x1000 + (i % npc) * 4
        taken = outcome_fn(i)
        if predictor.predict(pc, hist) == taken:
            correct += 1
        predictor.update(pc, hist, taken)
        hist = update_history(hist, taken)
    return correct / n


class TestHistory:
    def test_update_history_shifts(self):
        h = update_history(0, True)
        assert h == 1
        h = update_history(h, False)
        assert h == 2
        h = update_history(h, True)
        assert h == 5

    def test_history_bounded(self):
        h = 0
        for _ in range(100):
            h = update_history(h, True)
        assert h < (1 << 16)


class TestBimodal:
    def test_learns_strong_bias(self):
        acc = train_and_score(BimodalPredictor(), lambda i: True)
        assert acc > 0.99

    def test_learns_not_taken(self):
        acc = train_and_score(BimodalPredictor(), lambda i: False)
        assert acc > 0.99

    def test_cannot_learn_alternation_well(self):
        acc = train_and_score(BimodalPredictor(), lambda i: i % 2 == 0, npc=1)
        assert acc < 0.7


class TestGshare:
    def test_learns_alternation(self):
        acc = train_and_score(GsharePredictor(), lambda i: i % 2 == 0, npc=1)
        assert acc > 0.95

    def test_learns_short_pattern(self):
        pattern = [True, True, False, True, False, False]
        acc = train_and_score(
            GsharePredictor(), lambda i: pattern[i % len(pattern)], npc=1
        )
        assert acc > 0.95


class Test2bcgskew:
    def test_learns_loop(self):
        count = [0]

        def loop16(i):
            count[0] = (count[0] + 1) % 16
            return count[0] != 0

        acc = train_and_score(TwoBcGskewPredictor(), loop16, npc=1)
        assert acc > 0.9

    def test_learns_pattern_with_many_pcs(self):
        rng = random.Random(11)
        patterns = {pc: [rng.random() < 0.5 for _ in range(8)] for pc in range(8)}
        counters = {pc: 0 for pc in range(8)}

        def outcome(i):
            pc = i % 8
            idx = counters[pc] % 8
            counters[pc] += 1
            return patterns[pc][idx]

        acc = train_and_score(TwoBcGskewPredictor(), outcome, npc=8)
        assert acc > 0.9

    def test_biased_branches(self):
        rng = random.Random(5)
        acc = train_and_score(TwoBcGskewPredictor(), lambda i: rng.random() < 0.85)
        assert acc > 0.75

    def test_random_branches_near_chance(self):
        rng = random.Random(5)
        acc = train_and_score(TwoBcGskewPredictor(), lambda i: rng.random() < 0.5)
        assert 0.35 < acc < 0.65

    def test_beats_bimodal_on_patterns(self):
        pattern = [True, False, False, True, True, False, True, False]

        def outcome(i):
            return pattern[i % len(pattern)]

        skew = train_and_score(TwoBcGskewPredictor(), outcome, npc=1)
        bim = train_and_score(BimodalPredictor(), outcome, npc=1)
        assert skew > bim
