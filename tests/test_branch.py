"""Unit tests for the 2bcgskew branch predictor."""

import random

import pytest

from repro import simulate
from repro.branch import TwoBcGskewPredictor, update_history
from repro.core import MachineConfig
from repro.obs import MetricsRegistry
from repro.vp import WangFranklinPredictor


def train_and_score(predictor, outcome_fn, n=4000, npc=4):
    hist = 0
    correct = 0
    for i in range(n):
        pc = 0x1000 + (i % npc) * 4
        taken = outcome_fn(i)
        if predictor.predict_and_update(pc, hist, taken) == taken:
            correct += 1
        hist = update_history(hist, taken)
    return correct / n


def bimodal_bank_score(predictor, outcome_fn, n=4000, pc=0x1000):
    """Score the vote of ``predictor``'s bimodal bank alone (indexed by the
    PC, blind to history) while the whole predictor trains."""
    hist = 0
    correct = 0
    for i in range(n):
        taken = outcome_fn(i)
        bim = predictor._bim
        if (bim[(pc >> 2) & (len(bim) - 1)] >= 2) == taken:
            correct += 1
        predictor.predict_and_update(pc, hist, taken)
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
    def test_cannot_learn_alternation_well(self):
        # the history-indexed skew banks, not the bimodal bank, carry the
        # alternation that Test2bcgskew.test_learns_alternation learns
        acc = bimodal_bank_score(TwoBcGskewPredictor(), lambda i: i % 2 == 0)
        assert acc < 0.7


class Test2bcgskew:
    def test_learns_strong_bias(self):
        acc = train_and_score(TwoBcGskewPredictor(), lambda i: True)
        assert acc > 0.99

    def test_learns_not_taken(self):
        acc = train_and_score(TwoBcGskewPredictor(), lambda i: False)
        assert acc > 0.99

    def test_learns_alternation(self):
        acc = train_and_score(TwoBcGskewPredictor(), lambda i: i % 2 == 0, npc=1)
        assert acc > 0.95

    @pytest.mark.parametrize(
        "pattern",
        [
            [True, True, False, True, False, False],
            [True, False, False, True, True, False, True, False],
        ],
        ids=["6", "8"],
    )
    def test_learns_short_pattern(self, pattern):
        acc = train_and_score(
            TwoBcGskewPredictor(), lambda i: pattern[i % len(pattern)], npc=1
        )
        assert acc > 0.95

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


@pytest.mark.parametrize("workload", ["gcc 1", "mcf"])
def test_warm_training_never_reports(workload):
    # the warm start (train_many) and the fast-forward (update) train the
    # tables unobserved: the probe counts exactly the timed mispredictions
    stats = simulate(
        workload, MachineConfig.mtvp(8), predictor=WangFranklinPredictor(),
        length=3000, warmup=1000, metrics=MetricsRegistry(),
    )
    assert stats.branch_mispredicts > 0
    counters = stats.extended["metrics"]["counters"]
    assert counters["branch_mispredicts_observed"] == stats.branch_mispredicts
