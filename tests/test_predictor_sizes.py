"""Predictor table sizes are checked when the predictor is built.

A size that is not a positive power of two, or a negative pattern depth,
raises a ``ValueError`` naming the parameter.  A size of 0 once passed the
bare ``n & (n - 1)`` test and failed later, on the first train or update,
with an ``IndexError`` or a negative shift count.
"""

import pytest

from repro.branch import TwoBcGskewPredictor
from repro.isa import InstructionBuilder
from repro.select import IlpPredSelector
from repro.vp import DfcmPredictor, LastValuePredictor, StridePredictor, WangFranklinPredictor

CASES = [
    (WangFranklinPredictor, "vht_entries", (0, 3, -4)),
    (WangFranklinPredictor, "valpht_entries", (0, 6)),
    (DfcmPredictor, "l1_entries", (0, 12)),
    (DfcmPredictor, "l2_entries", (0, 24)),
    (LastValuePredictor, "entries", (0, 5)),
    (StridePredictor, "entries", (0, 5)),
    (TwoBcGskewPredictor, "bimodal_entries", (0, 10)),
    (TwoBcGskewPredictor, "skew_entries", (0, 10)),
    (TwoBcGskewPredictor, "meta_entries", (0, 10)),
    (IlpPredSelector, "entries", (0, 10)),
]


@pytest.mark.parametrize(
    "cls, name, bad",
    CASES,
    ids=[f"{cls.__name__}-{name}" for cls, name, _ in CASES],
)
def test_rejects_a_size_that_is_not_a_positive_power_of_two(cls, name, bad):
    for size in bad:
        message = f"^{name} must be a positive power of two, got {size}$"
        with pytest.raises(ValueError, match=message):
            cls(**{name: size})
    cls(**{name: 64})


def test_rejects_a_negative_pattern_depth():
    with pytest.raises(ValueError, match="^pattern_depth must be >= 0"):
        WangFranklinPredictor(pattern_depth=-1)


def test_rejects_a_one_entry_dfcm_level_2():
    # its index would fold strides into zero bits
    with pytest.raises(ValueError, match="^l2_entries must be at least 2"):
        DfcmPredictor(l2_entries=1)


def test_smallest_tables_train():
    # one entry (two for DFCM's level 2) indexes every PC to one slot
    load = InstructionBuilder().load(dst=1, addr=0x8000, value=7, pc=0x1004)
    for predictor in (
        WangFranklinPredictor(vht_entries=1, valpht_entries=1, pattern_depth=0),
        DfcmPredictor(l1_entries=1, l2_entries=2),
        LastValuePredictor(entries=1),
        StridePredictor(entries=1),
    ):
        for _ in range(3):
            predictor.train(load, 7)
    bp = TwoBcGskewPredictor(bimodal_entries=1, skew_entries=1, meta_entries=1)
    for _ in range(3):
        bp.predict_and_update(0x1004, 0b101, True)
    assert bp.predict_and_update(0x1004, 0b101, True)
