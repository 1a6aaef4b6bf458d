"""Third-order differential finite context method (DFCM) predictor.

Section 5.4 of the paper evaluates "an improved third order DFCM predictor
with similar size based on Burtscher" and finds it *more aggressive* than
the Wang–Franklin hybrid — more correct predictions, but also more
incorrect ones, which hurts under threaded value prediction's misprediction
cost.  We reproduce that character:

* Level 1 (per-PC): last value plus the three most recent strides.
* Level 2 (shared): keyed by a hash of the stride history, holding the
  predicted next stride and a small confidence counter.

The hash follows Burtscher's *improved index function* idea ("An improved
index function for (D)FCM predictors", CAN 2002): instead of concatenating
truncated strides, each history element is folded over the full index width
and rotated by a per-position amount before XOR-ing, preserving entropy
from all history positions.
"""

from __future__ import annotations

from repro.isa import Instruction, OpClass
from repro.tables import power_of_two
from repro.vp.base import (
    ValuePrediction,
    ValuePredictor,
    occupied_slots,
    pack_confidences,
    slot_columns,
    unpack_confidences,
)

#: bound once: the per-load guards would otherwise read the enum member
_LOAD = OpClass.LOAD

_MASK64 = (1 << 64) - 1


def _fold(value: int, bits: int) -> int:
    """Fold a 64-bit value down to ``bits`` bits by XOR-ing segments."""
    value &= _MASK64
    mask = (1 << bits) - 1
    out = 0
    while value:
        out ^= value & mask
        value >>= bits
    return out


class _DfcmLevel1:
    """Per-PC history: the last committed value and an order-``k`` stride
    history, both set at commit."""

    __slots__ = ("pc", "last_value", "strides")

    def __init__(self, pc: int, order: int) -> None:
        self.pc = pc
        self.last_value = 0
        self.strides = [0] * order


class DfcmPredictor(ValuePredictor):
    """Order-3 DFCM with Burtscher-style hashing and confidence.

    The default confidence scheme (threshold 2, +1/−1, max 15) is
    deliberately far more permissive than Wang–Franklin's 12/+1/−8: that is
    the "more aggressive" behaviour the paper reports for this predictor —
    more correct predictions, and more incorrect ones, which is what costs
    it under threaded value prediction's kill-and-restart recovery.

    Args:
        l1_entries: Level-1 table size (per-PC histories).
        l2_entries: Level-2 table size (stride-pattern table).
        order: History depth (3 in the paper).
        threshold: Confidence needed to emit a prediction.
        bonus: Confidence increment on a correct stride match.
        penalty: Confidence decrement on a mismatch.
        max_conf: Counter saturation ceiling.
    """

    def __init__(
        self,
        l1_entries: int = 4096,
        l2_entries: int = 32 * 1024,
        order: int = 3,
        threshold: int = 2,
        bonus: int = 1,
        penalty: int = 1,
        max_conf: int = 15,
    ) -> None:
        power_of_two("l1_entries", l1_entries)
        power_of_two("l2_entries", l2_entries)
        if l2_entries < 2:
            # the index folds each stride into log2(l2_entries) bits
            raise ValueError(f"l2_entries must be at least 2, got {l2_entries!r}")
        self.order = order
        self.threshold = threshold
        self.bonus = bonus
        self.penalty = penalty
        self.max_conf = max_conf
        self._l1: list[_DfcmLevel1 | None] = [None] * l1_entries
        self._l1_mask = l1_entries - 1
        self._index_bits = l2_entries.bit_length() - 1
        # level 2: index -> [stride, confidence]
        self._l2: list[list[int] | None] = [None] * l2_entries

    # ------------------------------------------------------------------
    def _l1_entry(self, pc: int, allocate: bool) -> _DfcmLevel1 | None:
        idx = (pc >> 2) & self._l1_mask
        entry = self._l1[idx]
        if entry is None or entry.pc != pc:
            if not allocate:
                return None
            entry = _DfcmLevel1(pc, self.order)
            self._l1[idx] = entry
        return entry

    def _l2_index(self, entry: _DfcmLevel1) -> int:
        """Burtscher-style improved index: fold and rotate each stride."""
        bits = self._index_bits
        index = _fold(entry.pc >> 2, bits)
        for position, stride in enumerate(entry.strides):
            folded = _fold(stride, bits)
            rotate = (position * 5 + 3) % bits
            rotated = ((folded << rotate) | (folded >> (bits - rotate))) & ((1 << bits) - 1)
            index ^= rotated
        return index

    # ------------------------------------------------------------------
    def predict(self, inst: Instruction) -> ValuePrediction | None:
        if inst.op is not _LOAD:
            return None
        entry = self._l1_entry(inst.pc, allocate=False)
        if entry is None:
            return None
        l2 = self._l2[self._l2_index(entry)]
        if l2 is None or l2[1] < self.threshold:
            return None
        return ValuePrediction((entry.last_value + l2[0]) & _MASK64, l2[1])

    def train(self, inst: Instruction, actual: int) -> None:
        actual &= _MASK64
        entry = self._l1_entry(inst.pc, allocate=True)
        stride = (actual - entry.last_value) & _MASK64
        idx = self._l2_index(entry)
        l2 = self._l2[idx]
        if l2 is None:
            self._l2[idx] = [stride, 1]
        elif l2[0] == stride:
            l2[1] = min(l2[1] + self.bonus, self.max_conf)
        else:
            l2[1] = max(l2[1] - self.penalty, 0)
            if l2[1] == 0:
                l2[0] = stride
                l2[1] = 1
        entry.strides = entry.strides[1:] + [stride]
        entry.last_value = actual

    def _snapshot_state(self) -> dict:
        """Occupied slots only: level-1 fields as flat columns (``order``
        strides per entry, concatenated), level-2 strides as a column and
        their confidences as one blob."""
        l1, l2 = self._l1, self._l2
        l1_slots = occupied_slots(l1)
        entries = [l1[i] for i in l1_slots]
        l2_slots = occupied_slots(l2)
        return {
            "l1": {
                "slots": l1_slots,
                "pc": [e.pc for e in entries],
                "last_value": [e.last_value for e in entries],
                "strides": [s for e in entries for s in e.strides],
            },
            "l2": {
                "slots": l2_slots,
                "stride": [l2[i][0] for i in l2_slots],
                "conf": pack_confidences(
                    (l2[i][1] for i in l2_slots), self.max_conf
                ),
            },
        }

    def _restore_state(self, state: dict) -> None:
        what = "DfcmPredictor level 1"
        columns = ("pc", "last_value")
        slots, fields = slot_columns(state["l1"], columns, len(self._l1), what)
        strides, order = state["l1"]["strides"], self.order
        if not isinstance(strides, list) or len(strides) != order * len(slots):
            raise ValueError(f"{what}: stride history does not hold {order} per entry")
        l1: list[_DfcmLevel1 | None] = [None] * len(self._l1)
        for k, (slot, pc, last) in enumerate(zip(slots, *fields)):
            entry = l1[slot] = _DfcmLevel1(pc, order)
            entry.last_value = last
            entry.strides = strides[order * k:order * (k + 1)]

        what = "DfcmPredictor level 2"
        slots, (l2_strides,) = slot_columns(state["l2"], ("stride",), len(self._l2), what)
        conf = unpack_confidences(
            state["l2"]["conf"], len(slots), self.max_conf, what
        )
        l2: list[list[int] | None] = [None] * len(self._l2)
        for slot, stride, c in zip(slots, l2_strides, conf):
            l2[slot] = [stride, c]
        self._l1 = l1
        self._l2 = l2
