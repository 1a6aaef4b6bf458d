"""Last-value and stride predictors.

These are the classic Lipasti/Shen-style predictors.  They serve three
purposes in the reproduction: readable baselines for unit tests, building
blocks documented by the Wang–Franklin hybrid, and cheap predictors for
the examples.
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

#: entry fields other than the confidence (at 2 and 3, respectively)
_LAST_VALUE_FIELDS = ("pc", "value")
_STRIDE_FIELDS = ("pc", "last_value", "stride")


def _pack_table(table, fields, conf_at, max_conf) -> dict:
    """Occupied entries of a list-per-entry table as flat columns: one per
    name in ``fields`` (the entry's other positions, in order) plus the
    confidences (position ``conf_at``) as one blob."""
    slots = occupied_slots(table)
    entries = [table[i] for i in slots]
    positions = [i for i in range(len(fields) + 1) if i != conf_at]
    state = {"slots": slots, "conf": pack_confidences((e[conf_at] for e in entries), max_conf)}
    for name, i in zip(fields, positions):
        state[name] = [e[i] for e in entries]
    return state


def _unpack_table(state, fields, conf_at, entries, max_conf, what) -> list:
    """The ``entries``-slot table a :func:`_pack_table` state encodes."""
    slots, columns = slot_columns(state, fields, entries, what)
    columns.insert(conf_at, unpack_confidences(state["conf"], len(slots), max_conf, what))
    table: list[list[int] | None] = [None] * entries
    for slot, *entry in zip(slots, *columns):
        table[slot] = entry
    return table


class LastValuePredictor(ValuePredictor):
    """Predicts each static load will repeat its last committed value.

    Confidence is a saturating counter per entry, incremented on repeats
    and reset on changes; predictions are offered once it reaches
    ``threshold``.
    """

    def __init__(self, entries: int = 4096, threshold: int = 2, max_conf: int = 8) -> None:
        power_of_two("entries", entries)
        self.entries = entries
        self.threshold = threshold
        self.max_conf = max_conf
        # indexed by pc bits: [pc (the tag), last value, confidence]
        self._table: list[list[int] | None] = [None] * entries
        self._mask = entries - 1

    def _entry(self, pc: int) -> list[int] | None:
        entry = self._table[(pc >> 2) & self._mask]
        if entry is None or entry[0] != pc:
            return None
        return entry

    def predict(self, inst: Instruction) -> ValuePrediction | None:
        if inst.op is not _LOAD:
            return None
        entry = self._entry(inst.pc)
        if entry is None or entry[2] < self.threshold:
            return None
        return ValuePrediction(entry[1], entry[2])

    def train(self, inst: Instruction, actual: int) -> None:
        idx = (inst.pc >> 2) & self._mask
        entry = self._table[idx]
        if entry is None or entry[0] != inst.pc:
            self._table[idx] = [inst.pc, actual, 0]
            return
        if entry[1] == actual:
            entry[2] = min(entry[2] + 1, self.max_conf)
        else:
            entry[1] = actual
            entry[2] = 0

    def _snapshot_state(self) -> dict:
        return _pack_table(self._table, _LAST_VALUE_FIELDS, 2, self.max_conf)

    def _restore_state(self, state: dict) -> None:
        self._table = _unpack_table(
            state, _LAST_VALUE_FIELDS, 2, self.entries, self.max_conf,
            "LastValuePredictor table",
        )


class StridePredictor(ValuePredictor):
    """Predicts ``last_value + stride`` per static load.

    The stride must be observed twice in a row before the entry gains
    confidence (the standard two-delta rule).  ``last_value`` and the
    stride move at commit only.
    """

    def __init__(self, entries: int = 4096, threshold: int = 2, max_conf: int = 8) -> None:
        power_of_two("entries", entries)
        self.entries = entries
        self.threshold = threshold
        self.max_conf = max_conf
        # pc tag -> [pc, last_value, stride, confidence]
        self._table: list[list[int] | None] = [None] * entries
        self._mask = entries - 1

    def predict(self, inst: Instruction) -> ValuePrediction | None:
        if inst.op is not _LOAD:
            return None
        idx = (inst.pc >> 2) & self._mask
        entry = self._table[idx]
        if entry is None or entry[0] != inst.pc or entry[3] < self.threshold:
            return None
        return ValuePrediction((entry[1] + entry[2]) & _MASK64, entry[3])

    def train(self, inst: Instruction, actual: int) -> None:
        actual &= _MASK64
        idx = (inst.pc >> 2) & self._mask
        entry = self._table[idx]
        if entry is None or entry[0] != inst.pc:
            self._table[idx] = [inst.pc, actual, 0, 0]
            return
        stride = (actual - entry[1]) & _MASK64
        if stride == entry[2]:
            entry[3] = min(entry[3] + 1, self.max_conf)
        else:
            entry[2] = stride
            entry[3] = 0
        entry[1] = actual

    def _snapshot_state(self) -> dict:
        return _pack_table(self._table, _STRIDE_FIELDS, 3, self.max_conf)

    def _restore_state(self, state: dict) -> None:
        self._table = _unpack_table(
            state, _STRIDE_FIELDS, 3, self.entries, self.max_conf,
            "StridePredictor table",
        )
