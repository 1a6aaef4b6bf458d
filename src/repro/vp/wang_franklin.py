"""Hybrid Wang–Franklin value predictor (Section 5.4 of the paper).

Structure, per the paper:

* **VHT** (value history table), 4K entries indexed by PC.  Each entry holds
  "the most recent values created by that PC" (five learned values here), a
  last-value and stride for the stride component, and "a pattern history
  (similar to a branch history) which is used to index the next table".
* **ValPHT** (value pattern history table), 32K entries, holding "the
  confidence level for the values in the VHT".

The predictor offers eight candidate *slots* per load: five learned values,
a hardwired zero, a hardwired one, and ``last + stride``.  Confidence is a
saturating counter per slot in the ValPHT entry selected by (PC, pattern):
"+1 on correct predictions ... −8 on incorrect predictions with a threshold
of 12 and a maximum counter value of 32".

The penalty of 8 makes it hard for more than one slot to be over threshold
at once — exactly the property Section 5.6 calls out when motivating a more
*liberal* parameterization for multiple-value prediction.  Pass a smaller
``penalty`` / ``threshold`` to build that liberal variant.
"""

from __future__ import annotations

from itertools import chain

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

#: Slot layout within a ValPHT confidence vector.
NUM_LEARNED = 5
SLOT_ZERO = 5
SLOT_ONE = 6
SLOT_STRIDE = 7
NUM_SLOTS = 8
#: occupied slots, in slot order, of an entry holding ``n`` learned values
_LIVE_SLOTS = tuple(
    tuple(range(n)) + (SLOT_ZERO, SLOT_ONE, SLOT_STRIDE)
    for n in range(NUM_LEARNED + 1)
)
#: one training's confidence event, ``_EVENTS[n][mask]``: the live slots of
#: an entry with ``n`` learned values and the slots set in ``mask`` (those
#: whose candidate equals the committed value), shared so a replay
#: records a load without building a tuple
_EVENTS = tuple(
    tuple(
        (live, tuple(slot for slot in range(NUM_SLOTS) if mask >> slot & 1))
        for mask in range(1 << NUM_SLOTS)
    )
    for live in _LIVE_SLOTS
)


class _VhtEntry:
    """One value-history-table entry.

    ``last_value`` and ``stride`` are the stride component: the last
    committed value and the difference between the last two, both set at
    commit.
    """

    __slots__ = ("pc", "values", "last_value", "stride", "pattern")

    def __init__(self, pc: int) -> None:
        self.pc = pc
        #: learned values, most recently used last
        self.values: list[int] = []
        self.last_value = 0
        self.stride = 0
        #: shift register of recent matching slot indices (4 bits each)
        self.pattern = 0


def _slot_value(entry: _VhtEntry, slot: int) -> int:
    """The candidate value of one of ``entry``'s live slots."""
    if slot < NUM_LEARNED:
        return entry.values[slot]
    if slot == SLOT_STRIDE:
        return (entry.last_value + entry.stride) & _MASK64
    return slot - SLOT_ZERO


class WangFranklinPredictor(ValuePredictor):
    """Hybrid multi-source value predictor with pattern-indexed confidence.

    Args:
        vht_entries: Value history table size (4K in the paper).
        valpht_entries: Pattern/confidence table size (32K in the paper).
        threshold: Confidence needed before a slot's value is predicted (12).
        bonus: Confidence increment on a correct slot (1).
        penalty: Confidence decrement on an incorrect slot (8).
        max_conf: Saturation ceiling (32).
        pattern_depth: How many recent slot outcomes form the pattern (2).
    """

    def __init__(
        self,
        vht_entries: int = 4096,
        valpht_entries: int = 32 * 1024,
        threshold: int = 12,
        bonus: int = 1,
        penalty: int = 8,
        max_conf: int = 32,
        pattern_depth: int = 2,
    ) -> None:
        power_of_two("vht_entries", vht_entries)
        power_of_two("valpht_entries", valpht_entries)
        if pattern_depth < 0:
            raise ValueError(f"pattern_depth must be >= 0, got {pattern_depth!r}")
        self.threshold = threshold
        self.bonus = bonus
        self.penalty = penalty
        self.max_conf = max_conf
        self.pattern_depth = pattern_depth
        # 4 bits per outcome: slot indices 0-7 plus the distinct "no match"
        # code 8, so a miss is distinguishable from a stride-slot hit
        self._pattern_mask = (1 << (4 * pattern_depth)) - 1
        self._vht: list[_VhtEntry | None] = [None] * vht_entries
        self._vht_mask = vht_entries - 1
        self._valpht: list[list[int] | None] = [None] * valpht_entries
        self._valpht_mask = valpht_entries - 1
        #: the last predicted load's :meth:`_walk`, until a train
        self._acting: tuple | None = None

    # ------------------------------------------------------------------
    def _walk(self, inst: Instruction, allocate: bool) -> tuple | None:
        """The table walk for one load: ``(inst, entry, conf, slot, value)``.

        ``entry`` is the load's VHT entry, ``conf`` the ValPHT vector its
        pattern selects (allocated zeroed when empty) and ``slot`` the
        acting prediction: the live slot of highest confidence over
        threshold, the lowest such slot on ties, or -1 when there is none.
        ``value`` is that slot's candidate (None for -1).  A PC with no
        VHT entry gets a new one when ``allocate``, and returns None
        otherwise.  The tuple is also the acting-prediction record that
        :meth:`predict` leaves for :meth:`train`.
        """
        pc = inst.pc
        idx = (pc >> 2) & self._vht_mask
        entry = self._vht[idx]
        if entry is None or entry.pc != pc:
            if not allocate:
                return None
            entry = self._vht[idx] = _VhtEntry(pc)
        cidx = ((pc >> 2) ^ (entry.pattern * 0x65D)) & self._valpht_mask
        conf = self._valpht[cidx]
        if conf is None:
            conf = self._valpht[cidx] = [0] * NUM_SLOTS
        best = self.threshold - 1
        slot = -1
        for live in _LIVE_SLOTS[len(entry.values)]:
            if conf[live] > best:
                best = conf[live]
                slot = live
        if slot < 0:
            return inst, entry, conf, -1, None
        return inst, entry, conf, slot, _slot_value(entry, slot)

    # ------------------------------------------------------------------
    def predict(self, inst: Instruction) -> ValuePrediction | None:
        """The acting prediction of a load, when it is over threshold.

        The walk is kept as the load's acting-prediction record, which a
        :meth:`train` of the same instruction object settles without
        walking the tables again.  Predicting anything else (a non-load
        included) replaces the record.
        """
        if inst.op is not _LOAD:
            self._acting = None
            return None
        act = self._acting = self._walk(inst, False)
        if act is None or act[3] < 0:
            return None
        _, _, conf, slot, value = act
        return ValuePrediction(value, conf[slot], slot)

    def predict_all(self, inst: Instruction) -> list[ValuePrediction]:
        """All distinct over-threshold candidates, highest confidence first.

        Leaves the acting-prediction record as it is.
        """
        if inst.op is not _LOAD:
            return []
        act = self._walk(inst, False)
        if act is None:
            return []
        entry, conf = act[1], act[2]
        threshold = self.threshold
        seen: set[int] = set()
        out: list[ValuePrediction] = []
        for slot in sorted(_LIVE_SLOTS[len(entry.values)], key=lambda s: -conf[s]):
            if conf[slot] < threshold:
                break
            value = _slot_value(entry, slot)
            if value not in seen:
                seen.add(value)
                out.append(ValuePrediction(value, conf[slot], slot))
        return out

    def train(self, inst: Instruction, actual: int) -> None:
        """Commit-time training: confidences, pattern, learned values, stride.

        The confidence rule follows the paper's wording: "value confidence
        increases by 1 on correct predictions and decreases by 8 on
        incorrect predictions" — the penalty lands on the slot that *would
        have been predicted* (the acting prediction), while any slot whose
        candidate matches the committed value is reinforced.  Slots that
        neither matched nor acted keep their confidence: this is what lets
        a minority value accumulate confidence in a bimodal stream, the
        effect Figure 5 measures.

        The step kernel trains each load right after predicting it, so
        the acting prediction is the record :meth:`predict` left for this
        instruction object; any other call order (a train with no
        predict, another load predicted or trained in between) finds no
        record for it and walks the tables.  Every train drops the
        record.  Learned values are distinct (the LRU update removes a
        repeat before appending it), so at most one learned slot matches,
        and the hardwired slots match by value.  The warm start's replay
        passes go through :meth:`train_many` instead.
        """
        act = self._acting
        self._acting = None
        if act is None or act[0] is not inst:
            act = self._walk(inst, True)
        _, entry, conf, predicted, value = act
        actual &= _MASK64
        # penalize the acting prediction when its candidate is wrong
        if predicted >= 0 and value != actual:
            conf[predicted] = max(conf[predicted] - self.penalty, 0)
        values = entry.values
        stride_value = (entry.last_value + entry.stride) & _MASK64
        # reinforce every matching slot; the first one enters the pattern
        # (4 bits per outcome, NUM_SLOTS codes "no match")
        bonus, max_conf = self.bonus, self.max_conf
        matched = NUM_SLOTS
        if actual in values:
            matched = values.index(actual)
            conf[matched] = min(conf[matched] + bonus, max_conf)
            del values[matched]
        if actual == 0 or actual == 1:
            slot = SLOT_ZERO + actual
            conf[slot] = min(conf[slot] + bonus, max_conf)
            if matched == NUM_SLOTS:
                matched = slot
        if actual == stride_value:
            conf[SLOT_STRIDE] = min(conf[SLOT_STRIDE] + bonus, max_conf)
            if matched == NUM_SLOTS:
                matched = SLOT_STRIDE
        entry.pattern = ((entry.pattern << 4) | matched) & self._pattern_mask
        # learned-value LRU update (a repeat was removed above)
        values.append(actual)
        if len(values) > NUM_LEARNED:
            del values[0]
        # stride component ("training and replacement ... when instructions commit")
        entry.stride = (actual - entry.last_value) & _MASK64
        entry.last_value = actual

    def train_many(self, insts: list[Instruction], passes: int) -> None:
        """``passes`` looped :meth:`train` calls per load, replayed once the
        value history settles.

        The VHT half of the rule never reads a confidence, so each pass
        first runs that half alone and records one event per load: its
        ValPHT vector, live slots and matching slots.  The confidence half
        then applies the events.  A pass that leaves the VHT exactly as it
        found it presents the same events to every later pass, so its
        events stand for all the passes left and the loop stops; a VHT that
        never settles runs every pass this way.  Events on different
        vectors commute, so each vector replays its own events pass after
        pass, skipping whole periods once its counters repeat.
        """
        self._acting = None
        touched = sorted({(inst.pc >> 2) & self._vht_mask for inst in insts})
        done = 0
        while done < passes:
            before = self._vht_state(touched)
            events = self._vht_pass(insts)
            done += 1
            settled = self._vht_state(touched) == before
            self._replay(events, passes - done + 1 if settled else 1)
            if settled:
                return

    def _vht_state(self, slots: list[int]) -> list:
        """Everything :meth:`_vht_pass` reads, at the given VHT slots."""
        vht = self._vht
        return [
            None if e is None else
            (e.pc, tuple(e.values), e.last_value, e.stride, e.pattern)
            for e in (vht[i] for i in slots)
        ]

    def _vht_pass(self, insts: list[Instruction]) -> dict[int, list]:
        """One pass of :meth:`train`'s VHT half; returns each touched ValPHT
        vector's confidence events, in order (see :data:`_EVENTS`)."""
        vht, vht_mask = self._vht, self._vht_mask
        valpht_mask, pattern_mask = self._valpht_mask, self._pattern_mask
        events: dict[int, list] = {}
        for inst in insts:
            actual = inst.value & _MASK64
            pc = inst.pc
            idx = (pc >> 2) & vht_mask
            entry = vht[idx]
            if entry is None or entry.pc != pc:
                entry = vht[idx] = _VhtEntry(pc)
            cidx = ((pc >> 2) ^ (entry.pattern * 0x65D)) & valpht_mask
            values = entry.values
            live = _EVENTS[len(values)]
            matched = NUM_SLOTS
            mask = 0
            if actual in values:
                matched = values.index(actual)
                mask = 1 << matched
                del values[matched]
            if actual == 0 or actual == 1:
                slot = SLOT_ZERO + actual
                mask |= 1 << slot
                if matched == NUM_SLOTS:
                    matched = slot
            if actual == (entry.last_value + entry.stride) & _MASK64:
                mask |= 1 << SLOT_STRIDE
                if matched == NUM_SLOTS:
                    matched = SLOT_STRIDE
            group = events.get(cidx)
            if group is None:
                events[cidx] = [live[mask]]
            else:
                group.append(live[mask])
            entry.pattern = ((entry.pattern << 4) | matched) & pattern_mask
            values.append(actual)
            if len(values) > NUM_LEARNED:
                del values[0]
            entry.stride = (actual - entry.last_value) & _MASK64
            entry.last_value = actual
        return events

    def _replay(self, events: dict[int, list], passes: int) -> None:
        """Apply each vector's events ``passes`` times: :meth:`train`'s
        confidence half.  A vector whose counters repeat at a pass boundary
        skips the whole periods left."""
        valpht = self._valpht
        floor = self.threshold - 1
        bonus, penalty, max_conf = self.bonus, self.penalty, self.max_conf
        for cidx, group in events.items():
            conf = valpht[cidx]
            if conf is None:
                conf = valpht[cidx] = [0] * NUM_SLOTS
            # counters at each pass boundary -> that pass; None once skipped
            seen: dict[tuple, int] | None = {} if passes > 1 else None
            done = 0
            while done < passes:
                if seen is not None:
                    first = seen.setdefault(tuple(conf), done)
                    if first != done:
                        done = passes - (passes - done) % (done - first)
                        seen = None
                        continue
                for live, hits in group:
                    if max(conf) > floor:
                        best = floor
                        predicted = -1
                        for slot in live:
                            if conf[slot] > best:
                                best = conf[slot]
                                predicted = slot
                        if predicted >= 0 and predicted not in hits:
                            conf[predicted] = max(conf[predicted] - penalty, 0)
                    for slot in hits:
                        conf[slot] = min(conf[slot] + bonus, max_conf)
                done += 1

    def _snapshot_state(self) -> dict:
        """Occupied slots only: VHT fields as flat columns (learned values
        concatenated, with a per-entry count byte), ValPHT confidence
        vectors as one blob of ``NUM_SLOTS`` counters per slot."""
        vht, valpht = self._vht, self._valpht
        vht_slots = occupied_slots(vht)
        entries = [vht[i] for i in vht_slots]
        conf_slots = occupied_slots(valpht)
        return {
            "vht": {
                "slots": vht_slots,
                "pc": [e.pc for e in entries],
                "last_value": [e.last_value for e in entries],
                "stride": [e.stride for e in entries],
                "pattern": [e.pattern for e in entries],
                "counts": bytes(len(e.values) for e in entries),
                "values": [v for e in entries for v in e.values],
            },
            "valpht": {
                "slots": conf_slots,
                "conf": pack_confidences(
                    chain.from_iterable(valpht[i] for i in conf_slots),
                    self.max_conf,
                ),
            },
        }

    def _restore_state(self, state: dict) -> None:
        what = "WangFranklinPredictor VHT"
        columns = ("pc", "last_value", "stride", "pattern")
        slots, fields = slot_columns(state["vht"], columns, len(self._vht), what)
        counts, values = state["vht"]["counts"], state["vht"]["values"]
        if not isinstance(counts, bytes) or len(counts) != len(slots):
            raise ValueError(f"{what}: learned-value counts do not match the slots")
        if counts and max(counts) > NUM_LEARNED:
            raise ValueError(f"{what}: entry holds more than {NUM_LEARNED} values")
        if not isinstance(values, list) or sum(counts) != len(values):
            raise ValueError(f"{what}: learned-value counts do not sum to the values")
        vht: list[_VhtEntry | None] = [None] * len(self._vht)
        end = 0
        for slot, pc, last, stride, pattern, n in zip(slots, *fields, counts):
            if (pc >> 2) & self._vht_mask != slot:
                raise ValueError(f"{what}: entry pc {pc:#x} does not index slot {slot}")
            entry = vht[slot] = _VhtEntry(pc)
            start, end = end, end + n
            entry.values = values[start:end]
            entry.last_value = last
            entry.stride = stride
            entry.pattern = pattern

        what = "WangFranklinPredictor ValPHT"
        slots, _ = slot_columns(state["valpht"], (), len(self._valpht), what)
        conf = unpack_confidences(
            state["valpht"]["conf"], NUM_SLOTS * len(slots), self.max_conf, what
        )
        valpht: list[list[int] | None] = [None] * len(self._valpht)
        for k, slot in enumerate(slots):
            valpht[slot] = conf[NUM_SLOTS * k:NUM_SLOTS * (k + 1)]
        self._vht = vht
        self._valpht = valpht
        self._acting = None
