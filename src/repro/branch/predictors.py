"""Bimodal, gshare and 2bcgskew branch predictors.

All predictors expose the same two-method protocol:

* ``predict(pc, history) -> bool`` — taken/not-taken guess,
* ``update(pc, history, taken) -> None`` — train with the resolved outcome.

Global history is caller-owned (an integer shift register) so that each SMT
context — including freshly spawned value-speculative threads — keeps its
own history while sharing the prediction tables.
"""

from __future__ import annotations

from repro.tables import power_of_two

#: Number of global-history bits threaded through the predictors.
HISTORY_BITS = 16
_HISTORY_MASK = (1 << HISTORY_BITS) - 1

#: schema of :meth:`BranchPredictor.snapshot` payloads; version 2 packs
#: each counter table into one ``bytes`` blob, and version 3 dropped the
#: 2bcgskew lookup counter
SNAPSHOT_VERSION = 3

#: the valid 2-bit counter values, as ``bytes.translate`` deletes them
_COUNTER_VALUES = bytes(range(4))


def update_history(history: int, taken: bool) -> int:
    """Shift a branch outcome into a global-history register."""
    return ((history << 1) | (1 if taken else 0)) & _HISTORY_MASK


class BranchPredictor:
    """Protocol base class; also usable as a static always-taken stub."""

    #: observability probe (see :mod:`repro.obs.probe`) or None: a class
    #: attribute so every predictor inherits None for free; the engine
    #: sets an instance attribute when observability is requested
    obs = None

    def predict(self, pc: int, history: int) -> bool:
        """Return the predicted direction for the branch at ``pc``."""
        raise NotImplementedError

    def update(self, pc: int, history: int, taken: bool) -> None:
        """Train the predictor with the resolved direction."""
        raise NotImplementedError

    def predict_and_update(self, pc: int, history: int, taken: bool) -> bool:
        """Predict then immediately train; returns the prediction.

        The engine resolves every branch in the same step it predicts it,
        so the two-call protocol does each table walk twice.  Subclasses
        may fuse the walks; this default is the unfused equivalent.
        """
        predicted = self.predict(pc, history)
        self.update(pc, history, taken)
        return predicted

    def snapshot(self) -> dict:
        """Serialize predictor tables to a versioned picklable dict."""
        return {
            "version": SNAPSHOT_VERSION,
            "kind": type(self).__name__,
            "state": self._snapshot_state(),
        }

    def restore(self, data: dict) -> None:
        """Restore from a :meth:`snapshot` payload of the same kind.

        A malformed payload raises :class:`ValueError` naming the
        predictor, whatever part of it is wrong.
        """
        if data.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported BranchPredictor snapshot version: "
                f"{data.get('version')!r}"
            )
        if data.get("kind") != type(self).__name__:
            raise ValueError(
                f"branch-predictor snapshot is for {data.get('kind')!r}, "
                f"not {type(self).__name__}"
            )
        try:
            self._restore_state(data["state"])
        except (KeyError, TypeError, AttributeError, IndexError) as exc:
            raise ValueError(
                f"malformed {type(self).__name__} snapshot: {exc!r}"
            ) from None

    def _snapshot_state(self) -> dict:
        """Table contents for :meth:`snapshot`; the static stub has none."""
        return {}

    def _restore_state(self, state: dict) -> None:
        """Restore table contents captured by :meth:`_snapshot_state`."""


class _CounterTable:
    """A table of 2-bit saturating counters, one byte each.

    A ``bytearray`` rather than a list: indexing costs the same, but the
    table is an eighth of the size, and its snapshot and restore are
    byte copies instead of a pass over every counter.
    """

    __slots__ = ("entries", "mask", "counters")

    def __init__(self, entries: int, init: int = 1, name: str = "entries") -> None:
        power_of_two(name, entries)
        self.entries = entries
        self.mask = entries - 1
        self.counters = bytearray((init,)) * entries

    def taken(self, index: int) -> bool:
        return self.counters[index & self.mask] >= 2

    def train(self, index: int, taken: bool) -> None:
        i = index & self.mask
        c = self.counters[i]
        if taken:
            if c < 3:
                self.counters[i] = c + 1
        elif c > 0:
            self.counters[i] = c - 1

    def snapshot(self) -> bytes:
        """The counters as one byte each (they are 0-3)."""
        return bytes(self.counters)

    def restore(self, blob: bytes, what: str) -> None:
        """Restore a :meth:`snapshot` blob; ``what`` names the table in
        the :class:`ValueError` a malformed blob raises."""
        if not isinstance(blob, bytes) or len(blob) != self.entries:
            raise ValueError(
                f"{what}: snapshot is not a {self.entries}-byte counter blob"
            )
        if blob.translate(None, _COUNTER_VALUES):
            raise ValueError(f"{what}: snapshot counter outside 0-3")
        self.counters = bytearray(blob)


class BimodalPredictor(BranchPredictor):
    """PC-indexed table of 2-bit counters (16K entries in the paper)."""

    def __init__(self, entries: int = 16 * 1024) -> None:
        self._table = _CounterTable(entries)

    def predict(self, pc: int, history: int) -> bool:
        return self._table.taken(pc >> 2)

    def update(self, pc: int, history: int, taken: bool) -> None:
        self._table.train(pc >> 2, taken)

    def _snapshot_state(self) -> dict:
        return {"table": self._table.snapshot()}

    def _restore_state(self, state: dict) -> None:
        self._table.restore(state["table"], type(self).__name__)


class GsharePredictor(BranchPredictor):
    """Global-history predictor indexing with pc XOR history."""

    def __init__(self, entries: int = 64 * 1024, history_bits: int = HISTORY_BITS) -> None:
        self._table = _CounterTable(entries)
        self._hist_mask = (1 << history_bits) - 1

    def _index(self, pc: int, history: int) -> int:
        return (pc >> 2) ^ (history & self._hist_mask)

    def predict(self, pc: int, history: int) -> bool:
        return self._table.taken(self._index(pc, history))

    def update(self, pc: int, history: int, taken: bool) -> None:
        self._table.train(self._index(pc, history), taken)

    def _snapshot_state(self) -> dict:
        return {"table": self._table.snapshot()}

    def _restore_state(self, state: dict) -> None:
        self._table.restore(state["table"], type(self).__name__)


#: global-history bits used by each skewed bank (G0 short, G1 long), the
#: classic unequal-history arrangement that lets short-history banks train
#: quickly on weakly-correlated branches while long-history banks capture
#: patterns
_BANK_HISTORY_BITS = (0, 6, 12)
#: per-bank odd multipliers of :func:`_skew_index`
_SKEW_MULTIPLIERS = (0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D)


def _skew_index(pc: int, history: int, bank: int) -> int:
    """Inter-bank dispersion hash used by the skewed banks of 2bcgskew.

    The real design uses the H/H^-1 skewing functions of Seznec; a
    multiplicative hash with a per-bank odd constant gives the same
    property we need — conflicting (pc, history) pairs rarely collide in
    more than one bank.
    """
    hist = history & ((1 << _BANK_HISTORY_BITS[bank % 3]) - 1)
    key = ((pc >> 2) << HISTORY_BITS) | hist
    return (key * _SKEW_MULTIPLIERS[bank % 3]) >> 13


class TwoBcGskewPredictor(BranchPredictor):
    """2bcgskew: a bimodal bank plus skewed gshare banks with a meta chooser.

    The final prediction is either the bimodal bank's or the majority vote
    of (bimodal, G0, G1), selected by a history-indexed meta table.  The
    update rule follows the published partial-update policy: the meta table
    trains toward whichever component was right; banks train when the
    overall prediction was wrong or when they participated in a correct
    majority.
    """

    def __init__(
        self,
        bimodal_entries: int = 16 * 1024,
        skew_entries: int = 64 * 1024,
        meta_entries: int = 64 * 1024,
    ) -> None:
        self._bim = _CounterTable(bimodal_entries, name="bimodal_entries")
        self._g0 = _CounterTable(skew_entries, name="skew_entries")
        self._g1 = _CounterTable(skew_entries, name="skew_entries")
        # slight bias toward eskew
        self._meta = _CounterTable(meta_entries, init=2, name="meta_entries")

    def _votes(self, pc: int, history: int) -> tuple[bool, bool, bool]:
        bim = self._bim.taken(pc >> 2)
        g0 = self._g0.taken(_skew_index(pc, history, 1))
        g1 = self._g1.taken(_skew_index(pc, history, 2))
        return bim, g0, g1

    def predict(self, pc: int, history: int) -> bool:
        bim, g0, g1 = self._votes(pc, history)
        majority = (bim + g0 + g1) >= 2
        use_eskew = self._meta.taken(_skew_index(pc, history, 0))
        return majority if use_eskew else bim

    def update(self, pc: int, history: int, taken: bool) -> None:
        self.train_many(((pc, taken),), history)

    def train_many(self, branches, history: int) -> int:
        """Train on each ``(pc, taken)`` of ``branches`` in order, shifting
        each outcome into ``history``; return the final history.

        The update rule, with the tables, masks and hash constants held
        in locals so the warm start trains a whole trace in one call.  A
        counter trains toward ``taken`` on a total misprediction, and
        otherwise only when its bank voted for the outcome; each bank's
        vote and training read the same counter, since no two banks share
        a table.
        """
        bim, bim_mask = self._bim.counters, self._bim.mask
        g0, g0_mask = self._g0.counters, self._g0.mask
        g1, g1_mask = self._g1.counters, self._g1.mask
        meta, meta_mask = self._meta.counters, self._meta.mask
        h0, h1, h2 = ((1 << bits) - 1 for bits in _BANK_HISTORY_BITS)
        m0, m1, m2 = _SKEW_MULTIPLIERS
        for pc, taken in branches:
            pc2 = pc >> 2
            key = pc2 << HISTORY_BITS
            ib = pc2 & bim_mask
            i0 = ((key | history & h0) * m0 >> 13) & meta_mask
            i1 = ((key | history & h1) * m1 >> 13) & g0_mask
            i2 = ((key | history & h2) * m2 >> 13) & g1_mask
            b, x, y = bim[ib], g0[i1], g1[i2]
            bim_vote = b >= 2
            majority = (bim_vote + (x >= 2) + (y >= 2)) >= 2
            prediction = bim_vote
            if majority != bim_vote:
                # the components disagree: train the chooser toward the winner
                c = meta[i0]
                if c >= 2:
                    prediction = majority
                if majority == taken:
                    if c < 3:
                        meta[i0] = c + 1
                elif c:
                    meta[i0] = c - 1
            # total misprediction: retrain every bank; otherwise (partial
            # update) only reinforce the banks that agreed
            miss = prediction != taken
            if taken:
                if b < 3 and (miss or b >= 2):
                    bim[ib] = b + 1
                if x < 3 and (miss or x >= 2):
                    g0[i1] = x + 1
                if y < 3 and (miss or y >= 2):
                    g1[i2] = y + 1
                history = ((history << 1) | 1) & _HISTORY_MASK
            else:
                if b and (miss or b < 2):
                    bim[ib] = b - 1
                if x and (miss or x < 2):
                    g0[i1] = x - 1
                if y and (miss or y < 2):
                    g1[i2] = y - 1
                history = (history << 1) & _HISTORY_MASK
        return history

    def predict_and_update(self, pc: int, history: int, taken: bool) -> bool:
        """Fused predict+train: each skew index hashed once instead of up
        to three times.  ``predict`` mutates nothing,
        so predict-then-update over the same tables sees identical votes —
        this is bit-for-bit the two-call sequence.
        """
        pc2 = pc >> 2
        i0 = _skew_index(pc, history, 0)
        i1 = _skew_index(pc, history, 1)
        i2 = _skew_index(pc, history, 2)
        bim = self._bim.taken(pc2)
        g0 = self._g0.taken(i1)
        g1 = self._g1.taken(i2)
        majority = (bim + g0 + g1) >= 2
        use_eskew = self._meta.taken(i0)
        prediction = majority if use_eskew else bim
        if majority != bim:
            self._meta.train(i0, majority == taken)
        if prediction != taken:
            if self.obs is not None:
                self.obs.branch_mispredict(pc)
            self._bim.train(pc2, taken)
            self._g0.train(i1, taken)
            self._g1.train(i2, taken)
        else:
            if bim == taken:
                self._bim.train(pc2, taken)
            if g0 == taken:
                self._g0.train(i1, taken)
            if g1 == taken:
                self._g1.train(i2, taken)
        return prediction

    def _snapshot_state(self) -> dict:
        return {
            "bim": self._bim.snapshot(),
            "g0": self._g0.snapshot(),
            "g1": self._g1.snapshot(),
            "meta": self._meta.snapshot(),
        }

    def _restore_state(self, state: dict) -> None:
        kind = type(self).__name__
        self._bim.restore(state["bim"], f"{kind} bim table")
        self._g0.restore(state["g0"], f"{kind} g0 table")
        self._g1.restore(state["g1"], f"{kind} g1 table")
        self._meta.restore(state["meta"], f"{kind} meta table")
