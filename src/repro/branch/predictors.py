"""The 2bcgskew branch predictor of Table 1.

Global history is caller-owned (an integer shift register) so that each SMT
context — including freshly spawned value-speculative threads — keeps its
own history while sharing the prediction tables.
"""

from __future__ import annotations

from repro.tables import power_of_two

#: Number of global-history bits threaded through the predictor.
HISTORY_BITS = 16
_HISTORY_MASK = (1 << HISTORY_BITS) - 1

#: schema of :meth:`TwoBcGskewPredictor.snapshot` payloads; version 2
#: packs each counter table into one ``bytes`` blob, and version 3 dropped
#: the lookup counter
SNAPSHOT_VERSION = 3

#: the counter tables, by their snapshot names
_TABLES = ("bim", "g0", "g1", "meta")

#: the valid 2-bit counter values, as ``bytes.translate`` deletes them
_COUNTER_VALUES = bytes(range(4))

#: global-history bits of the G0 (short) and G1 (long) skewed banks, the
#: classic unequal-history arrangement that lets the short bank train
#: quickly on weakly-correlated branches while the long bank captures
#: patterns; the meta index hashes the PC alone
_G0_HISTORY = (1 << 6) - 1
_G1_HISTORY = (1 << 12) - 1
#: odd multipliers of the meta, G0 and G1 index hashes
_META_MUL, _G0_MUL, _G1_MUL = 0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D


def update_history(history: int, taken: bool) -> int:
    """Shift a branch outcome into a global-history register."""
    return ((history << 1) | (1 if taken else 0)) & _HISTORY_MASK


class TwoBcGskewPredictor:
    """2bcgskew: a bimodal bank plus skewed gshare banks with a meta chooser.

    Every table is a ``bytearray`` of 2-bit saturating counters, one byte
    each.  The final prediction is either the bimodal bank's or the
    majority vote of (bimodal, G0, G1), selected by the meta table.  The
    update rule follows the published partial-update policy: the meta
    table trains toward whichever component was right when they disagree;
    the banks train when the overall prediction was wrong or when they
    voted for the outcome.
    """

    def __init__(
        self,
        bimodal_entries: int = 16 * 1024,
        skew_entries: int = 64 * 1024,
        meta_entries: int = 64 * 1024,
    ) -> None:
        power_of_two("bimodal_entries", bimodal_entries)
        power_of_two("skew_entries", skew_entries)
        power_of_two("meta_entries", meta_entries)
        self._bim = bytearray(b"\x01") * bimodal_entries
        self._g0 = bytearray(b"\x01") * skew_entries
        self._g1 = bytearray(b"\x01") * skew_entries
        # slight bias toward eskew
        self._meta = bytearray(b"\x02") * meta_entries

    def _train(self, pc: int, history: int, taken: bool) -> bool:
        """Predict the branch at ``pc`` and train on ``taken``; return the
        prediction.

        The one coding of the rule.  The skew indices are multiplicative
        hashes of (pc, history) with a per-bank odd constant: the real
        design uses Seznec's H/H^-1 skewing functions, and this gives the
        property needed, that conflicting pairs rarely collide in more than
        one bank.  Each bank's vote and training read the same counter,
        since no two banks share a table.
        """
        bim, g0, g1, meta = self._bim, self._g0, self._g1, self._meta
        pc2 = pc >> 2
        key = pc2 << HISTORY_BITS
        ib = pc2 & (len(bim) - 1)
        i0 = (key * _META_MUL >> 13) & (len(meta) - 1)
        i1 = ((key | history & _G0_HISTORY) * _G0_MUL >> 13) & (len(g0) - 1)
        i2 = ((key | history & _G1_HISTORY) * _G1_MUL >> 13) & (len(g1) - 1)
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
        else:
            if b and (miss or b < 2):
                bim[ib] = b - 1
            if x and (miss or x < 2):
                g0[i1] = x - 1
            if y and (miss or y < 2):
                g1[i2] = y - 1
        return prediction

    def predict_and_update(self, pc: int, history: int, taken: bool) -> bool:
        """Predict and train on one branch of a timed run; return the
        prediction.  The step kernel compares it with ``taken`` and
        reports a misprediction to the run's probe."""
        return self._train(pc, history, taken)

    def update(self, pc: int, history: int, taken: bool) -> None:
        """Train on one branch of the fast-forward; nothing reads the
        prediction."""
        self._train(pc, history, taken)

    def train_many(self, branches, history: int) -> int:
        """Train on each ``(pc, taken)`` of ``branches`` in order, shifting
        each outcome into ``history``; return the final history (the warm
        start)."""
        train = self._train
        for pc, taken in branches:
            train(pc, history, taken)
            history = update_history(history, taken)
        return history

    def snapshot(self) -> dict:
        """Serialize the tables to a versioned picklable dict."""
        return {
            "version": SNAPSHOT_VERSION,
            "kind": type(self).__name__,
            "state": {name: bytes(getattr(self, f"_{name}")) for name in _TABLES},
        }

    def restore(self, data: dict) -> None:
        """Restore from a :meth:`snapshot` payload.

        A malformed payload raises :class:`ValueError` naming the
        predictor, whatever part of it is wrong.
        """
        kind = type(self).__name__
        if data.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported {kind} snapshot version: {data.get('version')!r}"
            )
        if data.get("kind") != kind:
            raise ValueError(
                f"branch-predictor snapshot is for {data.get('kind')!r}, not {kind}"
            )
        try:
            for name in _TABLES:
                entries = len(getattr(self, f"_{name}"))
                blob = data["state"][name]
                if not isinstance(blob, bytes) or len(blob) != entries:
                    raise ValueError(
                        f"{kind} {name} table: snapshot is not a "
                        f"{entries}-byte counter blob"
                    )
                if blob.translate(None, _COUNTER_VALUES):
                    raise ValueError(
                        f"{kind} {name} table: snapshot counter outside 0-3"
                    )
                setattr(self, f"_{name}", bytearray(blob))
        except (KeyError, TypeError, AttributeError, IndexError) as exc:
            raise ValueError(f"malformed {kind} snapshot: {exc!r}") from None
