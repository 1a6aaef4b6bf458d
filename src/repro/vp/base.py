"""Common protocol for load value predictors."""

from __future__ import annotations

from array import array
from itertools import compress

from repro.isa import Instruction

#: schema of :meth:`ValuePredictor.snapshot` payloads; version 2 stores
#: only a table's occupied slots, as flat index and field columns,
#: version 3 dropped the accuracy counters, and version 4 dropped the
#: speculative stride heads (an entry keeps its committed last value)
SNAPSHOT_VERSION = 4


class ValuePrediction:
    """A single predicted value with its confidence.

    Attributes:
        value: The predicted 64-bit load result.
        confidence: Saturating-counter confidence backing the prediction.
        slot: Which internal source produced the value (predictor-specific;
            Wang–Franklin uses 0-4 learned, 5 zero, 6 one, 7 stride).
    """

    __slots__ = ("value", "confidence", "slot")

    def __init__(self, value: int, confidence: int, slot: int = 0) -> None:
        self.value = value
        self.confidence = confidence
        self.slot = slot

    def __repr__(self) -> str:
        return f"ValuePrediction(value={self.value}, conf={self.confidence}, slot={self.slot})"


class ValuePredictor:
    """Base class for load value predictors.

    The engine calls :meth:`predict` at the rename/queue stage of a load;
    it only acts on the result when the prediction is over the predictor's
    confidence threshold (a ``None`` return means "not confident").
    :meth:`train` is called with the architectural value when the load
    retires, so every table, stride components included, trains at
    commit.  A predictor holds its tables and nothing else, apart from
    the acting prediction of the one load in flight between its
    :meth:`predict` and its :meth:`train` (Wang–Franklin keeps it so the
    train need not walk the tables again): the pipeline counts prediction
    outcomes in :class:`~repro.core.stats.SimStats`.
    """

    def predict(self, inst: Instruction) -> ValuePrediction | None:
        """Return a confident prediction for the load, or None."""
        raise NotImplementedError

    def predict_all(self, inst: Instruction) -> list[ValuePrediction]:
        """Return every distinct candidate value over threshold.

        Used for multiple-value MTVP (Section 5.6).  The default returns
        the single best prediction; predictors that can source several
        values (Wang–Franklin) override this.
        """
        best = self.predict(inst)
        return [] if best is None else [best]

    def train(self, inst: Instruction, actual: int) -> None:
        """Update tables with the committed load value."""
        raise NotImplementedError

    def train_many(self, insts: list[Instruction], passes: int) -> None:
        """Replay ``insts`` through :meth:`train` ``passes`` times, in order.

        Each instruction trains with its own ``value``.  The warm start
        uses this for its replay passes.  An override must leave exactly
        the tables of this loop: Wang–Franklin replays recorded events once
        its value history settles, and a predictor without state (the
        oracle) does nothing.
        """
        train = self.train
        for _ in range(passes):
            for inst in insts:
                train(inst, inst.value)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Serialize table state to a versioned dict.

        Subclasses supply their table contents via :meth:`_snapshot_state`
        / :meth:`_restore_state`; stateless predictors (the oracle) get
        an empty state for free.
        """
        return {
            "version": SNAPSHOT_VERSION,
            "kind": type(self).__name__,
            "state": self._snapshot_state(),
        }

    def restore(self, data: dict) -> None:
        """Restore from a :meth:`snapshot` payload of the same predictor
        kind.

        A malformed payload raises :class:`ValueError` naming the
        predictor, whatever part of it is wrong.
        """
        if data.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported ValuePredictor snapshot version: "
                f"{data.get('version')!r}"
            )
        if data.get("kind") != type(self).__name__:
            raise ValueError(
                f"predictor snapshot is for {data.get('kind')!r}, "
                f"not {type(self).__name__}"
            )
        try:
            self._restore_state(data["state"])
        except (KeyError, TypeError, AttributeError, IndexError) as exc:
            raise ValueError(
                f"malformed {type(self).__name__} snapshot: {exc!r}"
            ) from None

    def _snapshot_state(self) -> dict:
        """Table contents for :meth:`snapshot`; stateless predictors: {}."""
        return {}

    def _restore_state(self, state: dict) -> None:
        """Restore table contents captured by :meth:`_snapshot_state`."""


# ----------------------------------------------------------------------
# occupied-slot table encoding shared by the predictors' snapshots
# ----------------------------------------------------------------------
def occupied_slots(table: list) -> list[int]:
    """Indices of ``table``'s non-``None`` slots, in order.

    Table entries are objects or non-empty lists, so every one is truthy
    and the scan runs at C speed.
    """
    return list(compress(range(len(table)), table))


def slot_columns(
    state: dict, names: tuple[str, ...], size: int, what: str
) -> tuple[list[int], list[list]]:
    """Validate one table of a snapshot: its ``slots`` and field columns.

    Every occupied index must lie inside the ``size``-entry table and
    every column must hold one field per occupied slot; ``what`` names
    the table in the :class:`ValueError` raised otherwise.
    """
    slots = state["slots"]
    if not isinstance(slots, list):
        raise ValueError(f"{what}: snapshot slots are not a list")
    if slots and (min(slots) < 0 or max(slots) >= size):
        raise ValueError(f"{what}: occupied index outside the {size}-entry table")
    columns = [state[name] for name in names]
    for name, column in zip(names, columns):
        if not isinstance(column, list) or len(column) != len(slots):
            raise ValueError(
                f"{what}: snapshot {name} column does not match its "
                f"{len(slots)} occupied slots"
            )
    return slots, columns


def _confidence_code(max_conf: int) -> str:
    """``array`` typecode of a confidence blob: a byte when counters fit."""
    return "B" if max_conf <= 0xFF else "q"


def pack_confidences(values, max_conf: int) -> bytes:
    """Confidence counters (0..``max_conf``) as one blob."""
    return array(_confidence_code(max_conf), values).tobytes()


def unpack_confidences(blob: bytes, count: int, max_conf: int, what: str) -> list[int]:
    """The ``count`` counters of a :func:`pack_confidences` blob."""
    counters = array(_confidence_code(max_conf))
    if not isinstance(blob, bytes) or len(blob) != count * counters.itemsize:
        raise ValueError(f"{what}: confidence blob does not hold {count} counters")
    counters.frombytes(blob)
    return counters.tolist()
