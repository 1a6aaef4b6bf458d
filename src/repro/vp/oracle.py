"""Oracle value predictor (Section 5.1 limit study).

"The oracle predictor always predicts the correct value for any load it
chooses to predict."  In the trace-driven model the correct value travels
with the instruction, so the oracle simply returns it with maximal
confidence.  Which loads are *worth* predicting remains the job of the load
selector — the oracle does not bypass the criticality decision.
"""

from __future__ import annotations

from repro.isa import Instruction, OpClass
from repro.vp.base import ValuePrediction, ValuePredictor

#: bound once: the per-load guards would otherwise read the enum member
_LOAD = OpClass.LOAD


class OraclePredictor(ValuePredictor):
    """Always-correct predictor used for the potential study (Figure 1)."""

    #: Confidence reported for every oracle prediction.
    MAX_CONFIDENCE = 32

    def predict(self, inst: Instruction) -> ValuePrediction | None:
        if inst.op is not _LOAD or inst.value is None:
            return None
        return ValuePrediction(inst.value, self.MAX_CONFIDENCE)

    def train(self, inst: Instruction, actual: int) -> None:
        """The oracle has no state to train."""

    def train_many(self, insts: list[Instruction], passes: int) -> None:
        """The oracle has no state to train."""
