"""The branch predictor.

Table 1 of the paper specifies a 2bcgskew predictor with 64K-entry meta and
gshare tables and a 16K-entry bimodal table: one bimodal bank, two skewed
gshare-style banks and a meta chooser, trained by one rule.

Tables are shared between hardware contexts (as on a real SMT); global
history is per-context state owned by the pipeline, threaded through the
``history`` argument, so a spawned thread can inherit its parent's history
with a simple copy.
"""

from repro.branch.predictors import TwoBcGskewPredictor, update_history

__all__ = ["TwoBcGskewPredictor", "update_history"]
