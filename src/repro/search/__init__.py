"""Adaptive design-space search (``repro.search``).

Sweeps answer "what is every point worth?"; searches answer the question
campaigns actually ask — "which configuration wins, and by how much?" —
for a fraction of the grid cost.  A :class:`SearchSpec` extends a
:class:`~repro.sweep.SweepSpec` with *rungs* of increasing fidelity
(longer measured samples, more seed replicates) and a promotion
``fraction``; the successive-halving controller runs every point at the
cheapest rung, promotes the statistically-defensible survivors, and
spends the expensive rungs only on them:

* :mod:`~repro.search.spec` — declarative :class:`SearchSpec` files
  (TOML/JSON under ``sweeps/``) wrapping an embedded sweep spec,
* :mod:`~repro.search.promote` — the CI-based promotion rule: a point
  is eliminated only when its bootstrap-CI upper bound falls below the
  promotion cut; CI-overlapping points are *ambiguous* and tie-break by
  bandit-style extra seed allocation instead of arbitrary truncation,
* :mod:`~repro.search.controller` — the rung loop over the existing
  :class:`~repro.sweep.ResultStore`/:func:`~repro.sweep.drain_campaign`
  machinery (inheriting resume, exactly-once commits,
  ``--dispatch workers`` and shared warmup checkpoints),
* :mod:`~repro.search.report` — the explore/exploit report ("best point
  found with X% of exhaustive grid cost"),
* :mod:`~repro.search.fidelity` — the search-vs-exhaustive judge used
  by CI and ``benchmarks/bench_search.py``.

CLI: ``python -m repro search run|resume|status|report <spec>``.
"""

from repro.search.controller import (
    RungOutcome,
    SearchSummary,
    exhaustive_reference,
    run_search,
)
from repro.search.fidelity import fidelity_check
from repro.search.promote import PromotionDecision, objective_value, promote
from repro.search.report import (
    format_search_report,
    full_search_report,
    search_result,
)
from repro.search.spec import (
    Rung,
    SearchSpec,
    SearchSpecError,
    load_search_spec,
)

__all__ = [
    "PromotionDecision",
    "Rung",
    "RungOutcome",
    "SearchSpec",
    "SearchSpecError",
    "SearchSummary",
    "exhaustive_reference",
    "fidelity_check",
    "format_search_report",
    "full_search_report",
    "load_search_spec",
    "objective_value",
    "promote",
    "run_search",
    "search_result",
]
