"""Declarative design-space exploration (``repro.sweep``).

The paper's conclusions are all sweeps — spawn latency (Fig. 2),
store-buffer size (§5.3), fetch policy (Fig. 4), predictor choice (§5.4)
— and this package turns such campaigns into first-class, file-backed
objects instead of hand-coded experiment functions:

* :mod:`~repro.sweep.spec` — declarative :class:`SweepSpec` files (TOML/
  JSON under ``sweeps/``) with grid/random expansion and constraints,
* :mod:`~repro.sweep.store` — a persistent SQLite :class:`ResultStore`
  with one row per (point, seed), giving campaigns crash resumability,
* :mod:`~repro.sweep.execute` — the retrying, chunk-committing runner,
* :mod:`~repro.sweep.stats` — multi-seed means/geomeans with bootstrap
  confidence intervals,
* :mod:`~repro.sweep.report` — tables, per-axis marginals, Pareto
  frontier and CSV/JSONL export.

CLI: ``python -m repro sweep run|status|report|resume <spec>``.
"""

from repro.sweep.drain import drain_campaign, drain_store, worker_token
from repro.sweep.execute import (
    CampaignSummary,
    campaign_rows,
    default_db_path,
    run_sweep,
)
from repro.sweep.report import (
    axis_marginals,
    axis_progress,
    best_point,
    export_jsonl,
    format_markdown,
    full_report,
    pareto_frontier,
    pareto_result,
    sweep_result,
)
from repro.sweep.spec import (
    PRESETS,
    SweepPoint,
    SweepSpec,
    SweepSpecError,
    load_spec,
    point_id,
    run_spec_for,
)
from repro.sweep.stats import PointAggregate, aggregate, bootstrap_ci
from repro.sweep.store import ResultStore

__all__ = [
    "CampaignSummary",
    "PRESETS",
    "PointAggregate",
    "ResultStore",
    "SweepPoint",
    "SweepSpec",
    "SweepSpecError",
    "aggregate",
    "axis_marginals",
    "axis_progress",
    "best_point",
    "bootstrap_ci",
    "campaign_rows",
    "default_db_path",
    "drain_campaign",
    "drain_store",
    "export_jsonl",
    "format_markdown",
    "full_report",
    "load_spec",
    "pareto_frontier",
    "pareto_result",
    "point_id",
    "run_spec_for",
    "run_sweep",
    "sweep_result",
    "worker_token",
]
