"""Export experiment results to JSON/CSV.

Downstream users typically want machine-readable outputs next to the
pretty tables; these helpers keep that path dependency-free.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from repro.harness.experiments import ExperimentResult


def result_to_dict(result: ExperimentResult) -> dict:
    """Convert an :class:`ExperimentResult` into a JSON-serializable dict."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "columns": list(result.columns),
        "rows": [dict(row) for row in result.rows],
        "summary": dict(result.summary),
    }


def result_to_json(result: ExperimentResult, path: str | Path | None = None) -> str:
    """Serialize a result to JSON; optionally also write it to ``path``."""
    text = json.dumps(result_to_dict(result), indent=2, sort_keys=True)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


def result_to_csv(result: ExperimentResult, path: str | Path | None = None) -> str:
    """Serialize a result's rows to CSV; optionally write to ``path``.

    The summary is appended as comment lines (``# key,value``) so a single
    file round-trips everything a plot needs.
    """
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=result.columns, extrasaction="ignore")
    writer.writeheader()
    for row in result.rows:
        writer.writerow(row)
    for key, value in result.summary.items():
        buffer.write(f"# {key},{value}\n")
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text

