"""The twelve paper experiments: golden tables and one simulation per task.

``tests/data/experiment_tables.txt`` holds every experiment's
``format_table()`` on mcf and swim at length 2000 (the length at which
the MTVP columns differ, so a swapped recipe changes a number).
Regenerate it only when results change on purpose::

    PYTHONPATH=src:. python -c "from tests.test_experiments import \\
        render_tables; print(render_tables(), end='')" \\
        > tests/data/experiment_tables.txt
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

import repro.harness.experiments as exp
import repro.harness.parallel as parallel
from repro.core import SimStats
from repro.harness.cache import task_key

GOLDEN = Path(__file__).parent / "data" / "experiment_tables.txt"
GOLDEN_WORKLOADS = ("mcf", "swim")
GOLDEN_LENGTH = 2000


def render_tables() -> str:
    """Every experiment's table on the golden workloads, in registry order."""
    with mock.patch.object(exp, "ALL", GOLDEN_WORKLOADS):
        tables = [
            experiment(length=GOLDEN_LENGTH).format_table()
            for experiment in exp.EXPERIMENTS.values()
        ]
    return "\n\n".join(tables) + "\n"


def test_tables_match_golden():
    assert render_tables() == GOLDEN.read_text()


@pytest.mark.parametrize("experiment_id", list(exp.EXPERIMENTS))
def test_no_simulation_is_submitted_twice(monkeypatch, experiment_id):
    keys: list[str | None] = []

    def record(tasks, *, policy=None, **_):
        keys.extend(task_key(*task) for task in tasks)
        return [SimStats(cycles=1000, useful_instructions=1000)] * len(tasks)

    monkeypatch.setattr(parallel, "run_simulations", record)
    monkeypatch.setattr(exp, "run_simulations", record)
    exp.EXPERIMENTS[experiment_id](length=1000)
    assert keys and None not in keys
    repeated = [key for key, count in Counter(keys).items() if count > 1]
    assert not repeated, f"{len(repeated)} simulations submitted more than once"
