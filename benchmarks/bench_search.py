#!/usr/bin/env python
"""Fidelity-and-cost benchmark for ``repro.search``; refreshes
``BENCH_search.json``.

Runs the batch-generate → judge → compare harness
(:func:`~repro.search.fidelity.fidelity_check`) on a checked-in search
spec: the successive-halving search runs to completion, the exhaustive
reference sweep runs the full grid at the final rung's fidelity into the
same store, and both winners are judged with the same objective,
confidence level and tie-break order.  The record captures the numbers
the subsystem exists for:

* **winner_match** — did adaptive search answer the design question the
  way the exhaustive grid would?
* **cost.fraction** — scheduled search work (warmup + measured
  instructions over every (point, seed) row) as a fraction of the
  exhaustive campaign's;
* **funnel** — points surviving each rung, CI-overlap tie-breaks, and
  bandit extra-seed rounds;
* wall-clock for both campaigns (informational; shared-CI noise).

``--check`` turns the record into a gate: exit non-zero unless the
winner matched and the cost fraction stayed under the budget.  Usage::

    PYTHONPATH=src python benchmarks/bench_search.py
    PYTHONPATH=src python benchmarks/bench_search.py --quick --no-write
    PYTHONPATH=src python benchmarks/bench_search.py --check --max-fraction 0.6
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.harness.policy import ExecutionPolicy  # noqa: E402
from repro.search import (  # noqa: E402
    exhaustive_reference,
    load_search_spec,
    run_search,
)
from repro.sweep import ResultStore  # noqa: E402

DEFAULT_SPEC = REPO_ROOT / "sweeps" / "search_smoke.toml"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_search.json"


def run_fidelity_bench(spec_path: Path, db: Path | None, quick: bool) -> dict:
    from repro.search.fidelity import fidelity_check

    spec = load_search_spec(spec_path)
    state = db if db is not None else (
        Path(tempfile.mkdtemp(prefix="bench-search-")) / "search.db"
    )
    policy = ExecutionPolicy(cache=False)
    # NOTE: quick mode does NOT truncate the grid — successive halving's
    # statistics (and thus the funnel and the cost fraction) depend on
    # the full point population, and the checked-in smoke grid is small
    # enough already.  The flag exists for CLI parity with the other
    # benchmarks; both modes run the spec as-is.
    max_points = None

    store = ResultStore(state)
    with store:
        t0 = time.perf_counter()
        verdict = fidelity_check(
            spec, store, policy=policy, max_points=max_points,
        )
        wall = time.perf_counter() - t0

        # re-run the (fully stored) search alone to split the wall time:
        # everything is committed, so this is pure controller replay
        t1 = time.perf_counter()
        run_search(spec, store, policy=policy, max_points=max_points,
                   execute=False)
        replay_wall = time.perf_counter() - t1

    summary = verdict["search"]
    return {
        "benchmark": "search-fidelity",
        "quick": quick,
        "spec": str(spec_path.relative_to(REPO_ROOT))
        if spec_path.is_relative_to(REPO_ROOT) else str(spec_path),
        "search": summary["name"],
        "objective": summary["objective"],
        "grid_points": summary["grid_points"],
        "winner_match": verdict["winner_match"],
        "search_winner": verdict["search_winner"],
        "grid_winner": verdict["grid_winner"],
        "cost": verdict["cost"],
        "funnel": [
            {
                "rung": r["index"],
                "points_in": r["points_in"],
                "promoted": len((r["decision"] or {}).get("survivors", []))
                + len((r["decision"] or {}).get("ambiguous", [])),
                "eliminated": len(
                    (r["decision"] or {}).get("eliminated", [])
                ),
                "extra_rounds": r["extra_rounds"],
                "rows": r["rows_total"],
                "units": r["units"],
            }
            for r in summary["rungs"]
        ],
        "rows": {
            "search": summary["total"],
            "exhaustive": verdict["exhaustive"]["total"],
            "failed": summary["failed"] + verdict["exhaustive"]["failed"],
        },
        "wall_seconds": round(wall, 3),
        "replay_seconds": round(replay_wall, 3),
        "db": str(state),
    }


def format_bench(record: dict) -> str:
    cost = record["cost"]
    lines = [
        f"search fidelity bench ({'quick' if record['quick'] else 'full'}): "
        f"{record['search']} over {record['grid_points']} points",
        f"  winner match   {record['winner_match']}"
        + (
            f" ({record['search_winner']['point_id']})"
            if record["search_winner"]
            else ""
        ),
        f"  cost           {cost['search_units']} / {cost['exhaustive_units']}"
        f" units = {100 * cost['fraction']:.1f}% of exhaustive",
        "  funnel         "
        + " -> ".join(
            f"{f['points_in']}" for f in record["funnel"]
        )
        + (
            f" -> {record['funnel'][-1]['promoted']}"
            if record["funnel"]
            else ""
        ),
        f"  rows           search {record['rows']['search']}, "
        f"exhaustive {record['rows']['exhaustive']}, "
        f"failed {record['rows']['failed']}",
        f"  wall           {record['wall_seconds']} s "
        f"(replay {record['replay_seconds']} s)",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", type=Path, default=DEFAULT_SPEC,
                        help="search spec to benchmark")
    parser.add_argument("--db", type=Path, default=None,
                        help="result store path (default: fresh temp dir)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode (the smoke grid is already "
                             "small; kept for CLI parity)")
    parser.add_argument("--no-write", action="store_true",
                        help="print results without rewriting the record")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless the winner matched and "
                             "the cost fraction stayed under --max-fraction")
    parser.add_argument("--max-fraction", type=float, default=0.6,
                        help="cost-fraction budget for --check")
    args = parser.parse_args(argv)

    record = run_fidelity_bench(args.spec, args.db, quick=args.quick)
    print(format_bench(record))
    if not args.no_write:
        args.output.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    if args.check:
        if not record["winner_match"]:
            print("CHECK FAILED: search winner != exhaustive winner")
            return 1
        if record["cost"]["fraction"] >= args.max_fraction:
            print(
                f"CHECK FAILED: cost fraction "
                f"{record['cost']['fraction']:.3f} >= {args.max_fraction}"
            )
            return 1
        print(
            f"check passed: winner matched at "
            f"{100 * record['cost']['fraction']:.1f}% of exhaustive cost"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
