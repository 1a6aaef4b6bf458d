#!/usr/bin/env python
"""Measure engine throughput and refresh ``BENCH_engine.json``.

Runs the fixed Table 1 bench points from :mod:`repro.harness.bench`,
prints a comparison table (vs the recorded pre-optimization engine and
vs the committed previous run), and rewrites the JSON record at the
repository root.  Non-gating by default: the script exits 0 on a
completed run — regressions are surfaced as numbers for a human to
judge, since wall-clock on shared CI machines is too noisy for a hard
threshold.  ``--assert-within PCT`` opts into gating: exit 1 if any
point's throughput fell more than PCT percent below the committed
record (the observability PR uses this to hold the disabled-tracer
overhead to the noise floor).

``--trace-out FILE`` additionally runs one fully observed (tracer +
metrics) simulation of the MTVP point and exports a Chrome trace — CI
uploads it as an artifact, and its stats digest is cross-checked against
the untraced run's to prove instrumentation stayed read-only.

Usage::

    PYTHONPATH=src python benchmarks/bench_throughput.py
    PYTHONPATH=src python benchmarks/bench_throughput.py --quick --no-write
    PYTHONPATH=src python benchmarks/bench_throughput.py \
        --no-write --assert-within 10 --trace-out trace.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.harness.bench import (  # noqa: E402  (path bootstrap above)
    TABLE1_POINTS,
    check_regression,
    format_bench,
    load_bench,
    run_bench,
    trace_point,
    write_bench,
)

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_engine.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help="where to write the JSON record (default: BENCH_engine.json "
             "at the repository root)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timed runs per point; the best rate is kept (default: 3)",
    )
    parser.add_argument(
        "--length", type=int, default=None,
        help="override the trace length of every point (loses the "
             "pre-optimization comparison, which is length-specific)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: shorthand for --repeats 1 --length 3000",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="print the table but leave the JSON record untouched",
    )
    parser.add_argument(
        "--assert-within", type=float, default=None, metavar="PCT",
        help="exit 1 if any point's throughput is more than PCT%% below "
             "the committed record (same-length points only)",
    )
    parser.add_argument(
        "--trace-out", type=Path, default=None, metavar="FILE",
        help="also run one observed MTVP simulation and export a Chrome "
             "trace to FILE, cross-checking its stats digest",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.repeats = 1
        args.length = args.length or 3000

    previous = load_bench(args.output)
    results = run_bench(repeats=args.repeats, length=args.length)
    print(format_bench(results, previous))

    exit_code = 0
    if args.assert_within is not None:
        exit_code = check_regression(results, previous, args.assert_within)

    if args.trace_out is not None:
        mtvp_point = TABLE1_POINTS[-1]
        traced = trace_point(mtvp_point, args.trace_out, length=args.length)
        summary = traced["trace"]
        print(
            f"traced {mtvp_point.name}: {summary['retained']} events across "
            f"{summary['threads']} context lanes -> {args.trace_out}"
        )
        untraced = next(
            p for p in results["points"] if p["name"] == mtvp_point.name
        )
        if traced["stats_digest"] != untraced["stats_digest"]:
            print("FAIL: traced run's stats digest differs from untraced run")
            exit_code = 1
        else:
            print("traced stats digest matches untraced run (read-only probe)")

    if not args.no_write:
        write_bench(results, args.output)
        print(f"wrote {args.output}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
