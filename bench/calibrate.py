#!/usr/bin/env python3
"""Run the benchmark repeatedly and propose each metric's regression bound.

    python3 bench/calibrate.py                       # 5 runs of every workload
    python3 bench/calibrate.py --runs 10 --workload suite

Every run is a separate invocation of bench/run.py with its own seed
(seed0, seed0+1, ...), one at a time.  For each workload and end-to-end
metric this prints the median and the relative IQR (distance between the
first and third quartile over the median), then per metric the proposed
bound:

* timings: max(2%, 4 x the worst relative IQR of any workload), so the
  spread a re-measurement sees stays under a third of the bound;
* peak_rss_mb: the same with a 5% floor;
* setup_s: 25%, the largest bound, because a run's set-ups are short and
  their spread is not gated.

A bound above 25% is not allowed: the workload must then be lengthened
(more passes) or the metric dropped.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time

import run

MAX_BOUND = 0.25
FLOORS = {"setup_s": MAX_BOUND, "peak_rss_mb": 0.05}


def relative_iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed0", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--workload", choices=run.WORKLOADS, action="append",
                        help="repeatable; default every workload")
    args = parser.parse_args(argv)

    worst: dict[str, float] = {}
    ok = True
    for workload in args.workload or run.WORKLOADS:
        values: dict[str, list[float]] = {name: [] for name, _ in run.END_TO_END}
        walls = []
        for i in range(args.runs):
            t0 = time.perf_counter()
            result = run.run_subprocess(workload, args.seed0 + i, args.seconds, 0, echo=False)
            walls.append(time.perf_counter() - t0)
            ok &= result["correct"]
            for name in values:
                if name in result["metrics"]:
                    values[name].append(result["metrics"][name]["value"])
        print(f"== {workload}: {args.runs} runs, wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        for name, unit in run.END_TO_END:
            vals = values[name]
            if len(vals) < 2:
                print(f"{name:12s} missing")
                ok = False
                continue
            spread = relative_iqr(vals)
            worst[name] = max(worst.get(name, 0.0), spread)
            print(f"{name:12s} median {statistics.median(vals):10.4g} {unit:5s} "
                  f"iqr {spread:6.2%}  values {' '.join(f'{v:.4g}' for v in vals)}")

    print("== proposed bounds")
    for name, _ in run.END_TO_END:
        if name not in worst:
            continue
        if name == "setup_s":
            bound = MAX_BOUND
        else:
            bound = math.ceil(max(FLOORS.get(name, 0.02), 4 * worst[name]) * 100) / 100
        note = "" if bound <= MAX_BOUND else "  TOO NOISY: lengthen the workload or drop it"
        print(f"{name:12s} worst iqr {worst[name]:6.2%}  bound {bound:.2f}{note}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
