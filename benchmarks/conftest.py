"""Shared configuration for the reproduction benchmarks.

Each benchmark module regenerates one table or figure from the paper
(DESIGN.md §4 maps them).  ``REPRO_TRACE_LEN`` scales the dynamic trace
length per simulation; at the default (8000) the 14 claim tests take
about a minute with ``REPRO_JOBS=2`` on a 2-core machine, and every
figure shape holds.  Raise it (e.g. 30000) for smoother numbers.

The experiment harness underneath honours two more environment knobs
(resolved in :mod:`repro.harness.parallel`, no per-test plumbing needed):

* ``REPRO_JOBS`` — fan simulations out over N worker processes
  (``0`` = all cores; unset = serial, so benchmark timings stay
  comparable by default);
* ``REPRO_CACHE_DIR`` — serve repeated simulations from an on-disk
  result cache.  The experiments share the Table 1 baseline and the
  MTVP-8 recipes, so with a fresh cache directory the 12 experiments
  behind the claims run 1,346 distinct simulations instead of 1,958
  (CI's paper-claims job uses one).  Point it at a fresh directory
  when timing: a warm cache turns the run into a measurement of JSON
  parsing.  Cache keys include the trace length and the source hash, so
  changing ``REPRO_TRACE_LEN`` or the code never serves stale numbers.
"""

import os

#: instructions per simulation in the benchmark suite
BENCH_LENGTH = int(os.environ.get("REPRO_TRACE_LEN", "8000"))

#: worker processes the harness fans out over for these benchmarks
#: (informational — the harness resolves REPRO_JOBS itself when the policy
#: leaves jobs unset)
BENCH_JOBS = int(os.environ.get("REPRO_JOBS", "1") or 1)


def emit(result):
    """Print an experiment's table so it lands in the benchmark log."""
    print()
    print(result.format_table())
    return result
