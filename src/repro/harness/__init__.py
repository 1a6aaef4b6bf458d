"""Experiment harness: reproduces every table and figure of the paper.

Each experiment in :mod:`repro.harness.experiments` regenerates one
artifact from the evaluation section (see DESIGN.md §4 for the index).
Results come back as structured objects with ``format_table()`` for
human-readable output; the benchmark suite under ``benchmarks/`` drives
them through pytest-benchmark.  Host time is measured by the suite
benchmark under ``bench/``, which shares :func:`repro.harness.bench.stats_digest`
with the golden tests.
"""

from repro.harness.export import result_to_csv, result_to_dict, result_to_json
from repro.harness.cache import ResultCache, default_cache_dir, task_key
from repro.harness.checkpoint import (
    CheckpointStore,
    arch_key,
    default_checkpoint_dir,
    resolve_checkpoints,
)
from repro.harness.metrics import geomean_speedup, percent_speedup
from repro.harness.parallel import SimulationError, run_simulations
from repro.harness.policy import ExecutionPolicy, resolve_cache, resolve_jobs
from repro.harness.runner import (
    ModeResult,
    RunSpec,
    compare_modes,
    default_length,
)
from repro.harness.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    ablation_memory_latency,
    fig1_oracle_potential,
    fig2_spawn_latency,
    fig3_realistic_wf,
    fig4_fetch_policy,
    fig5_multivalue_potential,
    fig6_wide_window,
    sec4_prefetcher_ablation,
    sec51_selectors,
    sec53_store_buffer,
    sec54_dfcm_vs_wf,
    sec56_multivalue,
)

__all__ = [
    "CheckpointStore",
    "ExecutionPolicy",
    "resolve_cache",
    "resolve_jobs",
    "arch_key",
    "default_checkpoint_dir",
    "resolve_checkpoints",
    "EXPERIMENTS",
    "ExperimentResult",
    "SimulationError",
    "ablation_memory_latency",
    "ModeResult",
    "ResultCache",
    "RunSpec",
    "compare_modes",
    "default_cache_dir",
    "default_length",
    "fig1_oracle_potential",
    "fig2_spawn_latency",
    "fig3_realistic_wf",
    "fig4_fetch_policy",
    "fig5_multivalue_potential",
    "fig6_wide_window",
    "geomean_speedup",
    "percent_speedup",
    "result_to_csv",
    "result_to_dict",
    "result_to_json",
    "run_simulations",
    "sec4_prefetcher_ablation",
    "task_key",
    "sec51_selectors",
    "sec53_store_buffer",
    "sec54_dfcm_vs_wf",
    "sec56_multivalue",
]
