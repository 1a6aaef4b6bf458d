"""Experiment harness: reproduces every table and figure of the paper.

Each experiment in :mod:`repro.harness.experiments` regenerates one
artifact from the evaluation section (see DESIGN.md §4 for the index).
Results come back as structured objects with ``format_table()`` for
human-readable output; the benchmark suite under ``benchmarks/`` drives
them through pytest-benchmark.
"""

from repro.harness.bench import (
    TABLE1_POINTS,
    BenchPoint,
    format_bench,
    load_bench,
    run_bench,
    run_point,
    trace_point,
    write_bench,
)
from repro.harness.export import (
    load_result_json,
    result_to_csv,
    result_to_dict,
    result_to_json,
    stats_to_dict,
)
from repro.harness.cache import ResultCache, default_cache_dir, task_key
from repro.harness.checkpoint import (
    CheckpointStore,
    arch_key,
    default_checkpoint_dir,
    load_checkpoint,
    resolve_checkpoints,
    save_checkpoint,
)
from repro.harness.metrics import geomean_speedup, percent_speedup
from repro.harness.parallel import SimulationError, run_simulations
from repro.harness.policy import (
    DISPATCH_MODES,
    ExecutionPolicy,
    resolve_cache,
    resolve_dispatch,
    resolve_jobs,
    resolve_workers,
)
from repro.harness.runner import (
    ModeResult,
    RunSpec,
    compare_modes,
    default_length,
    run_once,
)
from repro.harness.session import ConfigFactory, Session
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
    "BenchPoint",
    "CheckpointStore",
    "ConfigFactory",
    "DISPATCH_MODES",
    "ExecutionPolicy",
    "resolve_cache",
    "resolve_dispatch",
    "resolve_jobs",
    "resolve_workers",
    "arch_key",
    "default_checkpoint_dir",
    "load_checkpoint",
    "resolve_checkpoints",
    "save_checkpoint",
    "EXPERIMENTS",
    "ExperimentResult",
    "Session",
    "SimulationError",
    "TABLE1_POINTS",
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
    "format_bench",
    "geomean_speedup",
    "load_bench",
    "load_result_json",
    "percent_speedup",
    "result_to_csv",
    "result_to_dict",
    "result_to_json",
    "stats_to_dict",
    "run_bench",
    "run_once",
    "run_point",
    "run_simulations",
    "trace_point",
    "sec4_prefetcher_ablation",
    "task_key",
    "sec51_selectors",
    "sec53_store_buffer",
    "sec54_dfcm_vs_wf",
    "sec56_multivalue",
    "write_bench",
]
