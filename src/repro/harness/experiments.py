"""The paper's evaluation, experiment by experiment.

Every public function regenerates one table/figure from the paper (the
experiment index lives in DESIGN.md §4) and returns an
:class:`ExperimentResult` whose rows mirror the artifact's series.  Each
takes a trace ``length`` and, as ``policy=``, the
:class:`~repro.harness.policy.ExecutionPolicy` its simulations run under.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable

from repro import select, vp
from repro.core import FetchPolicy, MachineConfig
from repro.harness.metrics import geomean_speedup
from repro.harness.parallel import run_simulations
from repro.harness.policy import ExecutionPolicy
from repro.harness.runner import ModeResult, RunSpec, compare_modes, default_length
from repro.memory import MemLevel
from repro.workloads import SPEC_FP, SPEC_INT, get_workload


@dataclasses.dataclass
class ExperimentResult:
    """Structured output of one reproduced experiment."""

    experiment_id: str
    title: str
    columns: list[str]
    rows: list[dict]
    summary: dict

    def format_table(self) -> str:
        """Render the rows as a fixed-width ASCII table."""
        widths = {
            c: max(len(c), *(len(_fmt(r.get(c))) for r in self.rows)) if self.rows
            else len(c)
            for c in self.columns
        }
        header = "  ".join(c.ljust(widths[c]) for c in self.columns)
        lines = [self.title, "=" * len(header), header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                "  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in self.columns)
            )
        if self.summary:
            lines.append("-" * len(header))
            for key, value in self.summary.items():
                lines.append(f"{key}: {_fmt(value)}")
        return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if 0 < abs(value) < 1:
            return f"{value:+.3f}"
        return f"{value:+.1f}" if abs(value) < 1000 else f"{value:.3g}"
    return str(value)


def _suite_geomeans(results: dict[str, list[ModeResult]]) -> dict:
    summary: dict[str, float] = {}
    for mode, rows in results.items():
        for suite in ("int", "fp"):
            pts = [r.speedup_percent for r in rows if r.suite == suite]
            if pts:
                summary[f"{mode} geomean {suite.upper()} %"] = geomean_speedup(pts)
    return summary


def _speedup_rows(
    results: dict[str, list[ModeResult]], mode_names: list[str]
) -> list[dict]:
    rows: list[dict] = []
    first = results[mode_names[0]]
    for i, base_row in enumerate(first):
        row = {"workload": base_row.workload, "suite": base_row.suite}
        for mode in mode_names:
            row[mode] = results[mode][i].speedup_percent
        rows.append(row)
    return rows


ALL = SPEC_INT + SPEC_FP


#: the "more liberal predictor" of Section 5.6: a softer threshold and
#: penalty keep a secondary candidate over threshold without opening the
#: door to junk predictions on unpredictable loads.  A registry factory is
#: a ``functools.partial`` over the class, so multi-value runs stay
#: picklable for the process pool and stably hashable for the result cache.
_liberal_wf = vp.factory("wang-franklin", threshold=8, penalty=4)


# ----------------------------------------------------------------------
# Figure 1: potential of multithreaded value prediction (oracle predictor)
# ----------------------------------------------------------------------
def fig1_oracle_potential(
    length: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> ExperimentResult:
    """Figure 1: % change in useful IPC with an oracle value predictor.

    STVP vs MTVP with 2/4/8 total threads, ILP-pred load selection, the
    idealized conditions of Section 5.1 (1-cycle spawn, unbounded store
    buffer, fetch stalls on the spawning thread).
    """
    idealized = dict(spawn_latency=1, store_buffer_entries=None)
    specs = [
        RunSpec("stvp", functools.partial(MachineConfig.stvp)),
        RunSpec("mtvp2", functools.partial(MachineConfig.mtvp, 2, **idealized)),
        RunSpec("mtvp4", functools.partial(MachineConfig.mtvp, 4, **idealized)),
        RunSpec("mtvp8", functools.partial(MachineConfig.mtvp, 8, **idealized)),
    ]
    results = compare_modes(ALL, specs, length=length, policy=policy)
    mode_names = [s.name for s in specs]
    return ExperimentResult(
        experiment_id="fig1",
        title="Figure 1: Change in Useful IPC with Oracle Value Prediction (%)",
        columns=["workload", "suite"] + mode_names,
        rows=_speedup_rows(results, mode_names),
        summary=_suite_geomeans(results),
    )


# ----------------------------------------------------------------------
# Figure 2: sensitivity to thread spawn latency
# ----------------------------------------------------------------------
def fig2_spawn_latency(
    length: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> ExperimentResult:
    """Figure 2: average speedups with 1/8/16-cycle spawn latencies."""
    rows: list[dict] = []
    summary: dict = {}
    for latency in (1, 8, 16):
        specs = [
            RunSpec("stvp", functools.partial(MachineConfig.stvp)),
            RunSpec(
                "mtvp2", functools.partial(MachineConfig.mtvp, 2, spawn_latency=latency)
            ),
            RunSpec(
                "mtvp4", functools.partial(MachineConfig.mtvp, 4, spawn_latency=latency)
            ),
            RunSpec(
                "mtvp8", functools.partial(MachineConfig.mtvp, 8, spawn_latency=latency)
            ),
        ]
        results = compare_modes(ALL, specs, length=length, policy=policy)
        for suite in ("int", "fp"):
            row = {"spawn latency": f"{latency} cyc", "suite": suite}
            for mode, mode_rows in results.items():
                pts = [r.speedup_percent for r in mode_rows if r.suite == suite]
                row[mode] = geomean_speedup(pts)
            rows.append(row)
    return ExperimentResult(
        experiment_id="fig2",
        title="Figure 2: Speedup vs thread spawn latency (geomean %)",
        columns=["spawn latency", "suite", "stvp", "mtvp2", "mtvp4", "mtvp8"],
        rows=rows,
        summary=summary,
    )


# ----------------------------------------------------------------------
# Section 5.3: store buffer size sweep
# ----------------------------------------------------------------------
def sec53_store_buffer(
    length: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> ExperimentResult:
    """Section 5.3: speculation distance vs store-buffer capacity.

    The paper reports performance "begins to tail off at 64 and below
    entries" while "a 128-entry buffer gets nearly the performance of the
    largest buffer we simulate".
    """
    sizes: list[int | None] = [16, 32, 64, 128, 256, 512, None]
    rows: list[dict] = []
    for size in sizes:
        spec = RunSpec(
            f"sb{size or 'inf'}",
            functools.partial(MachineConfig.mtvp, 8, store_buffer_entries=size),
        )
        results = compare_modes(ALL, [spec], length=length, policy=policy)
        mode_rows = results[spec.name]
        row = {"store buffer": str(size) if size else "unlimited"}
        for suite in ("int", "fp"):
            pts = [r.speedup_percent for r in mode_rows if r.suite == suite]
            row[f"geomean {suite} %"] = geomean_speedup(pts)
        stalls = sum(r.stats.store_buffer_stalls for r in mode_rows)
        row["sb stalls"] = stalls
        rows.append(row)
    return ExperimentResult(
        experiment_id="sec5.3",
        title="Section 5.3: MTVP-8 speedup vs store buffer size",
        columns=["store buffer", "geomean int %", "geomean fp %", "sb stalls"],
        rows=rows,
        summary={},
    )


# ----------------------------------------------------------------------
# Figure 3: realistic Wang-Franklin predictor
# ----------------------------------------------------------------------
def fig3_realistic_wf(
    length: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> ExperimentResult:
    """Figure 3: useful-IPC change with the hybrid Wang-Franklin predictor.

    Realistic conditions: 8-cycle spawn latency, 128-entry store buffer.
    """
    specs = [
        RunSpec("stvp", functools.partial(MachineConfig.stvp),
                predictor_factory="wang-franklin"),
        RunSpec("mtvp2", functools.partial(MachineConfig.mtvp, 2),
                predictor_factory="wang-franklin"),
        RunSpec("mtvp4", functools.partial(MachineConfig.mtvp, 4),
                predictor_factory="wang-franklin"),
        RunSpec("mtvp8", functools.partial(MachineConfig.mtvp, 8),
                predictor_factory="wang-franklin"),
    ]
    results = compare_modes(ALL, specs, length=length, policy=policy)
    mode_names = [s.name for s in specs]
    return ExperimentResult(
        experiment_id="fig3",
        title="Figure 3: Change in Useful IPC with a realistic Wang-Franklin predictor (%)",
        columns=["workload", "suite"] + mode_names,
        rows=_speedup_rows(results, mode_names),
        summary=_suite_geomeans(results),
    )


# ----------------------------------------------------------------------
# Figure 4: fetch policy (single fetch path vs no-stall)
# ----------------------------------------------------------------------
def fig4_fetch_policy(
    length: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> ExperimentResult:
    """Figure 4: letting the parent keep fetching is counterproductive."""
    specs = [
        RunSpec("stvp", functools.partial(MachineConfig.stvp),
                predictor_factory="wang-franklin"),
        RunSpec("mtvp sfp", functools.partial(MachineConfig.mtvp, 8),
                predictor_factory="wang-franklin"),
        RunSpec(
            "mtvp no stall",
            functools.partial(
                MachineConfig.mtvp, 8, fetch_policy=FetchPolicy.NO_STALL
            ),
            predictor_factory="wang-franklin",
        ),
    ]
    results = compare_modes(ALL, specs, length=length, policy=policy)
    mode_names = [s.name for s in specs]
    return ExperimentResult(
        experiment_id="fig4",
        title="Figure 4: fetch policies — single fetch path vs no-stall (%)",
        columns=["workload", "suite"] + mode_names,
        rows=_speedup_rows(results, mode_names),
        summary=_suite_geomeans(results),
    )


# ----------------------------------------------------------------------
# Figure 5: multiple-value potential
# ----------------------------------------------------------------------
def fig5_multivalue_potential(
    length: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> ExperimentResult:
    """Figure 5: fraction of followed predictions whose primary value was
    wrong while the correct value sat in the predictor over threshold."""
    spec = RunSpec(
        "mtvp8 mv",
        functools.partial(MachineConfig.mtvp, 8, collect_multivalue=True),
        predictor_factory="wang-franklin",
        selector_factory="ilp-pred",
    )
    n = length or default_length()
    all_stats = run_simulations([(name, spec, n, 0) for name in ALL], policy=policy)
    rows: list[dict] = []
    for name, stats in zip(ALL, all_stats):
        rows.append(
            {
                "workload": name,
                "suite": get_workload(name).suite,
                "followed": stats.followed_predictions,
                "fraction": round(stats.multivalue_fraction, 4),
            }
        )
    fractions = [r["fraction"] for r in rows]
    return ExperimentResult(
        experiment_id="fig5",
        title="Figure 5: primary wrong but correct value present & over threshold",
        columns=["workload", "suite", "followed", "fraction"],
        rows=rows,
        summary={"max fraction": max(fractions), "mean fraction": sum(fractions) / len(fractions)},
    )


# ----------------------------------------------------------------------
# Section 5.6: multiple-value MTVP on swim and parser
# ----------------------------------------------------------------------
def sec56_multivalue(
    length: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> ExperimentResult:
    """Section 5.6: a liberal predictor + L3-miss oracle selector make
    multiple-value MTVP profitable on swim and parser."""
    names = ("swim", "parser")
    n = length or default_length()
    specs = [
        RunSpec("base", MachineConfig.hpca05_baseline),
        RunSpec("single", functools.partial(MachineConfig.mtvp, 8),
                predictor_factory="wang-franklin",
                selector_factory="ilp-pred"),
        RunSpec(
            "multi",
            functools.partial(MachineConfig.mtvp, 8, multi_value=2),
            predictor_factory=_liberal_wf,
            selector_factory=select.factory("miss-oracle", mtvp_level=MemLevel.L3),
        ),
    ]
    tasks = [(name, spec, n, 0) for name in names for spec in specs]
    all_stats = run_simulations(tasks, policy=policy)
    rows: list[dict] = []
    for i, name in enumerate(names):
        base, single, multi = all_stats[i * len(specs): (i + 1) * len(specs)]
        rows.append(
            {
                "workload": name,
                "single-value %": 100.0 * (single.useful_ipc / base.useful_ipc - 1),
                "multi-value %": 100.0 * (multi.useful_ipc / base.useful_ipc - 1),
                "multi spawns": multi.spawns,
            }
        )
    return ExperimentResult(
        experiment_id="sec5.6",
        title="Section 5.6: multiple-value MTVP (liberal W-F + L3-miss oracle)",
        columns=["workload", "single-value %", "multi-value %", "multi spawns"],
        rows=rows,
        summary={},
    )


# ----------------------------------------------------------------------
# Figure 6: wide-window / spawn-only comparison
# ----------------------------------------------------------------------
def fig6_wide_window(
    length: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> ExperimentResult:
    """Figure 6: idealized 8K-entry-window machine vs best MTVP vs
    spawn-only (threads without value prediction)."""
    specs = [
        RunSpec("wide window", MachineConfig.wide_window),
        RunSpec("best mtvp", functools.partial(MachineConfig.mtvp, 8),
                predictor_factory="wang-franklin"),
        RunSpec("spawn only", functools.partial(MachineConfig.spawn_only, 8)),
    ]
    results = compare_modes(ALL, specs, length=length, policy=policy)
    rows: list[dict] = []
    for suite in ("int", "fp"):
        row = {"suite": f"AVG {suite.upper()}"}
        for mode, mode_rows in results.items():
            pts = [r.speedup_percent for r in mode_rows if r.suite == suite]
            row[mode] = geomean_speedup(pts)
        rows.append(row)
    return ExperimentResult(
        experiment_id="fig6",
        title="Figure 6: wide-window vs MTVP vs spawn-only (geomean %)",
        columns=["suite", "wide window", "best mtvp", "spawn only"],
        rows=rows,
        summary=_suite_geomeans(results),
    )


# ----------------------------------------------------------------------
# Section 5.4 (in text): DFCM-3 underperforms the Wang-Franklin hybrid
# ----------------------------------------------------------------------
def sec54_dfcm_vs_wf(
    length: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> ExperimentResult:
    """Section 5.4: the more aggressive DFCM makes more predictions, both
    correct and incorrect, and ends up behind the W-F hybrid under MTVP."""
    specs = [
        RunSpec("mtvp8 wf", functools.partial(MachineConfig.mtvp, 8),
                predictor_factory="wang-franklin"),
        RunSpec("mtvp8 dfcm", functools.partial(MachineConfig.mtvp, 8),
                predictor_factory="dfcm"),
    ]
    results = compare_modes(ALL, specs, length=length, policy=policy)
    mode_names = [s.name for s in specs]
    rows = _speedup_rows(results, mode_names)
    for i, row in enumerate(rows):
        wf_stats = results["mtvp8 wf"][i].stats
        dfcm_stats = results["mtvp8 dfcm"][i].stats
        row["wf preds"] = wf_stats.total_predictions
        row["dfcm preds"] = dfcm_stats.total_predictions
        row["wf acc"] = round(wf_stats.prediction_accuracy, 3)
        row["dfcm acc"] = round(dfcm_stats.prediction_accuracy, 3)
    return ExperimentResult(
        experiment_id="sec5.4",
        title="Section 5.4: Wang-Franklin hybrid vs third-order DFCM under MTVP-8 (%)",
        columns=["workload", "suite", "mtvp8 wf", "mtvp8 dfcm",
                 "wf preds", "dfcm preds", "wf acc", "dfcm acc"],
        rows=rows,
        summary=_suite_geomeans(results),
    )


# ----------------------------------------------------------------------
# Section 5.1 (in text): load selector comparison
# ----------------------------------------------------------------------
def sec51_selectors(
    length: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> ExperimentResult:
    """Section 5.1: the implementable ILP-pred selector is competitive
    with (on average better than) the unimplementable cache-miss oracle."""
    specs = [
        RunSpec("mtvp8 ilp-pred", functools.partial(MachineConfig.mtvp, 8),
                selector_factory="ilp-pred"),
        RunSpec("mtvp8 miss-oracle", functools.partial(MachineConfig.mtvp, 8),
                selector_factory="miss-oracle"),
        RunSpec("mtvp8 always", functools.partial(MachineConfig.mtvp, 8),
                selector_factory="always"),
    ]
    results = compare_modes(ALL, specs, length=length, policy=policy)
    rows: list[dict] = []
    for suite in ("int", "fp"):
        row = {"suite": f"AVG {suite.upper()}"}
        for mode, mode_rows in results.items():
            pts = [r.speedup_percent for r in mode_rows if r.suite == suite]
            row[mode] = geomean_speedup(pts)
        rows.append(row)
    return ExperimentResult(
        experiment_id="sec5.1",
        title="Section 5.1: load selector comparison under oracle MTVP-8 (geomean %)",
        columns=["suite", "mtvp8 ilp-pred", "mtvp8 miss-oracle", "mtvp8 always"],
        rows=rows,
        summary={},
    )


# ----------------------------------------------------------------------
# Section 4 (in text): prefetcher ablation
# ----------------------------------------------------------------------
def sec4_prefetcher_ablation(
    length: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> ExperimentResult:
    """Section 4: MTVP with and without the stride prefetcher.

    "We find that without a stride prefetcher the effect of multithreaded
    value prediction is greater and more consistent.  However even with a
    stride prefetcher we find very significant speedups are possible ...
    and the mechanisms appear to be highly complementary."  Each column's
    speedups are against the matching (with/without prefetcher) baseline,
    as in the paper.
    """
    rows: list[dict] = []
    for prefetch in (True, False):
        specs = [
            RunSpec(
                "mtvp8",
                functools.partial(MachineConfig.mtvp, 8, prefetch_enabled=prefetch),
            ),
        ]
        baseline = RunSpec(
            "base",
            functools.partial(
                MachineConfig.hpca05_baseline, prefetch_enabled=prefetch
            ),
        )
        results = compare_modes(ALL, specs, length=length, baseline=baseline, policy=policy)
        for suite in ("int", "fp"):
            pts = [r.speedup_percent for r in results["mtvp8"] if r.suite == suite]
            rows.append(
                {
                    "prefetcher": "on" if prefetch else "off",
                    "suite": suite,
                    "mtvp8 geomean %": geomean_speedup(pts),
                    "negative benchmarks": sum(1 for p in pts if p < -1.0),
                }
            )
    return ExperimentResult(
        experiment_id="sec4",
        title="Section 4: MTVP-8 speedup with and without the stride prefetcher",
        columns=["prefetcher", "suite", "mtvp8 geomean %", "negative benchmarks"],
        rows=rows,
        summary={},
    )


# ----------------------------------------------------------------------
# Ablation: gains versus main-memory latency (the paper's motivation)
# ----------------------------------------------------------------------
def ablation_memory_latency(
    length: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
) -> ExperimentResult:
    """Motivation check: MTVP's value grows with memory latency.

    The introduction argues traditional latency tolerance fails as
    latencies head toward 1000 cycles; this sweep shows the reproduction
    behaves accordingly — MTVP's advantage over the baseline widens as
    memory gets slower.
    """
    rows: list[dict] = []
    for latency in (250, 500, 1000, 2000):
        specs = [
            RunSpec(
                "stvp", functools.partial(MachineConfig.stvp, mem_latency=latency)
            ),
            RunSpec(
                "mtvp8", functools.partial(MachineConfig.mtvp, 8, mem_latency=latency)
            ),
        ]
        baseline = RunSpec(
            "base",
            functools.partial(MachineConfig.hpca05_baseline, mem_latency=latency),
        )
        results = compare_modes(ALL, specs, length=length, baseline=baseline, policy=policy)
        row = {"memory latency": f"{latency} cyc"}
        for mode, mode_rows in results.items():
            row[mode] = geomean_speedup([r.speedup_percent for r in mode_rows])
        rows.append(row)
    return ExperimentResult(
        experiment_id="ablation-latency",
        title="Ablation: speedup vs main-memory latency (geomean %, all workloads)",
        columns=["memory latency", "stvp", "mtvp8"],
        rows=rows,
        summary={},
    )


#: registry used by benchmarks and the CLI example
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig1": fig1_oracle_potential,
    "fig2": fig2_spawn_latency,
    "fig3": fig3_realistic_wf,
    "fig4": fig4_fetch_policy,
    "fig5": fig5_multivalue_potential,
    "fig6": fig6_wide_window,
    "sec4": sec4_prefetcher_ablation,
    "sec5.1": sec51_selectors,
    "sec5.3": sec53_store_buffer,
    "sec5.4": sec54_dfcm_vs_wf,
    "sec5.6": sec56_multivalue,
    "ablation-latency": ablation_memory_latency,
}
