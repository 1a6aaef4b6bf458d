"""Resumable execution of sweep campaigns.

:func:`run_sweep` drives a :class:`~repro.sweep.spec.SweepSpec` to
completion against a :class:`~repro.sweep.store.ResultStore`:

1. expand the spec into points, replicate over seeds, pair every
   ``(workload, length, seed)`` with a baseline (denominator) run, and
   ``INSERT OR IGNORE`` the rows — done rows from a previous launch keep
   their results, which is the whole resume story;
2. ask the store for runnable rows and fan them out through
   :func:`~repro.harness.parallel.run_simulations` in **chunks**, with
   ``on_error="collect"`` so one crashing worker marks its row failed
   instead of killing the pool, committing each chunk's outcomes before
   starting the next — an interrupt loses at most one chunk of marks (and
   the :class:`~repro.harness.cache.ResultCache`, when enabled, still
   remembers even those simulations);
3. loop until nothing is runnable: failed rows are retried while their
   attempt budget lasts, then stay ``failed`` — the campaign finishes with
   a partial-results summary rather than an abort.

Campaigns may also run *concurrently* against one store (several
processes): rows are then taken through
:meth:`~repro.sweep.store.ResultStore.claim` — a conditional update that
names exactly one winner per row — a ``stale_after`` window keeps live
claims from being stolen, and a heartbeat thread refreshes
``updated_at`` on claimed rows while their chunk simulates, so a slow
point is distinguishable from a crashed process.  That is the one
route for several processes sharing a store: each runs ``sweep run
--stale-after S`` on the same ``--db``.

*Where* the simulations execute is the
:class:`~repro.harness.policy.ExecutionPolicy`'s job count alone: one
job drains serially in this process, more fan chunks over a process
pool; see :func:`~repro.sweep.drain.drain_campaign`, which owns the
claim → simulate → commit loop and runs the
:class:`~repro.harness.runner.RunSpec` objects the spec built at load.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from pathlib import Path

from repro.harness.policy import ExecutionPolicy
from repro.sweep.drain import drain_campaign
from repro.sweep.spec import SweepPoint, SweepSpec
from repro.sweep.store import ResultStore


def default_db_path(spec_path: str | Path) -> Path:
    """Where a spec's results live by default: ``<spec>.db`` next to it."""
    return Path(spec_path).with_suffix(".db")


@dataclasses.dataclass
class CampaignSummary:
    """Outcome of one :func:`run_sweep` invocation."""

    sweep: str
    total: int        #: rows this campaign covers (points × seeds + baselines)
    done: int         #: rows done after this invocation
    failed: int       #: rows failed with their retry budget exhausted
    simulated: int    #: tasks simulated this invocation (0 on a no-op resume)
    skipped: int      #: rows already done when this invocation started
    retried: int      #: failed-row retry dispatches among ``simulated``
    cached: int = 0   #: tasks the result cache served this invocation

    @property
    def complete(self) -> bool:
        return self.done == self.total

    def format(self) -> str:
        status = "complete" if self.complete else (
            f"partial ({self.failed} failed)" if self.failed else "incomplete"
        )
        return (
            f"sweep {self.sweep}: {self.done}/{self.total} rows done, "
            f"{self.simulated} simulated, {self.cached} cached "
            f"({self.retried} retries), "
            f"{self.skipped} already done — {status}"
        )


def store_rows(
    spec: SweepSpec,
    points: list[SweepPoint],
    seeds,
    index_of: dict[str, int] | None = None,
) -> list[dict]:
    """Store rows for ``points`` × ``seeds``, plus the paired baselines.

    A point row's ``idx`` is ``index_of[point_id]`` when given (a search
    rung keeps each point's original grid index), else the point's
    position in ``points``.  Each row carries its point's recipe as
    ``params`` and its encoded column text as ``params_text``.
    """
    rows: list[dict] = []
    for pos, point in enumerate(points):
        idx = pos if index_of is None else index_of[point.point_id]
        for seed in seeds:
            rows.append({
                "point_id": point.point_id,
                "seed": seed,
                "role": "point",
                "idx": idx,
                "workload": point.workload,
                "length": point.length,
                "params": point.params,
                "params_text": point.params_text,
            })
    for workload, length in dict.fromkeys((p.workload, p.length) for p in points):
        base = spec.baseline_point(workload, length)
        for seed in seeds:
            rows.append({
                "point_id": base.point_id,
                "seed": seed,
                "role": "baseline",
                "idx": -1,
                "workload": workload,
                "length": length,
                "params": base.params,
                "params_text": base.params_text,
            })
    return rows


def campaign_rows(spec: SweepSpec, max_points: int | None = None) -> list[dict]:
    """The store rows a spec expands to (points × seeds, plus baselines)."""
    points = spec.expand()
    if max_points is not None:
        points = points[:max_points]
    return store_rows(spec, points, spec.seeds)


def run_sweep(
    spec: SweepSpec,
    store: ResultStore,
    *,
    policy: ExecutionPolicy | None = None,
    max_points: int | None = None,
    echo=None,
    progress=None,
) -> CampaignSummary:
    """Run (or resume) a sweep campaign; see the module docstring.

    Args:
        spec: The campaign description.
        store: The persistent results store (rows keyed by ``spec.name``).
        policy: An :class:`~repro.harness.policy.ExecutionPolicy`; the
            fields a campaign consumes:

            * ``jobs`` — where simulations execute (see
              :func:`~repro.sweep.drain.drain_campaign`);
            * ``cache`` — strongly recommended for campaigns: it
              de-duplicates baselines across sweeps and makes
              interrupted chunks free to recompute;
            * ``retries`` — extra attempts per failed row (default
              ``spec.retries``);
            * ``chunk`` — tasks per commit batch (default scales with
              ``jobs``); smaller chunks tighten the resume granularity;
            * ``checkpoints`` — warmup-checkpoint store for campaigns
              with ``spec.warmup`` set: the first point pays the
              functional fast-forward, every later point sharing its
              architectural axes restores it.  Hit/store counts are
              echoed with the summary;
            * ``stale_after`` — seconds after which a ``running`` claim
              with no heartbeat counts as crashed and may be re-claimed.
              ``None`` (the single-campaign default) presumes every
              running row stale, which is correct for resuming after a
              crash but unsafe when campaigns share a store; concurrent
              callers must pass a window;
            * ``heartbeat`` — seconds between ``updated_at`` touches on
              claimed rows while a chunk simulates (``None`` =
              ``stale_after / 6`` clamped to 0.5–10 s when
              ``stale_after`` is set, else none).
        max_points: Truncate the expansion to its first N points.
        echo: Optional ``print``-like progress callback.
        progress: Optional callback receiving per-task progress dicts
            (see :func:`~repro.harness.parallel.run_simulations`).
    """
    policy = policy if policy is not None else ExecutionPolicy()
    if policy.retries is None:
        policy = policy.merged(retries=spec.retries)

    say = echo if echo is not None else (lambda *_: None)
    rows = campaign_rows(spec, max_points)
    inserted = store.ensure(spec.name, rows)
    mine = {(r["point_id"], r["seed"]) for r in rows}
    say(f"{spec.name}: {len(rows)} rows ({inserted} new)")

    def tally() -> Counter:
        """This campaign's rows per status."""
        return Counter(
            status
            for pid, seed, status in store.statuses(spec.name)
            if (pid, seed) in mine
        )

    initially_done = tally()["done"]

    counters = drain_campaign(
        store,
        spec.name,
        policy,
        spec.run_specs(spec.warmup, spec.sample),
        mine,
        echo=say,
        progress=progress,
    )

    final = tally()
    summary = CampaignSummary(
        sweep=spec.name,
        total=len(mine),
        done=final["done"],
        failed=final["failed"],
        simulated=counters.get("simulated", 0),
        skipped=initially_done,
        retried=counters.get("retried", 0),
        cached=counters.get("cached", 0),
    )
    if counters.get("ckpt_enabled"):
        # a pooled campaign's counts include what its pool children did
        say(
            f"{spec.name}: warmup checkpoints: "
            f"{counters.get('ckpt_hits', 0)} restored, "
            f"{counters.get('ckpt_stores', 0)} stored"
        )
    say(summary.format())
    return summary
