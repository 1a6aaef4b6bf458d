"""The successive-halving controller.

:func:`run_search` drives a :class:`~repro.search.spec.SearchSpec` rung
by rung against a shared :class:`~repro.sweep.store.ResultStore`:

1. expand the embedded sweep's grid once; rung 0 runs every point at the
   cheapest fidelity, each later rung runs only the promoted survivors;
2. each rung is an ordinary store sweep named ``{search}:rung{i}`` —
   rows are ``INSERT OR IGNORE``-ensured and drained through
   :func:`~repro.sweep.drain.drain_campaign`, so rungs inherit the
   whole sweep execution stack: resume, exactly-once owner-conditional
   commits, ``--dispatch local|pool``, the shared
   :class:`~repro.harness.cache.ResultCache` and warmup checkpoints;
3. after a rung drains, its rows are folded by
   :func:`~repro.sweep.stats.aggregate` at the spec's confidence level
   and cut by :func:`~repro.search.promote.promote`; points whose CI
   overlaps the cut get bandit-style *extra seed replicates* (up to
   ``max_extra_seeds`` rounds, allocated to every still-contending
   point) until the overlap resolves or the budget runs out, in which
   case the still-ambiguous points are promoted rather than truncated;
4. the winner is the best point by the objective at the final rung.

Every decision is a pure function of store contents (the bootstrap is
seeded, ranking ties break on grid order), so a controller killed at any
instant resumes to the same promotions and the same winner with zero
re-simulation of committed rows — and ``execute=False`` *replays* those
decisions without dispatching anything, which is how ``search status``
and ``search report`` read a campaign's state.

Rows carry their **original grid index** into every rung, so aggregate
ordering — and therefore tie-breaks — are identical between the search
and the exhaustive reference sweep the fidelity harness compares against.
"""

from __future__ import annotations

import dataclasses

from repro.harness.policy import ExecutionPolicy
from repro.search.promote import (
    PromotionDecision,
    objective_value,
    promote,
    rank_points,
)
from repro.search.spec import SearchSpec
from repro.sweep.drain import drain_campaign
from repro.sweep.execute import store_rows
from repro.sweep.spec import SweepSpec
from repro.sweep.stats import PointAggregate, aggregate
from repro.sweep.store import ResultStore


def _row_units(row: dict, sample: int | None, warmup: int) -> int:
    """Simulated instructions one store row costs under a rung protocol."""
    measured = sample if sample is not None else row["length"]
    return warmup + measured


@dataclasses.dataclass
class RungOutcome:
    """One rung's execution and promotion record."""

    index: int
    sweep: str                 #: store sweep name ({search}:rung{i})
    seeds: int                 #: base replicate count of the rung
    sample: int | None         #: measured-interval length (None = full)
    warmup: int                #: warmup instructions per row
    points_in: int             #: survivors entering this rung
    decision: PromotionDecision | None
    extra_rounds: int          #: bandit seed rounds spent (store-derived)
    rows_total: int
    rows_done: int
    rows_failed: int
    units: int                 #: scheduled work at this rung (instructions)
    simulated: int             #: tasks dispatched this invocation
    complete: bool             #: no pending/running rows remain

    @property
    def promoted(self) -> list[str]:
        if self.decision is None:
            return []
        return [a.point_id for a in self.decision.promoted]

    def to_dict(self) -> dict:
        out = {
            "index": self.index,
            "sweep": self.sweep,
            "seeds": self.seeds,
            "sample": self.sample,
            "warmup": self.warmup,
            "points_in": self.points_in,
            "extra_rounds": self.extra_rounds,
            "rows_total": self.rows_total,
            "rows_done": self.rows_done,
            "rows_failed": self.rows_failed,
            "units": self.units,
            "simulated": self.simulated,
            "complete": self.complete,
        }
        out["decision"] = self.decision.to_dict() if self.decision else None
        return out


@dataclasses.dataclass
class SearchSummary:
    """Outcome of one :func:`run_search` invocation."""

    name: str
    objective: str
    grid_points: int           #: full (possibly truncated) grid size
    rungs: list[RungOutcome]
    winner: dict | None        #: best final-rung point, with CI
    leaderboard: list[dict]    #: final-rung ranking (objective + CI)
    total: int                 #: rows across every rung
    done: int
    failed: int
    simulated: int             #: tasks dispatched this invocation
    units: int                 #: scheduled search work, instructions
    exhaustive_units: int      #: full grid at final-rung fidelity
    complete: bool

    @property
    def cost_fraction(self) -> float:
        """Search work as a fraction of the exhaustive grid's."""
        if not self.exhaustive_units:
            return 1.0
        return self.units / self.exhaustive_units

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "objective": self.objective,
            "grid_points": self.grid_points,
            "rungs": [r.to_dict() for r in self.rungs],
            "winner": self.winner,
            "leaderboard": self.leaderboard,
            "total": self.total,
            "done": self.done,
            "failed": self.failed,
            "simulated": self.simulated,
            "units": self.units,
            "exhaustive_units": self.exhaustive_units,
            "cost_fraction": self.cost_fraction,
            "complete": self.complete,
        }

    def format(self) -> str:
        status = "complete" if self.complete else "incomplete"
        head = (
            f"search {self.name}: {self.done}/{self.total} rows done, "
            f"{self.simulated} simulated — {status}"
        )
        if self.winner is not None:
            head += (
                f"; winner {self.winner['point_id']} "
                f"({self.objective} {self.winner['value']:+.2f}%) "
                f"at {100 * self.cost_fraction:.0f}% of grid cost"
            )
        return head


def _agg_entry(agg: PointAggregate, objective: str) -> dict:
    return {
        "point_id": agg.point_id,
        "params": agg.params,
        "workload": agg.workload,
        "length": agg.length,
        "objective": objective,
        "value": objective_value(agg, objective),
        "mean": agg.mean,
        "geomean": agg.geomean,
        "ci_lo": agg.ci_lo,
        "ci_hi": agg.ci_hi,
        "n_seeds": agg.n_seeds,
    }


def exhaustive_reference(spec: SearchSpec) -> SweepSpec:
    """The exhaustive sweep a search replaces: the full grid at the
    final rung's fidelity, under the name ``{search}:exhaustive``."""
    final = spec.rungs[-1]
    return dataclasses.replace(
        spec.sweep,
        name=spec.exhaustive_sweep(),
        seeds=tuple(range(final.seeds)),
        sample=final.sample,
        warmup=spec.rung_warmup(len(spec.rungs) - 1),
    )


def exhaustive_units(spec: SearchSpec, max_points: int | None = None) -> int:
    """Scheduled instructions of the exhaustive reference campaign."""
    points = spec.sweep.expand()
    if max_points is not None:
        points = points[:max_points]
    final = spec.rungs[-1]
    warmup = spec.rung_warmup(len(spec.rungs) - 1)
    units = 0
    for point in points:
        units += final.seeds * _row_units(
            {"length": point.length}, final.sample, warmup
        )
    for workload, length in dict.fromkeys((p.workload, p.length) for p in points):
        units += final.seeds * _row_units(
            {"length": length}, final.sample, warmup
        )
    return units


def run_search(
    spec: SearchSpec,
    store: ResultStore,
    *,
    policy: ExecutionPolicy | None = None,
    max_points: int | None = None,
    echo=None,
    progress=None,
    execute: bool = True,
) -> SearchSummary:
    """Run, resume, or replay a search campaign (see module docstring).

    Args:
        spec: The search description.
        store: The shared results store; each rung lives in it as the
            sweep ``{spec.name}:rung{i}``, so a search and its
            exhaustive reference can share one database.
        policy: Execution policy forwarded to every rung drain (``retries`` defaults to the embedded sweep's).
        max_points: Truncate the grid to its first N points.
        echo: Optional ``print``-like progress callback.
        progress: Per-task progress callback (see
            :func:`~repro.harness.parallel.run_simulations`).
        execute: ``False`` replays promotion decisions from existing
            store contents without dispatching anything — the read-only
            mode behind ``search status``/``search report``.  Replay
            stops at the first rung whose rows are missing or unsettled.
    """
    policy = policy if policy is not None else ExecutionPolicy()
    if policy.retries is None:
        policy = policy.merged(retries=spec.sweep.retries)
    say = echo if echo is not None else (lambda *_: None)

    grid = spec.sweep.expand()
    if max_points is not None:
        grid = grid[:max_points]
    index_of = {p.point_id: i for i, p in enumerate(grid)}
    by_id = {p.point_id: p for p in grid}

    points = list(grid)
    outcomes: list[RungOutcome] = []
    final_aggs: list[PointAggregate] = []
    simulated = 0
    units = 0
    totals = {"total": 0, "done": 0, "failed": 0}
    halted = False

    def drain(rung_sweep: str, rows: list[dict], warmup: int, sample) -> int:
        nonlocal simulated
        store.ensure(rung_sweep, rows)
        keys = {(r["point_id"], r["seed"]) for r in rows}
        counters = drain_campaign(
            store, rung_sweep, policy,
            mine=keys, warmup=warmup, sample=sample,
            echo=say, progress=progress,
        )
        count = counters.get("simulated", 0)
        simulated += count
        return count

    for ri, rung in enumerate(spec.rungs):
        if not points:
            halted = True
            break
        rung_sweep = spec.rung_sweep(ri)
        warmup = spec.rung_warmup(ri)
        sim_before = simulated
        base_rows = store_rows(
            spec.sweep, points, range(rung.seeds), index_of
        )
        base_keys = {(r["point_id"], r["seed"]) for r in base_rows}
        if execute:
            say(
                f"{rung_sweep}: {len(points)} points × {rung.seeds} seeds"
                + (f", sample {rung.sample}" if rung.sample else ", full length")
            )
            drain(rung_sweep, base_rows, warmup, rung.sample)

        current_ids = {p.point_id for p in points}

        def rung_state():
            rows = store.rows(rung_sweep)
            aggs = [
                a
                for a in aggregate(rows, confidence=spec.confidence)
                if a.point_id in current_ids
            ]
            return rows, aggs

        stored, aggs = rung_state()
        base_status = {
            (r["point_id"], r["seed"]): r["status"] for r in stored
        }
        missing = [k for k in base_keys if k not in base_status]
        settled = all(
            base_status.get(k) in ("done", "failed") for k in base_keys
        )
        if not execute and (missing or not settled):
            # replay hit the frontier of a killed/unstarted controller
            outcomes.append(RungOutcome(
                index=ri, sweep=rung_sweep, seeds=rung.seeds,
                sample=rung.sample, warmup=warmup, points_in=len(points),
                decision=None, extra_rounds=0,
                rows_total=len(stored),
                rows_done=sum(1 for r in stored if r["status"] == "done"),
                rows_failed=sum(1 for r in stored if r["status"] == "failed"),
                units=sum(_row_units(r, rung.sample, warmup) for r in stored),
                simulated=0, complete=False,
            ))
            totals["total"] += len(stored)
            totals["done"] += outcomes[-1].rows_done
            totals["failed"] += outcomes[-1].rows_failed
            units += outcomes[-1].units
            halted = True
            break

        decision = promote(
            aggs, spec.fraction, spec.objective, spec.min_survivors
        )
        # bandit tie-break: extra seed replicates for every contender
        # still in play, until the CI overlap resolves or the budget
        # runs out.  Replay skips this — the aggregate above already
        # includes any extra-seed rows a live controller committed.
        if execute:
            rounds = 0
            while decision.ambiguous and rounds < spec.max_extra_seeds:
                rounds += 1
                extra_seed = rung.seeds - 1 + rounds
                contenders = [
                    by_id[a.point_id] for a in decision.promoted
                ]
                say(
                    f"{rung_sweep}: {len(decision.ambiguous)} ambiguous "
                    f"point(s); allocating seed {extra_seed} to "
                    f"{len(contenders)} contender(s)"
                )
                extra = store_rows(
                    spec.sweep, contenders, (extra_seed,), index_of
                )
                drain(rung_sweep, extra, warmup, rung.sample)
                _, aggs = rung_state()
                decision = promote(
                    aggs, spec.fraction, spec.objective, spec.min_survivors
                )

        stored, aggs = rung_state()
        max_seed = max(
            (r["seed"] for r in stored if r["role"] == "point"),
            default=rung.seeds - 1,
        )
        rows_done = sum(1 for r in stored if r["status"] == "done")
        rows_failed = sum(1 for r in stored if r["status"] == "failed")
        outcome = RungOutcome(
            index=ri,
            sweep=rung_sweep,
            seeds=rung.seeds,
            sample=rung.sample,
            warmup=warmup,
            points_in=len(points),
            decision=decision,
            extra_rounds=max(0, max_seed - (rung.seeds - 1)),
            rows_total=len(stored),
            rows_done=rows_done,
            rows_failed=rows_failed,
            units=sum(_row_units(r, rung.sample, warmup) for r in stored),
            simulated=simulated - sim_before,
            complete=rows_done + rows_failed == len(stored),
        )
        outcomes.append(outcome)
        units += outcome.units
        totals["total"] += outcome.rows_total
        totals["done"] += outcome.rows_done
        totals["failed"] += outcome.rows_failed
        say(
            f"{rung_sweep}: promoted {len(decision.promoted)}"
            f"/{len(points)} point(s)"
            + (
                f" ({len(decision.ambiguous)} by CI overlap)"
                if decision.ambiguous
                else ""
            )
        )
        final_aggs = aggs
        promoted_ids = {a.point_id for a in decision.promoted}
        points = [p for p in points if p.point_id in promoted_ids]

    ranked = rank_points(final_aggs, spec.objective)
    winner = None
    if ranked and not halted and len(outcomes) == len(spec.rungs):
        winner = _agg_entry(ranked[0], spec.objective)
    leaderboard = [_agg_entry(a, spec.objective) for a in ranked]
    complete = (
        winner is not None
        and all(o.complete for o in outcomes)
    )
    summary = SearchSummary(
        name=spec.name,
        objective=spec.objective,
        grid_points=len(grid),
        rungs=outcomes,
        winner=winner,
        leaderboard=leaderboard,
        total=totals["total"],
        done=totals["done"],
        failed=totals["failed"],
        simulated=simulated,
        units=units,
        exhaustive_units=exhaustive_units(spec, max_points),
        complete=complete,
    )
    say(summary.format())
    return summary
