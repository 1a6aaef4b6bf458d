"""Tests for the repro.sweep subsystem: specs, store, stats, reports,
campaign execution, retries and crash-resume."""

import json
import re

import pytest

from repro.harness.cache import ResultCache, task_key
from repro.harness.policy import ExecutionPolicy
from repro.sweep import (
    PointAggregate,
    ResultStore,
    SweepSpec,
    SweepSpecError,
    aggregate,
    bootstrap_ci,
    campaign_rows,
    full_report,
    load_spec,
    pareto_frontier,
    run_spec_for,
    run_sweep,
    sweep_result,
)
from repro.sweep.report import axis_marginals, export_jsonl, format_markdown
from tests.conftest import fail_runs_of

LENGTH = 500

TOML = """
[sweep]
name = "mini"
workloads = ["crafty"]
lengths = [500]
seeds = 2

[base]
machine = "mtvp"
threads = 2
predictor = "oracle"

[axes]
store_buffer_entries = [16, 64]
"""


def mini_spec(**overrides) -> SweepSpec:
    params = dict(
        name="mini",
        base={"machine": "mtvp", "threads": 2, "predictor": "oracle"},
        axes={"store_buffer_entries": [16, 64]},
        workloads=("crafty",),
        lengths=(LENGTH,),
        seeds=(0, 1),
    )
    params.update(overrides)
    return SweepSpec(**params)


class TestSweepSpec:
    def test_toml_round_trip(self, tmp_path):
        path = tmp_path / "mini.toml"
        path.write_text(TOML)
        spec = load_spec(path)
        assert spec.name == "mini"
        assert spec.seeds == (0, 1)
        assert spec.workloads == ("crafty",)
        assert [p.params["store_buffer_entries"] for p in spec.expand()] == [16, 64]
        # JSON serialization reloads to the same expansion
        jpath = tmp_path / "mini.json"
        spec.to_json(jpath)
        clone = load_spec(jpath)
        assert [p.point_id for p in clone.expand()] == [
            p.point_id for p in spec.expand()
        ]

    def test_suite_keywords_expand(self):
        from repro.workloads import SPEC_INT

        spec = mini_spec(workloads=("int",))
        assert spec.workloads == SPEC_INT

    def test_seed_count_becomes_range(self):
        assert mini_spec(seeds=3).seeds == (0, 1, 2)

    def test_unknown_axis_key_rejected(self):
        # pipeline_depth and redirect_penalty were MachineConfig fields
        # that nothing read; a sweep over them printed identical rows
        for key in ("not_a_field", "pipeline_depth", "redirect_penalty"):
            with pytest.raises(SweepSpecError, match=f"unknown axis key '{key}'"):
                mini_spec(axes={key: [1]})

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            mini_spec(workloads=("no-such-workload",))

    def test_grid_order_is_workload_outer_axes_inner(self):
        spec = mini_spec(workloads=("crafty", "swim"))
        points = spec.expand()
        assert [p.workload for p in points] == ["crafty", "crafty", "swim", "swim"]
        assert [p.params["store_buffer_entries"] for p in points] == [16, 64, 16, 64]

    def test_duplicate_axis_values_collapse_to_one_point(self):
        # a careless spec like [16, 16, 64] used to mint two identical
        # points (same point_id) that then collided in the result store
        spec = mini_spec(axes={"store_buffer_entries": [16, 16, 64]})
        points = spec.expand()
        assert [p.params["store_buffer_entries"] for p in points] == [16, 64]
        assert len({p.point_id for p in points}) == len(points)

    def test_point_id_stable_and_seedless(self):
        a, b = mini_spec().expand(), mini_spec().expand()
        assert [p.point_id for p in a] == [p.point_id for p in b]
        assert a[0].point_id != a[1].point_id

    def test_the_grid_is_expanded_and_hashed_once(self, monkeypatch):
        import repro.sweep.spec as spec_module

        spec = mini_spec(workloads=("crafty", "swim"))
        first = campaign_rows(spec)

        def refuse(*_args, **_kwargs):
            raise AssertionError("point ids are hashed again")

        monkeypatch.setattr(spec_module, "point_id", refuse)
        assert campaign_rows(spec) == first
        assert spec.expand() == spec.expand() and spec.expand() is not spec.expand()

    def test_replace_expands_at_the_new_lengths(self):
        import dataclasses

        spec = dataclasses.replace(mini_spec(), lengths=(LENGTH + 1,))
        assert {p.length for p in spec.expand()} == {LENGTH + 1}
        assert spec.baseline_point("crafty", LENGTH + 1).length == LENGTH + 1

    def test_run_spec_is_cacheable_and_resolves(self):
        point = mini_spec().expand()[0]
        spec = run_spec_for(point.params)
        config = spec.config_factory()
        assert config.store_buffer_entries == 16
        assert config.num_contexts == 2
        assert task_key(point.workload, spec, point.length, 0) is not None

    def test_store_buffer_zero_means_unbounded(self):
        spec = run_spec_for({"machine": "mtvp", "store_buffer_entries": 0})
        assert spec.config_factory().store_buffer_entries is None

    def test_enum_fields_coerce_from_strings(self):
        from repro.core import FetchPolicy

        spec = run_spec_for({"machine": "mtvp", "fetch_policy": "no_stall"})
        assert spec.config_factory().fetch_policy is FetchPolicy.NO_STALL

    def test_threads_on_single_context_preset_rejected(self):
        with pytest.raises(SweepSpecError, match="single-context"):
            run_spec_for({"machine": "stvp", "threads": 4})


class TestResultStore:
    def rows(self):
        return [
            {"point_id": "p1", "seed": 0, "workload": "crafty", "length": 500,
             "params": {"x": 1}, "idx": 0},
            {"point_id": "p1", "seed": 1, "workload": "crafty", "length": 500,
             "params": {"x": 1}, "idx": 0},
        ]

    def test_ensure_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "s.db")
        assert store.ensure("s", self.rows()) == 2
        assert store.ensure("s", self.rows()) == 0
        assert len(store) == 2

    def test_status_lifecycle_and_runnable(self, tmp_path):
        store = ResultStore(tmp_path / "s.db")
        store.ensure("s", self.rows())
        assert len(store.runnable("s")) == 2
        assert store.claim("s", [("p1", 0)], owner="w") == [("p1", 0)]
        assert store.mark_done(
            "s", ("p1", 0), '{"cycles": 10}', wall_seconds=0.1, owner="w")
        assert [r["seed"] for r in store.runnable("s")] == [1]
        assert store.claim("s", [("p1", 1)], owner="w") == [("p1", 1)]
        assert store.mark_failed("s", ("p1", 1), "boom", owner="w")
        # no retry budget: the failed row is out of attempts
        assert store.runnable("s", retries=0) == []
        # one retry: attempts(1) <= retries(1) makes it runnable again
        assert [r["seed"] for r in store.runnable("s", retries=1)] == [1]
        assert store.counts("s") == {
            "pending": 0, "running": 0, "done": 1, "failed": 1,
        }

    def test_stale_running_rows_are_runnable(self, tmp_path):
        store = ResultStore(tmp_path / "s.db")
        store.ensure("s", self.rows())
        store.claim("s", [("p1", 0)], owner="w")
        assert len(store.runnable("s")) == 2  # crashed claim is re-claimable

    def test_persistence_across_reopen(self, tmp_path):
        path = tmp_path / "s.db"
        store = ResultStore(path)
        store.ensure("s", self.rows())
        store.claim("s", [("p1", 0)], owner="w")
        store.mark_done("s", ("p1", 0), '{"cycles": 10}', owner="w")
        store.close()
        reopened = ResultStore(path)
        assert reopened.counts("s")["done"] == 1
        assert reopened.sweeps() == ["s"]


class TestStats:
    def test_bootstrap_ci_is_deterministic_and_brackets_mean(self):
        values = [10.0, 12.0, 8.0, 11.0]
        lo, hi = bootstrap_ci(values)
        assert (lo, hi) == bootstrap_ci(values)
        assert lo <= sum(values) / len(values) <= hi
        assert bootstrap_ci([5.0]) == (5.0, 5.0)

    def test_bootstrap_ci_single_value_is_degenerate(self):
        assert bootstrap_ci([7.5]) == (7.5, 7.5)

    def test_bootstrap_ci_identical_values_collapse(self):
        lo, hi = bootstrap_ci([3.0, 3.0, 3.0, 3.0])
        assert lo == hi == 3.0

    def test_bootstrap_ci_confidence_orders_widths(self):
        values = [10.0, 12.0, 8.0, 11.0, 9.5]
        narrow = bootstrap_ci(values, confidence=0.5)
        default = bootstrap_ci(values)
        wide = bootstrap_ci(values, confidence=0.99)
        width = lambda ci: ci[1] - ci[0]  # noqa: E731
        assert width(narrow) <= width(default) <= width(wide)
        # the default really is the historical 95% level
        assert default == bootstrap_ci(values, confidence=0.95)

    def test_bootstrap_ci_rejects_bad_confidence(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="confidence"):
                bootstrap_ci([1.0, 2.0], confidence=bad)
        with pytest.raises(ValueError, match="at least one"):
            bootstrap_ci([])

    def test_aggregate_confidence_reaches_every_point(self, tmp_path):
        wide = PointAggregate("p", 0, "w", 500, {}, {}, [0, 1, 2],
                              [10.0, 14.0, 6.0], 0, confidence=0.99)
        tight = PointAggregate("p", 0, "w", 500, {}, {}, [0, 1, 2],
                               [10.0, 14.0, 6.0], 0, confidence=0.5)
        assert wide.confidence == 0.99
        assert wide.ci_hi - wide.ci_lo >= tight.ci_hi - tight.ci_lo

    def test_straddle_flag(self):
        clear = PointAggregate("p", 0, "w", 500, {}, {}, [0, 1],
                               [10.0, 12.0, 11.0], 0)
        noisy = PointAggregate("p2", 1, "w", 500, {}, {}, [0, 1],
                               [-5.0, 6.0, -1.0], 0)
        assert not clear.straddles_zero
        assert noisy.straddles_zero

    def test_aggregate_pairs_baselines_by_workload_length_seed(self, tmp_path):
        store = ResultStore(tmp_path / "s.db")
        rows = [
            {"point_id": "pt", "seed": s, "workload": "w", "length": 100,
             "params": {"threads": 2}, "idx": 0}
            for s in (0, 1)
        ] + [
            {"point_id": "base", "seed": s, "role": "baseline", "workload": "w",
             "length": 100, "params": {}, "idx": -1}
            for s in (0, 1)
        ]
        store.ensure("s", rows)
        keys = [(r["point_id"], r["seed"]) for r in rows]
        assert store.claim("s", keys, owner="w") == keys
        # baseline IPC 1.0; point IPC 1.2 (seed 0) and 0.8 (seed 1)
        for key, useful, config in [
            (("base", 0), 100, None), (("base", 1), 100, None),
            (("pt", 0), 120, '{"num_contexts": 2}'), (("pt", 1), 80, None),
        ]:
            assert store.mark_done(
                "s", key, f'{{"cycles": 100, "useful_instructions": {useful}}}',
                config=config, owner="w")
        (agg,) = aggregate(store.rows("s"))
        assert agg.speedups == pytest.approx([20.0, -20.0])
        assert agg.mean == pytest.approx(0.0)
        assert agg.straddles_zero
        assert agg.contexts_used == 2


class TestReport:
    def aggs(self):
        return [
            PointAggregate("a", 0, "w", 500, {"threads": 2}, {"num_contexts": 2},
                           [0, 1], [10.0, 12.0], 0),
            PointAggregate("b", 1, "w", 500, {"threads": 4}, {"num_contexts": 4},
                           [0, 1], [11.0, 11.5], 0),
            PointAggregate("c", 2, "w", 500, {"threads": 8}, {"num_contexts": 8},
                           [0, 1], [18.0, 20.0], 0),
            PointAggregate("d", 3, "w", 500, {"threads": 16}, {"num_contexts": 16},
                           [], [], 2),  # failed point
        ]

    def test_sweep_result_columns_and_flags(self):
        result = sweep_result("t", self.aggs())
        assert "threads" in result.columns
        assert result.rows[0]["mean %"] == pytest.approx(11.0)
        assert result.rows[3]["noise?"] == "FAILED"
        assert result.summary["points failed"] == 1
        assert "format" not in result.format_table()  # smoke: renders

    def test_pareto_frontier_drops_dominated(self):
        frontier = pareto_frontier(self.aggs())
        ids = {a.point_id for a in frontier}
        # b (4 contexts, 11.25%) is dominated by a (2 contexts, 11.0%)? no:
        # a has less speedup — both survive; c pays 8 contexts for 19%.
        assert ids == {"a", "b", "c"}
        # a point strictly better than another on every axis dominates it
        worse = PointAggregate("e", 4, "w", 500, {"threads": 8},
                               {"num_contexts": 8}, [0, 1], [1.0, 1.2], 0)
        assert "e" not in {a.point_id for a in pareto_frontier(self.aggs() + [worse])}

    def test_axis_marginals(self):
        marginal = axis_marginals(self.aggs(), "threads")
        assert [r["threads"] for r in marginal.rows] == ["2", "4", "8"]
        single = axis_marginals(self.aggs()[:1], "threads")
        assert single is None

    def test_markdown_and_jsonl(self):
        text = format_markdown(sweep_result("t", self.aggs()))
        assert text.startswith("### Sweep t")
        assert "| --- " in text
        lines = export_jsonl(self.aggs()).strip().splitlines()
        assert len(lines) == 4
        parsed = json.loads(lines[0])
        assert parsed["mean"] == pytest.approx(11.0)


class TestRunSweep:
    def test_campaign_completes_and_resume_noops(self, tmp_path, monkeypatch):
        spec = mini_spec()
        store = ResultStore(tmp_path / "s.db")
        summary = run_sweep(spec, store, policy=ExecutionPolicy(cache=False))
        # 2 points x 2 seeds + 1 baseline x 2 seeds
        assert summary.total == 6 and summary.complete
        assert summary.simulated == 6 and summary.skipped == 0

        import repro.harness.parallel as par

        def boom(*a):
            raise AssertionError("resume must not re-simulate done rows")

        monkeypatch.setattr(par, "_run_task", boom)
        resumed = run_sweep(spec, store, policy=ExecutionPolicy(cache=False))
        assert resumed.complete and resumed.simulated == 0
        assert resumed.skipped == 6

    def test_failing_point_is_retried_then_reported(self, tmp_path, monkeypatch):
        spec = mini_spec(axes={"predictor": ["oracle", "wang-franklin"]}, retries=1)
        bad = spec.expand()[1]
        assert bad.params["predictor"] == "wang-franklin"
        fail_runs_of(monkeypatch, bad.point_id[:8])
        store = ResultStore(tmp_path / "s.db")
        summary = run_sweep(spec, store, policy=ExecutionPolicy(jobs=1, cache=False))
        assert summary.failed == 2  # the bad point's two seeds
        assert summary.done == summary.total - 2
        failed = [r for r in store.rows(spec.name) if r["status"] == "failed"]
        assert {r["point_id"] for r in failed} == {bad.point_id}
        assert all(r["attempts"] == 2 for r in failed)  # first try + 1 retry
        assert all("injected failure" in (r["error"] or "") for r in failed)
        # the report degrades gracefully instead of aborting
        aggs = aggregate(store.rows(spec.name))
        result = sweep_result(spec.name, aggs)
        assert result.summary["points failed"] == 1
        assert full_report(spec.name, aggs)  # renders

    def test_run_time_failure_marks_point_failed(self, tmp_path, monkeypatch):
        spec = mini_spec(axes={})
        fail_runs_of(monkeypatch, spec.expand()[0].point_id[:8])
        store = ResultStore(tmp_path / "s.db")
        summary = run_sweep(
            spec, store, policy=ExecutionPolicy(jobs=1, cache=False, retries=0)
        )
        assert summary.failed == 2  # both seeds of the single point
        assert summary.done == 2  # baselines still ran

    def test_max_points_truncates(self, tmp_path):
        spec = mini_spec()
        store = ResultStore(tmp_path / "s.db")
        summary = run_sweep(spec, store, policy=ExecutionPolicy(cache=False), max_points=1)
        # 1 point x 2 seeds + baseline x 2 seeds
        assert summary.total == 4 and summary.complete

    def test_campaign_rows_include_baselines(self):
        rows = campaign_rows(mini_spec())
        roles = [r["role"] for r in rows]
        assert roles.count("point") == 4 and roles.count("baseline") == 2

    def test_results_match_direct_simulation(self, tmp_path):
        """Sweep-stored stats must be byte-identical to a direct run."""
        spec = mini_spec(seeds=(0,))
        store = ResultStore(tmp_path / "s.db")
        run_sweep(spec, store, policy=ExecutionPolicy(cache=False))
        point = spec.expand()[0]
        direct = run_spec_for(point.params).run(point.workload, point.length, 0)
        stored = next(
            json.loads(r["stats"])
            for r in store.rows(spec.name, role="point")
            if r["point_id"] == point.point_id
        )
        assert stored == direct.to_dict()


class TestCrashResume:
    """The interrupt-and-resume contract of ISSUE 4.

    Kill a campaign after N rows are committed, resume it, and require
    (a) zero re-simulation of committed rows and (b) a final report
    byte-identical to an uninterrupted run of the same sweep.
    """

    def run_interrupted(self, tmp_path, monkeypatch, kill_after, cache=False):
        spec = mini_spec()
        store = ResultStore(tmp_path / "crash.db")
        committed = 0
        real_mark_done = ResultStore.mark_done

        def dying_mark_done(self, *args, **kwargs):
            nonlocal committed
            if committed >= kill_after:
                raise KeyboardInterrupt  # the mid-campaign kill
            committed += 1
            return real_mark_done(self, *args, **kwargs)

        monkeypatch.setattr(ResultStore, "mark_done", dying_mark_done)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, store, policy=ExecutionPolicy(cache=cache, chunk=2))
        monkeypatch.setattr(ResultStore, "mark_done", real_mark_done)
        return spec, store, committed

    def test_resume_skips_committed_rows(self, tmp_path, monkeypatch):
        kill_after = 3
        spec, store, committed = self.run_interrupted(
            tmp_path, monkeypatch, kill_after
        )
        assert committed == kill_after
        assert store.counts(spec.name)["done"] == kill_after

        import repro.harness.parallel as par

        calls = []
        real = par._run_task
        monkeypatch.setattr(par, "_run_task", lambda *a: calls.append(a) or real(*a))
        resumed = run_sweep(spec, store, policy=ExecutionPolicy(cache=False))
        assert resumed.complete
        assert resumed.skipped == kill_after
        # zero re-simulation of completed rows: only the remainder ran
        assert len(calls) == resumed.total - kill_after
        assert resumed.simulated == resumed.total - kill_after

    def test_warm_cache_serves_the_lost_chunk(self, tmp_path, monkeypatch):
        """Rows simulated before the kill but not yet committed to the
        store are free on resume: the result cache still has them."""
        cache = ResultCache(tmp_path / "cache")
        spec, store, committed = self.run_interrupted(
            tmp_path, monkeypatch, kill_after=3, cache=cache
        )
        already_cached = len(cache)  # simulations the killed run completed
        assert already_cached > committed  # some results outran their commit

        import repro.harness.parallel as par

        calls = []
        real = par._run_task
        monkeypatch.setattr(par, "_run_task", lambda *a: calls.append(a) or real(*a))
        resume_cache = ResultCache(tmp_path / "cache")
        resumed = run_sweep(spec, store, policy=ExecutionPolicy(cache=resume_cache))
        assert resumed.complete
        # fresh simulations = rows the killed run never reached at all
        assert len(calls) == resumed.total - already_cached
        # and the simulated-but-uncommitted rows were pure cache hits
        assert resume_cache.hits == already_cached - committed

    def test_final_report_byte_identical_to_uninterrupted(
        self, tmp_path, monkeypatch
    ):
        spec, store, _ = self.run_interrupted(tmp_path, monkeypatch, kill_after=3)
        run_sweep(spec, store, policy=ExecutionPolicy(cache=False))
        interrupted_report = full_report(spec.name, aggregate(store.rows(spec.name)))

        clean_store = ResultStore(tmp_path / "clean.db")
        run_sweep(mini_spec(), clean_store, policy=ExecutionPolicy(cache=False))
        clean_report = full_report(
            spec.name, aggregate(clean_store.rows(spec.name))
        )
        assert interrupted_report == clean_report


class TestSweepCLI:
    def test_run_resume_status_report(self, tmp_path, capsys):
        from repro.__main__ import main

        spec_path = tmp_path / "mini.toml"
        spec_path.write_text(TOML)
        db = str(tmp_path / "mini.db")
        base = ["sweep", "run", str(spec_path), "--db", db, "--no-cache",
                "--seeds", "2", "--length", "500"]
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "complete" in out

        resume = ["sweep", "resume", str(spec_path), "--db", db, "--no-cache",
                  "--seeds", "2", "--length", "500"]
        assert main(resume) == 0
        assert "0 simulated" in capsys.readouterr().out

        assert main(["sweep", "status", str(spec_path), "--db", db]) == 0
        assert "done" in capsys.readouterr().out

        csv_path = tmp_path / "r.csv"
        assert main(["sweep", "report", str(spec_path), "--db", db,
                     "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "bootstrap CI" in out and "best point" in out
        assert csv_path.exists()

    def test_fresh_db_over_a_warm_cache_simulates_nothing(self, tmp_path, capsys):
        from repro.__main__ import main

        spec_path = tmp_path / "mini.toml"
        spec_path.write_text(TOML)
        cache = ["--cache-dir", str(tmp_path / "cache"), "--seeds", "2",
                 "--length", "500"]
        assert main(["sweep", "run", str(spec_path),
                     "--db", str(tmp_path / "a.db"), *cache]) == 0
        cold = capsys.readouterr().out
        rows = 6  # two points and their baseline, two seeds each
        assert f"{rows}/{rows} rows done, {rows} simulated, 0 cached" in cold
        assert main(["sweep", "run", str(spec_path),
                     "--db", str(tmp_path / "b.db"), *cache]) == 0
        warm = capsys.readouterr().out
        assert f"{rows}/{rows} rows done, 0 simulated, {rows} cached" in warm

    def test_status_shows_axis_progress_and_json_ledger(
        self, tmp_path, capsys
    ):
        from repro.__main__ import main

        spec_path = tmp_path / "mini.toml"
        spec_path.write_text(TOML)
        db = str(tmp_path / "mini.db")
        assert main(["sweep", "run", str(spec_path), "--db", db,
                     "--no-cache"]) == 0
        capsys.readouterr()

        assert main(["sweep", "status", str(spec_path), "--db", db]) == 0
        out = capsys.readouterr().out
        # per-axis progress: every axis value reports done/total rows
        assert "axis store_buffer_entries: 16: 2/2 64: 2/2" in out
        assert "commits:" in out

        assert main(["sweep", "status", str(spec_path), "--db", db,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sweep"] == "mini"
        assert payload["counts"]["done"] == payload["total"] == 6
        assert payload["axes"]["store_buffer_entries"]["16"] == {
            "done": 2, "total": 2,
        }
        # the commit ledger proves exactly-once: one commit per done row
        assert payload["commits"]["commits"] == payload["commits"]["done"]
        assert payload["commits"]["max_commits"] == 1
        assert payload["failed"] == []

    def test_overrides_re_expand_the_grid(self, tmp_path):
        from repro.__main__ import _sweep_spec_and_store, build_parser

        spec_path = tmp_path / "mini.toml"
        spec_path.write_text(TOML)
        args = build_parser().parse_args([
            "sweep", "run", str(spec_path), "--db", str(tmp_path / "mini.db"),
            "--length", "600", "--seeds", "1",
        ])
        spec, store = _sweep_spec_and_store(args)
        store.close()
        assert spec.seeds == (0,)
        assert {p.length for p in spec.expand()} == {600}
        assert {r["length"] for r in campaign_rows(spec)} == {600}

    def test_report_without_results_fails_cleanly(self, tmp_path, capsys):
        from repro.__main__ import main

        spec_path = tmp_path / "mini.toml"
        spec_path.write_text(TOML)
        assert main(["sweep", "report", str(spec_path),
                     "--db", str(tmp_path / "empty.db")]) == 1
        assert "no results" in capsys.readouterr().out


class TestWarmupSweep:
    """The campaign-level warmup/sample protocol and checkpoint reuse."""

    def test_protocol_fields_validate(self):
        with pytest.raises(SweepSpecError):
            mini_spec(warmup=-1)
        with pytest.raises(SweepSpecError):
            mini_spec(sample=0)

    def test_protocol_fields_survive_serialization(self, tmp_path):
        spec = mini_spec(warmup=1000, sample=400)
        jpath = tmp_path / "warm.json"
        spec.to_json(jpath)
        clone = load_spec(jpath)
        assert clone.warmup == 1000 and clone.sample == 400

    def test_protocol_is_campaign_level_not_a_point_axis(self):
        # a warmed campaign must keep the point ids of the cold one, or
        # result stores could never be compared across protocols
        cold = [p.point_id for p in mini_spec().expand()]
        warm = [p.point_id for p in mini_spec(warmup=1000, sample=400).expand()]
        assert cold == warm

    def test_toml_accepts_warmup_keys(self, tmp_path):
        path = tmp_path / "warm.toml"
        path.write_text(TOML.replace(
            'seeds = 2', 'seeds = 2\nwarmup = 1000\nsample = 400'
        ))
        spec = load_spec(path)
        assert spec.warmup == 1000 and spec.sample == 400

    def test_warmed_campaign_reuses_one_checkpoint(self, tmp_path):
        from repro.harness import CheckpointStore
        from repro.sweep import ResultStore

        # the baseline must name the same predictor as the points: warmed
        # predictor tables are architectural state, so a differing one
        # would (correctly) mint its own checkpoint
        spec = mini_spec(
            seeds=(0,), warmup=1000, sample=300,
            baseline={"machine": "baseline", "predictor": "oracle"},
        )
        store = ResultStore(tmp_path / "warm.db")
        ckpts = CheckpointStore(tmp_path / "ckpt")
        summary = run_sweep(
            spec, store, policy=ExecutionPolicy(cache=False, checkpoints=ckpts)
        )
        # 2 points + 1 baseline, all sharing one warmed arch state: the
        # store-buffer axis (and the baseline's machine knobs) are timing
        # state, invisible to functional warmup
        assert summary.total == 3 and summary.complete
        assert ckpts.stores == 1 and ckpts.hits == 2
        assert len(ckpts) == 1

    def test_warmed_rows_shrink_to_the_sample(self, tmp_path):
        from repro.sweep import ResultStore

        spec = mini_spec(seeds=(0,), warmup=1000, sample=300)
        store = ResultStore(tmp_path / "warm.db")
        run_sweep(spec, store, policy=ExecutionPolicy(cache=False))
        for row in store.rows(spec.name):
            stats = json.loads(row["stats"])
            assert stats["warmup_instructions"] == 1000
            assert stats["instructions_stepped"] >= 300

    def test_pooled_campaign_reports_its_workers_checkpoint_traffic(
        self, tmp_path, capsys
    ):
        """Pool workers open their own checkpoint store; the echoed
        counts must still cover every row they warmed or restored."""
        import re
        from pathlib import Path

        from repro.__main__ import main

        spec = Path(__file__).parent.parent / "sweeps" / "warmup_smoke.toml"
        ckpt = tmp_path / "ckpt"
        assert main([
            "sweep", "run", str(spec), "--jobs", "2", "--no-cache",
            "--checkpoint-dir", str(ckpt), "--db", str(tmp_path / "w.db"),
        ]) == 0
        echoed = re.search(
            r"warmup checkpoints: (\d+) restored, (\d+) stored",
            capsys.readouterr().out,
        )
        assert echoed is not None
        restored, stored = map(int, echoed.groups())
        # 2 spawn-latency points + 1 baseline, one shared warmed state
        assert restored + stored == 3 and stored >= 1
        assert len(list(ckpt.glob("*.ckpt"))) == 1


#: malformed spec files, per loader: TOML syntax, a non-table top level, a bad field
_MALFORMED = {
    "bad.toml": '[sweep\nname = "x"\n',
    "list.json": "[1, 2]",
    "field.toml": '[sweep]\nname = "x"\nthreads = "eight"\n',
    "search-field.toml": '[search]\nname = "s"\nfraction = "half"\n\n[sweep]\nname = "x"\n',
}


#: integer spec fields with a bad value, and the one-line error each gives
_BAD_INTS = [
    ("lengths", (2.7,), "each of lengths must be a positive integer, got 2.7"),
    ("lengths", (0,), "each of lengths must be a positive integer, got 0"),
    ("lengths", (-5,), "each of lengths must be a positive integer, got -5"),
    ("lengths", (True,), "each of lengths must be a positive integer, got True"),
    ("lengths", 500, "lengths must be a list, got 500"),
    ("seeds", (1.5,),
     "seeds must be a positive count or a list of integers, got (1.5,)"),
    ("seeds", True, "seeds must be a positive count or a list of integers, got True"),
    ("warmup", 1.5, "warmup must be a non-negative integer, got 1.5"),
    ("warmup", -1, "warmup must be a non-negative integer, got -1"),
    ("sample", 2.5, "sample must be a positive integer, got 2.5"),
    ("sample", 0, "sample must be a positive integer, got 0"),
    ("sample", True, "sample must be a positive integer, got True"),
]


class TestMalformedSpec:
    """A malformed spec fails with one message naming the file."""

    @pytest.mark.parametrize("name", ["bad.toml", "list.json", "field.toml"])
    def test_load_spec_names_the_file(self, tmp_path, name):
        path = tmp_path / name
        path.write_text(_MALFORMED[name])
        with pytest.raises(SweepSpecError, match=f"^{re.escape(str(path))}: "):
            load_spec(path)

    def test_negative_retries_is_refused(self, tmp_path):
        path = tmp_path / "retries.toml"
        path.write_text('[sweep]\nname = "x"\nretries = -1\n')
        with pytest.raises(SweepSpecError, match="retries must be a non-negative"):
            load_spec(path)

    @pytest.mark.parametrize("key, value", [
        ("constraints", '["store_buffer_entries >= 64"]'),
        ("mode", '"random"'),
        ("samples", "3"),
        ("sample_seed", "7"),
    ], ids=["constraints", "mode", "samples", "sample_seed"])
    def test_removed_sweep_key_is_unknown(self, tmp_path, key, value):
        """Random expansion and eval'd constraints are gone: a spec that
        still sets one of their keys fails to load, naming the key."""
        path = tmp_path / "old.toml"
        path.write_text(TOML.replace("[base]", f"{key} = {value}\n\n[base]", 1))
        with pytest.raises(
            SweepSpecError,
            match=rf"^{re.escape(str(path))}: unknown sweep field\(s\) \['{key}'\]",
        ):
            load_spec(path)

    @pytest.mark.parametrize("field, value, shown", _BAD_INTS,
                             ids=[f"{f}={v!r}" for f, v, _ in _BAD_INTS])
    def test_integer_fields_are_checked_when_the_spec_loads(
        self, field, value, shown
    ):
        with pytest.raises(SweepSpecError, match=f"^{re.escape(shown)}$"):
            mini_spec(**{field: value})

    @pytest.mark.parametrize("fields, shown", [
        ({"base": {"machine": "mtvp", "predictor": "no-such"}, "axes": {}},
         "point {'machine': 'mtvp', 'predictor': 'no-such'}: unknown value predictor"),
        ({"base": {"machine": "mtvp", "selector": "no-such"}, "axes": {}},
         "point {'machine': 'mtvp', 'selector': 'no-such'}: unknown load selector"),
        ({"axes": {"predictor": ["oracle", "no-such"]}},
         "point {'machine': 'mtvp', 'threads': 2, 'predictor': 'no-such'}: "
         "unknown value predictor"),
        ({"baseline": {"machine": "baseline", "selector": "no-such"}},
         "baseline {'machine': 'baseline', 'selector': 'no-such'}: unknown load selector"),
    ], ids=["base-predictor", "base-selector", "axis-predictor", "baseline-selector"])
    def test_unknown_component_fails_the_load(self, fields, shown):
        """Building a point's RunSpec resolves its predictor and selector
        names, so an unknown one is a bad recipe like a bad field value."""
        with pytest.raises(SweepSpecError, match=f"^{re.escape(shown)} 'no-such'"):
            mini_spec(**fields)

    @pytest.mark.parametrize("component", ["predictor", "selector"])
    @pytest.mark.parametrize("command", ["sweep", "search"])
    def test_unknown_component_exits_2_before_the_db_opens(
        self, tmp_path, capsys, command, component
    ):
        from repro.__main__ import main

        text = TOML.replace('predictor = "oracle"', f'{component} = "nosuch"')
        if command == "search":
            text = '[search]\nname = "s"\n\n[[search.rungs]]\nseeds = 1\n' + text
        path = tmp_path / "spec.toml"
        path.write_text(text)
        db = tmp_path / "x.db"
        with pytest.raises(SystemExit) as exc:
            main([command, "run", str(path), "--db", str(db), "--no-cache"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro: error: {path}: ")
        assert "'nosuch'" in err and err.count("\n") == 1
        assert not db.exists()

    @pytest.mark.parametrize("name", ["bad.toml", "list.json", "search-field.toml"])
    def test_load_search_spec_names_the_file(self, tmp_path, name):
        from repro.search import SearchSpecError, load_search_spec

        path = tmp_path / name
        path.write_text(_MALFORMED[name])
        with pytest.raises(SearchSpecError, match=f"^{re.escape(str(path))}: "):
            load_search_spec(path)

    @pytest.mark.parametrize("name", ["bad.toml", "list.json", "field.toml"])
    @pytest.mark.parametrize("argv", [
        ["sweep", "run"], ["sweep", "resume"], ["sweep", "status"],
        ["sweep", "report"], ["search", "run"], ["search", "status"],
        ["search", "report"],
    ], ids=" ".join)
    def test_cli_exits_2_with_one_line(self, tmp_path, capsys, argv, name):
        from repro.__main__ import main

        path = tmp_path / name
        path.write_text(_MALFORMED[name])
        with pytest.raises(SystemExit) as exc:
            main([*argv, str(path), "--db", str(tmp_path / "x.db")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro: error: {path}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "x.db").exists()
