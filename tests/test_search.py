"""Tests for the repro.search subsystem: specs, the CI-honest promotion
rule, the successive-halving controller (run/resume/replay/crash), the
explore-exploit report, the fidelity harness and the CLI."""

import json
import re
from pathlib import Path

import pytest

from repro.harness.policy import ExecutionPolicy
from repro.search import (
    PromotionDecision,
    Rung,
    SearchSpec,
    SearchSpecError,
    exhaustive_reference,
    fidelity_check,
    format_search_report,
    full_search_report,
    load_search_spec,
    objective_value,
    promote,
    run_search,
    search_result,
)
from repro.sweep import ResultStore, SweepSpec
from repro.sweep.stats import PointAggregate
from tests.conftest import fail_runs_of

NO_CACHE = ExecutionPolicy(cache=False)

TOML = """
[search]
name = "tsearch"
fraction = 0.5
objective = "mean"
confidence = 0.9
max_extra_seeds = 1

[[search.rungs]]
seeds = 1
sample = 300

[[search.rungs]]
seeds = 2

[sweep]
name = "tgrid"
workloads = ["crafty"]
lengths = [500]
seeds = 1

[base]
machine = "mtvp"
threads = 2
predictor = "oracle"

[axes]
store_buffer_entries = [16, 64]
"""


def mini_sweep(**overrides) -> SweepSpec:
    params = dict(
        name="msgrid",
        base={"machine": "mtvp", "threads": 2, "predictor": "oracle"},
        axes={"store_buffer_entries": [4, 16, 64]},
        workloads=("crafty",),
        lengths=(500,),
        seeds=(0,),
    )
    params.update(overrides)
    return SweepSpec(**params)


def mini_search(**overrides) -> SearchSpec:
    params = dict(
        sweep=mini_sweep(),
        rungs=({"seeds": 1, "sample": 300}, {"seeds": 2}),
        fraction=0.5,
        max_extra_seeds=1,
    )
    params.update(overrides)
    return SearchSpec(**params)


def agg(pid, idx, speedups, n_failed=0, confidence=0.95):
    return PointAggregate(
        pid, idx, "w", 500, {}, {}, list(range(len(speedups))),
        list(speedups), n_failed, confidence=confidence,
    )


class TestSearchSpec:
    def test_toml_and_json_round_trip(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text(TOML)
        spec = load_search_spec(path)
        assert spec.name == "tsearch"
        assert spec.fraction == 0.5 and spec.confidence == 0.9
        assert [r.seeds for r in spec.rungs] == [1, 2]
        assert spec.rungs[0].sample == 300 and spec.rungs[1].sample is None
        assert spec.sweep.name == "tgrid"
        jpath = tmp_path / "s.json"
        spec.to_json(jpath)
        clone = load_search_spec(jpath)
        assert clone.to_dict() == spec.to_dict()

    def test_name_defaults_to_sweep_name(self):
        spec = SearchSpec(sweep=mini_sweep(), rungs=({"seeds": 1},))
        assert spec.name == "msgrid-search"

    def test_store_sweep_names(self):
        spec = mini_search(name="s")
        assert spec.rung_sweep(0) == "s:rung0"
        assert spec.rung_sweep(1) == "s:rung1"
        assert spec.exhaustive_sweep() == "s:exhaustive"

    def test_rung_warmup_overrides_sweep(self):
        spec = mini_search(
            sweep=mini_sweep(warmup=1000),
            rungs=({"seeds": 1, "sample": 300, "warmup": 200}, {"seeds": 1}),
        )
        assert spec.rung_warmup(0) == 200
        assert spec.rung_warmup(1) == 1000

    def test_needs_at_least_one_rung(self):
        with pytest.raises(SearchSpecError, match="at least one rung"):
            mini_search(rungs=())

    def test_fidelity_must_be_non_decreasing(self):
        with pytest.raises(SearchSpecError, match="non-decreasing"):
            mini_search(rungs=({"seeds": 2}, {"seeds": 2, "sample": 300}))
        with pytest.raises(SearchSpecError, match="non-decreasing"):
            mini_search(
                rungs=({"seeds": 3, "sample": 300}, {"seeds": 2, "sample": 300})
            )

    def test_bad_knobs_rejected(self):
        with pytest.raises(SearchSpecError, match="fraction"):
            mini_search(fraction=0.0)
        with pytest.raises(SearchSpecError, match="fraction"):
            mini_search(fraction=1.5)
        with pytest.raises(SearchSpecError, match="objective"):
            mini_search(objective="median")
        with pytest.raises(SearchSpecError, match="confidence"):
            mini_search(confidence=1.0)
        with pytest.raises(SearchSpecError, match="max_extra_seeds"):
            mini_search(max_extra_seeds=-1)
        with pytest.raises(SearchSpecError, match="min_survivors"):
            mini_search(min_survivors=0)
        with pytest.raises(SearchSpecError, match="rung seeds must be a positive integer"):
            Rung(seeds=0)
        with pytest.raises(SearchSpecError, match="sample"):
            Rung(seeds=1, sample=0)

    @pytest.mark.parametrize(
        "line, bad",
        [("sample = 1000", "sample = 1000.5"),
         ("seeds = 2\n", "seeds = 2.5\n"),
         ("seeds = 2\n", "seeds = true\n"),
         ("max_extra_seeds = 2", "max_extra_seeds = 1.5"),
         ("max_extra_seeds = 2", "min_survivors = true")],
        ids=["sample-float", "seeds-float", "seeds-bool", "max_extra_seeds-float",
             "min_survivors-bool"],
    )
    def test_non_int_counts_name_the_file(self, tmp_path, line, bad):
        smoke = Path(__file__).parents[1] / "sweeps" / "search_smoke.toml"
        text = smoke.read_text()
        assert line in text
        path = tmp_path / "search_smoke.toml"
        path.write_text(text.replace(line, bad, 1))
        with pytest.raises(SearchSpecError, match=f"^{re.escape(str(path))}: .*integer, got"):
            load_search_spec(path)

    def test_unknown_search_field_rejected(self, tmp_path):
        data = {"search": {"bogus": 1, "rungs": [{"seeds": 1}]},
                "sweep": mini_sweep().to_dict()}
        with pytest.raises(SearchSpecError, match="unknown search field"):
            SearchSpec.from_dict(data)

    def test_embedded_sweep_errors_are_wrapped(self):
        with pytest.raises(SearchSpecError, match="embedded sweep"):
            SearchSpec.from_dict(
                {"search": {"rungs": [{"seeds": 1}]},
                 "sweep": {"name": "x", "bogus": 1}}
            )

    def test_missing_sweep_tables_rejected(self):
        with pytest.raises(SearchSpecError, match="embedded sweep"):
            SearchSpec.from_dict({"search": {"rungs": [{"seeds": 1}]}})


class TestPromote:
    def test_clear_separation_eliminates(self):
        aggs = [
            agg("a", 0, [20.0, 21.0, 19.0]),
            agg("b", 1, [10.0, 11.0, 9.0]),
            agg("c", 2, [-5.0, -6.0, -4.0]),
            agg("d", 3, [-30.0, -31.0, -29.0]),
        ]
        decision = promote(aggs, fraction=0.5)
        assert [a.point_id for a in decision.survivors] == ["a", "b"]
        assert [a.point_id for a in decision.eliminated] == ["c", "d"]
        assert decision.ambiguous == [] and decision.failed == []
        assert decision.cut == aggs[1].ci_lo

    def test_overlapping_ci_is_ambiguous_not_eliminated(self):
        aggs = [
            agg("a", 0, [20.0, 21.0, 19.0]),
            agg("b", 1, [10.0, 30.0, 12.0]),  # wide CI straddling the cut
        ]
        decision = promote(aggs, fraction=0.5)
        assert [a.point_id for a in decision.survivors] == ["a"]
        assert [a.point_id for a in decision.ambiguous] == ["b"]
        assert decision.eliminated == []
        assert [a.point_id for a in decision.promoted] == ["a", "b"]

    def test_everyone_survives_when_k_covers_ranked(self):
        aggs = [agg("a", 0, [1.0, 2.0]), agg("b", 1, [3.0, 4.0])]
        decision = promote(aggs, fraction=1.0)
        assert decision.cut is None
        assert len(decision.survivors) == 2 and not decision.eliminated

    def test_min_survivors_floor(self):
        aggs = [agg(p, i, [float(10 - 10 * i)] * 3) for i, p in
                enumerate("abcd")]
        decision = promote(aggs, fraction=0.01, min_survivors=2)
        assert len(decision.survivors) == 2

    def test_failed_points_never_promote(self):
        aggs = [agg("a", 0, [5.0, 6.0]), agg("dead", 1, [], n_failed=2)]
        decision = promote(aggs, fraction=0.5)
        assert [a.point_id for a in decision.failed] == ["dead"]
        assert "dead" not in {a.point_id for a in decision.promoted}

    def test_rank_ties_break_by_grid_order(self):
        aggs = [agg("b", 1, [5.0, 5.0]), agg("a", 0, [5.0, 5.0])]
        decision = promote(aggs, fraction=0.5)
        assert decision.survivors[0].point_id == "a"

    def test_objective_value_falls_back_mean_ward(self):
        broken = agg("x", 0, [-150.0, 10.0])  # geomean undefined
        assert broken.geomean is None
        assert objective_value(broken, "geomean") == broken.mean
        dead = agg("y", 1, [], n_failed=1)
        assert objective_value(dead, "mean") == float("-inf")

    def test_decision_to_dict(self):
        decision = promote([agg("a", 0, [5.0, 6.0])], fraction=1.0)
        assert isinstance(decision, PromotionDecision)
        d = decision.to_dict()
        assert d["survivors"] == ["a"] and d["cut"] is None


class TestController:
    def test_search_completes_with_winner_from_grid(self, tmp_path):
        spec = mini_search()
        store = ResultStore(tmp_path / "s.db")
        summary = run_search(spec, store, policy=NO_CACHE)
        assert summary.complete
        assert summary.grid_points == 3
        assert len(summary.rungs) == 2
        grid_ids = {p.point_id for p in spec.sweep.expand()}
        assert summary.winner["point_id"] in grid_ids
        assert summary.done == summary.total and summary.failed == 0
        assert summary.simulated == summary.total
        # the funnel never grows
        assert summary.rungs[1].points_in <= summary.rungs[0].points_in
        # leaderboard is best-first by the objective
        values = [e["value"] for e in summary.leaderboard]
        assert values == sorted(values, reverse=True)
        assert 0 < summary.units
        assert summary.exhaustive_units > 0

    def test_replay_matches_live_run_and_dispatches_nothing(
        self, tmp_path, monkeypatch
    ):
        spec = mini_search()
        store = ResultStore(tmp_path / "s.db")
        live = run_search(spec, store, policy=NO_CACHE)

        import repro.harness.parallel as par

        def boom(*a):
            raise AssertionError("replay must not simulate")

        monkeypatch.setattr(par, "_run_task", boom)
        replay = search_result(spec, store)
        assert replay.simulated == 0
        assert replay.complete
        assert replay.winner == live.winner

        def settled(summary):
            # `simulated` counts this invocation's dispatches: live > 0,
            # replay 0 by construction.  Everything else must match.
            d = summary.to_dict()
            d["simulated"] = 0
            for rung in d["rungs"]:
                rung["simulated"] = 0
            return d

        assert settled(replay) == settled(live)

    def test_resume_of_finished_search_is_a_noop(self, tmp_path, monkeypatch):
        spec = mini_search()
        store = ResultStore(tmp_path / "s.db")
        run_search(spec, store, policy=NO_CACHE)

        import repro.harness.parallel as par

        def boom(*a):
            raise AssertionError("resume must not re-simulate done rows")

        monkeypatch.setattr(par, "_run_task", boom)
        resumed = run_search(spec, store, policy=NO_CACHE)
        assert resumed.complete and resumed.simulated == 0

    def test_max_points_truncates_the_grid(self, tmp_path):
        spec = mini_search()
        store = ResultStore(tmp_path / "s.db")
        summary = run_search(spec, store, policy=NO_CACHE, max_points=1)
        assert summary.grid_points == 1 and summary.complete

    def test_failing_point_degrades_gracefully(self, tmp_path, monkeypatch):
        spec = mini_search(
            sweep=mini_sweep(
                axes={"predictor": ["oracle", "wang-franklin"]}, retries=0,
            ),
        )
        bad = spec.sweep.expand()[1]
        assert bad.params["predictor"] == "wang-franklin"
        fail_runs_of(monkeypatch, bad.point_id[:8])
        store = ResultStore(tmp_path / "s.db")
        summary = run_search(spec, store, policy=NO_CACHE.merged(jobs=1))
        assert summary.failed > 0
        failed = [r for r in store.rows(spec.rung_sweep(0)) if r["status"] == "failed"]
        assert {r["point_id"] for r in failed} == {bad.point_id}
        assert all(r["attempts"] == 1 for r in failed)
        assert summary.winner is not None  # the healthy point still wins
        assert summary.winner["params"]["predictor"] == "oracle"

    def test_replay_of_empty_store_reports_incomplete(self, tmp_path):
        spec = mini_search()
        store = ResultStore(tmp_path / "s.db")
        summary = search_result(spec, store)
        assert not summary.complete and summary.winner is None
        assert summary.total == 0
        assert summary.rungs and summary.rungs[0].decision is None

    def test_exhaustive_reference_uses_final_rung_protocol(self):
        spec = mini_search(
            sweep=mini_sweep(warmup=100),
            rungs=({"seeds": 1, "sample": 300}, {"seeds": 2, "sample": 400}),
        )
        ref = exhaustive_reference(spec)
        assert ref.name == spec.exhaustive_sweep()
        assert ref.seeds == (0, 1)
        assert ref.sample == 400 and ref.warmup == 100
        # same grid, same point ids
        assert [p.point_id for p in ref.expand()] == [
            p.point_id for p in spec.sweep.expand()
        ]


class TestCrashResume:
    """The acceptance contract: kill the controller mid-campaign, resume,
    and require zero re-simulation of committed rows plus a final report
    byte-identical to an uninterrupted run."""

    def run_interrupted(self, tmp_path, monkeypatch, kill_after):
        spec = mini_search()
        store = ResultStore(tmp_path / "crash.db")
        committed = 0
        real_mark_done = ResultStore.mark_done

        def dying_mark_done(self, *args, **kwargs):
            nonlocal committed
            if committed >= kill_after:
                raise KeyboardInterrupt
            committed += 1
            return real_mark_done(self, *args, **kwargs)

        monkeypatch.setattr(ResultStore, "mark_done", dying_mark_done)
        with pytest.raises(KeyboardInterrupt):
            run_search(spec, store, policy=ExecutionPolicy(cache=False, chunk=1))
        monkeypatch.setattr(ResultStore, "mark_done", real_mark_done)
        return spec, store, committed

    def test_resume_never_resimulates_committed_rows(
        self, tmp_path, monkeypatch
    ):
        kill_after = 2
        spec, store, committed = self.run_interrupted(
            tmp_path, monkeypatch, kill_after
        )
        assert committed == kill_after
        done_before = sum(
            store.counts(spec.rung_sweep(i))["done"]
            for i in range(len(spec.rungs))
        )
        assert done_before == kill_after

        import repro.harness.parallel as par

        calls = []
        real = par._run_task
        monkeypatch.setattr(
            par, "_run_task", lambda *a: calls.append(a) or real(*a)
        )
        resumed = run_search(spec, store, policy=NO_CACHE)
        assert resumed.complete
        # zero re-simulation: only never-committed rows were dispatched
        assert len(calls) == resumed.simulated == resumed.total - committed

    def test_resumed_report_byte_identical_to_uninterrupted(
        self, tmp_path, monkeypatch
    ):
        spec, store, _ = self.run_interrupted(tmp_path, monkeypatch, 2)
        run_search(spec, store, policy=NO_CACHE)
        resumed_report = full_search_report(spec, store)

        clean_store = ResultStore(tmp_path / "clean.db")
        run_search(mini_search(), clean_store, policy=NO_CACHE)
        clean_report = full_search_report(mini_search(), clean_store)
        assert resumed_report == clean_report


class TestReport:
    def test_report_renders_funnel_leaderboard_winner(self, tmp_path):
        spec = mini_search()
        store = ResultStore(tmp_path / "s.db")
        summary = run_search(spec, store, policy=NO_CACHE)
        text = format_search_report(spec, summary)
        assert text.startswith(f"# search {spec.name}")
        assert "## rung funnel" in text
        assert "## final leaderboard" in text
        assert "## winner" in text
        assert summary.winner["point_id"] in text
        assert "% of exhaustive grid cost" in text

    def test_report_on_unstarted_search_shows_no_winner(self, tmp_path):
        spec = mini_search()
        store = ResultStore(tmp_path / "s.db")
        text = full_search_report(spec, store)
        assert "(none yet" in text


class TestFidelity:
    def test_smoke_search_matches_exhaustive_under_budget(self, tmp_path):
        """THE acceptance criterion: on the checked-in smoke grid the
        search finds the same winner as the exhaustive sweep for well
        under 60% of the grid's (point, seed, length) work."""
        spec = load_search_spec("sweeps/search_smoke.toml")
        store = ResultStore(tmp_path / "fid.db")
        verdict = fidelity_check(spec, store, policy=NO_CACHE)
        assert verdict["winner_match"], (
            f"search winner {verdict['search_winner']} != "
            f"grid winner {verdict['grid_winner']}"
        )
        assert verdict["cost"]["fraction"] < 0.6
        # the search actually pruned: rung 0 eliminated someone
        rung0 = verdict["search"]["rungs"][0]
        assert len(rung0["decision"]["eliminated"]) > 0
        # both campaigns completed in the shared store
        assert verdict["search"]["complete"]
        assert verdict["exhaustive"]["failed"] == 0
        assert store.sweeps()  # rungs + exhaustive share one database


class TestSearchCLI:
    def test_run_status_report_resume(self, tmp_path, capsys):
        from repro.__main__ import main

        spec_path = tmp_path / "t.toml"
        spec_path.write_text(TOML)
        db = str(tmp_path / "t.db")

        # status before any run fails cleanly
        assert main(["search", "status", str(spec_path), "--db", db]) == 1
        assert "no rows" in capsys.readouterr().out

        assert main(["search", "run", str(spec_path), "--db", db,
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "complete" in out and "winner" in out

        assert main(["search", "resume", str(spec_path), "--db", db,
                     "--no-cache"]) == 0
        assert "0 simulated" in capsys.readouterr().out

        assert main(["search", "status", str(spec_path), "--db", db]) == 0
        out = capsys.readouterr().out
        assert "rung 0" in out and "commits:" in out and "winner:" in out

        json_path = tmp_path / "s.json"
        assert main(["search", "report", str(spec_path), "--db", db,
                     "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "# search tsearch" in out
        payload = json.loads(json_path.read_text())
        assert payload["complete"] and payload["winner"]

    def test_status_json_is_the_summary_dict(self, tmp_path, capsys):
        from repro.__main__ import main

        spec_path = tmp_path / "t.toml"
        spec_path.write_text(TOML)
        db = str(tmp_path / "t.db")
        assert main(["search", "run", str(spec_path), "--db", db,
                     "--no-cache"]) == 0
        capsys.readouterr()
        assert main(["search", "status", str(spec_path), "--db", db,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "tsearch"
        assert payload["cost_fraction"] > 0
        assert [r["index"] for r in payload["rungs"]] == [0, 1]
