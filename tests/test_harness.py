"""Tests for the experiment harness: metrics, runner, result formatting.

``RunSpec.run`` (one simulation), ``run_simulations`` (a batch, with the
result cache) and ``compare_modes`` (baseline-paired) are the only ways
to run a recipe; ``TestRunner`` checks how they compose with the cache.
"""

import dataclasses
import functools

import pytest

from repro import vp
from repro.core import MachineConfig
from repro.harness import (
    CheckpointStore,
    ExecutionPolicy,
    ExperimentResult,
    ModeResult,
    ResultCache,
    RunSpec,
    compare_modes,
    geomean_speedup,
    percent_speedup,
    run_simulations,
    task_key,
)
from repro.vp import OraclePredictor


class TestMetrics:
    def test_percent_speedup(self):
        assert percent_speedup(2.0, 1.0) == pytest.approx(100.0)
        assert percent_speedup(0.5, 1.0) == pytest.approx(-50.0)
        assert percent_speedup(1.0, 1.0) == pytest.approx(0.0)

    def test_percent_speedup_rejects_zero_base(self):
        with pytest.raises(ValueError):
            percent_speedup(1.0, 0.0)

    def test_geomean_identity(self):
        assert geomean_speedup([0.0, 0.0]) == pytest.approx(0.0)

    def test_geomean_of_equal_speedups(self):
        assert geomean_speedup([100.0, 100.0, 100.0]) == pytest.approx(100.0)

    def test_geomean_mixes_gains_and_losses(self):
        # 2x and 0.5x cancel geometrically
        assert geomean_speedup([100.0, -50.0]) == pytest.approx(0.0)

    def test_geomean_below_arithmetic_mean(self):
        values = [10.0, 200.0]
        assert geomean_speedup(values) < sum(values) / 2

    def test_geomean_rejects_empty(self):
        with pytest.raises(ValueError):
            geomean_speedup([])

    def test_geomean_rejects_total_loss(self):
        with pytest.raises(ValueError):
            geomean_speedup([-100.0])


class TestRunner:
    def test_observe_keys_cache_separately(self, tmp_path):
        cache = ResultCache(tmp_path)
        policy = ExecutionPolicy(cache=cache)
        plain_spec = RunSpec("baseline", MachineConfig.hpca05_baseline)
        observed_spec = dataclasses.replace(plain_spec, observe=True)
        [plain] = run_simulations([("mcf", plain_spec, 1200, 0)], policy=policy)
        [observed] = run_simulations([("mcf", observed_spec, 1200, 0)], policy=policy)
        assert not plain.extended
        histograms = observed.extended["metrics"]["histograms"]
        assert histograms["rob_occupancy"]["total_weight"] > 0
        assert cache.stores == 2  # distinct keys, no aliasing
        # repeating either hits the cache and preserves its shape
        [again] = run_simulations([("mcf", observed_spec, 1200, 0)], policy=policy)
        assert cache.hits == 1
        assert again.extended == observed.extended

    def test_tracer_runs_bypass_cache(self, tmp_path):
        from repro.obs import Tracer

        spec = RunSpec(
            "mtvp8", functools.partial(MachineConfig.mtvp, 8),
            predictor_factory="wang-franklin", selector_factory="always",
        )
        store = CheckpointStore(tmp_path)
        tracer = Tracer()
        stats = spec.run("mcf", 1500, 0, tracer=tracer, checkpoints=store)
        assert len(tracer) > 0
        # instrumented runs never read or write a checkpoint store
        assert store.stores == 0 and store.hits == 0
        assert stats == spec.run("mcf", 1500, 0, checkpoints=False)

    def test_string_recipes_are_cacheable(self):
        spec = RunSpec(
            "s", MachineConfig.hpca05_baseline,
            predictor_factory="wang-franklin", selector_factory="ilp-pred",
        )
        assert spec.predictor_factory is vp.get("wang-franklin")
        assert task_key("mcf", spec, 1000, 0) is not None

    def test_config_factories_key_by_value(self):
        # the CLI wraps a built config; it must share the preset's cache key
        built = RunSpec("a", functools.partial(dataclasses.replace, MachineConfig.mtvp(8)))
        preset = RunSpec("b", functools.partial(MachineConfig.mtvp, 8))
        assert task_key("mcf", built, 1000, 0) == task_key("mcf", preset, 1000, 0)

    def test_compare_modes_structure(self):
        specs = [
            RunSpec("stvp", MachineConfig.stvp, predictor_factory=OraclePredictor),
            RunSpec(
                "mtvp2",
                functools.partial(MachineConfig.mtvp, 2),
                predictor_factory=OraclePredictor,
            ),
        ]
        results = compare_modes(("crafty", "swim"), specs, length=600)
        assert set(results) == {"stvp", "mtvp2"}
        for rows in results.values():
            assert [r.workload for r in rows] == ["crafty", "swim"]
            assert rows[0].suite == "int" and rows[1].suite == "fp"
            for r in rows:
                assert r.base_ipc > 0

    def test_mode_result_speedup(self):
        from repro.core import SimStats

        r = ModeResult("x", "int", "m", ipc=2.0, base_ipc=1.0, stats=SimStats())
        assert r.speedup_percent == pytest.approx(100.0)


class TestExperimentResult:
    def test_format_table_renders_rows_and_summary(self):
        result = ExperimentResult(
            experiment_id="t",
            title="A Title",
            columns=["workload", "x"],
            rows=[{"workload": "mcf", "x": 12.5}, {"workload": "vpr r", "x": -3.25}],
            summary={"geomean": 4.0},
        )
        text = result.format_table()
        assert "A Title" in text
        assert "mcf" in text
        assert "+12.5" in text
        assert "-3.2" in text
        assert "geomean" in text

    def test_format_table_empty_rows(self):
        result = ExperimentResult("t", "Empty", ["a"], [], {})
        assert "Empty" in result.format_table()


class TestExperimentRegistry:
    def test_registry_covers_every_artifact(self):
        from repro.harness import EXPERIMENTS

        assert set(EXPERIMENTS) == {
            "fig1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "sec4",
            "sec5.1",
            "sec5.3",
            "sec5.4",
            "sec5.6",
            "ablation-latency",
        }

    def test_small_experiment_end_to_end(self, monkeypatch):
        """Run fig5 (the cheapest per-workload experiment) on a tiny trace."""
        import repro.harness.experiments as exp

        monkeypatch.setattr(exp, "ALL", ("crafty", "swim"))
        result = exp.fig5_multivalue_potential(length=800)
        assert len(result.rows) == 2
        for row in result.rows:
            assert 0.0 <= row["fraction"] <= 1.0
