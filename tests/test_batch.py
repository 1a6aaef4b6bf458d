"""Identity suite for the lane-batched lockstep kernel.

The contract of :mod:`repro.core.engine.batch` is absolute: an N-lane
batched run produces the *same bytes* as N sequential scalar runs, for
every SimMode, whether lanes diverge mid-run (MTVP spawns) or numpy is
missing entirely.  These tests pin that contract from five directions:

* golden digests — per-lane stats digests captured from the scalar
  engine on fixed lane groups, one per SimMode (the ``batched_*``
  entries in ``golden_stats.json``);
* a forced mid-run divergence test — an MTVP group whose lanes spawn and
  fall out of the vector path one by one, with the vectorized kernel
  provably engaged first;
* the numpy-absent fallback — scalar path auto-selected, one warning per
  process, identical results;
* eligibility guards — oversized port caps, observed engines and
  singleton batches all take the scalar path;
* the harness seam — ``run_simulations(lanes=...)`` groups seed
  replicates without changing results, cache keys or progress counts.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

import pytest

import repro.core.engine.batch as batch
from repro import _steady_state_footprint
from repro.core import MachineConfig
from repro.core.engine import Engine
from repro.core.engine.batch import batchable, have_numpy, run_lockstep
from repro.select import AlwaysSelector, IlpPredSelector
from repro.vp import OraclePredictor, WangFranklinPredictor
from repro.workloads import get_workload

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_stats.json"
BATCHED = {
    name: fx
    for name, fx in json.loads(GOLDEN_PATH.read_text()).items()
    if "lanes" in fx
}

PREDICTORS = {"wang_franklin": WangFranklinPredictor, "oracle": OraclePredictor}
SELECTORS = {"ilp_pred": IlpPredSelector, "always": AlwaysSelector}


def _canonical(stats) -> dict:
    d = stats.to_dict()
    d.pop("instructions_stepped", None)
    return d


def _digest(d: dict) -> str:
    blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _build_engines(fx: dict) -> list[Engine]:
    """One engine per lane, seeds ``seed .. seed+lanes-1``, exactly as
    :func:`repro.harness.runner.simulate_batch` constructs them."""
    name, kwargs = fx["config"]
    workload = get_workload(fx["workload"])
    engines = []
    for i in range(fx["lanes"]):
        config = getattr(MachineConfig, name)(**kwargs)
        trace = workload.trace(length=fx["length"], seed=fx["seed"] + i)
        warm = (
            _steady_state_footprint(workload, config)
            if config.warm_caches
            else None
        )
        engines.append(
            Engine(
                trace,
                config,
                predictor=PREDICTORS[fx["predictor"]](),
                selector=SELECTORS[fx["selector"]](),
                warm_addresses=warm,
            )
        )
    return engines


class TestGoldenBatched:
    """Batched == golden == sequential scalar, per lane and per SimMode."""

    @pytest.mark.parametrize("name", sorted(BATCHED))
    def test_batched_matches_golden_and_scalar(self, name):
        fx = BATCHED[name]
        batched = [
            _canonical(s)
            for s in run_lockstep(_build_engines(fx), verify="full")
        ]
        assert [_digest(d) for d in batched] == fx["digests"]
        scalar = [_canonical(e.run()) for e in _build_engines(fx)]
        assert batched == scalar

    def test_batched_goldens_cover_every_mode(self):
        families = {fx["config"][0] for fx in BATCHED.values()}
        assert {"hpca05_baseline", "stvp", "mtvp", "spawn_only"} <= families


class TestDivergenceFallback:
    """MTVP lanes that spawn fall out of the vector path mid-run; the
    remaining lanes keep vectorizing and nothing changes in the stats."""

    FX = BATCHED.get("batched_mtvp", None)

    @pytest.mark.skipif(not have_numpy(), reason="vector path needs numpy")
    def test_mid_run_divergence_is_bit_identical(self, monkeypatch):
        assert self.FX is not None
        # prove the vectorized kernel actually engaged (no silent
        # wholesale fallback) by spying on its construction
        engaged = []
        original = batch._LockstepBatch

        def spying(engines):
            engaged.append(len(engines))
            return original(engines)

        monkeypatch.setattr(batch, "_LockstepBatch", spying)
        batched = run_lockstep(_build_engines(self.FX), verify="full")
        assert engaged == [self.FX["lanes"]]
        # every lane spawned, i.e. every lane diverged out of lockstep
        # mid-run and finished on the scalar engine
        assert all(s.spawns > 0 for s in batched)
        scalar = [e.run() for e in _build_engines(self.FX)]
        assert [_canonical(a) for a in batched] == [
            _canonical(b) for b in scalar
        ]


class TestNumpyAbsent:
    """Without numpy every batched entry point degrades to the scalar
    loop: one RuntimeWarning per process, identical results."""

    FX = BATCHED.get("batched_baseline", None)

    def test_fallback_warns_once_and_matches(self, monkeypatch):
        assert self.FX is not None
        scalar = [_canonical(e.run()) for e in _build_engines(self.FX)]
        monkeypatch.setattr(batch, "_np", None)
        monkeypatch.setattr(batch, "_warned_no_numpy", False)
        assert not have_numpy()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = run_lockstep(_build_engines(self.FX))
            second = run_lockstep(_build_engines(self.FX))
        numpy_warnings = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "numpy" in str(w.message)
        ]
        assert len(numpy_warnings) == 1, "fallback must warn exactly once"
        assert [_canonical(s) for s in first] == scalar
        assert [_canonical(s) for s in second] == scalar

    def test_simulate_batch_survives_numpy_absence(self, monkeypatch):
        from repro.harness.runner import RunSpec, simulate_batch

        spec = RunSpec("base", MachineConfig.hpca05_baseline)
        expected = [
            _canonical(spec.run("mcf", 1200, s)) for s in (0, 1)
        ]
        monkeypatch.setattr(batch, "_np", None)
        monkeypatch.setattr(batch, "_warned_no_numpy", True)
        got = simulate_batch("mcf", spec, 1200, (0, 1))
        assert [_canonical(s) for s in got] == expected


class TestEligibility:
    def test_port_caps_over_127_are_not_batchable(self):
        import dataclasses

        trace = get_workload("mcf").trace(length=600, seed=0)
        config = dataclasses.replace(
            MachineConfig.hpca05_baseline(), issue_width=128
        )
        wide = Engine(trace, config)
        assert not batchable(wide)
        # the batch entry point still runs it, scalar, with results
        # identical to a direct run
        partner = Engine(trace, dataclasses.replace(config))
        expected = _canonical(
            Engine(trace, dataclasses.replace(config)).run()
        )
        for stats in run_lockstep([wide, partner]):
            assert _canonical(stats) == expected

    def test_observed_engines_are_not_batchable(self):
        from repro.obs import MetricsRegistry

        trace = get_workload("mcf").trace(length=600, seed=0)
        engine = Engine(
            trace, MachineConfig.hpca05_baseline(), metrics=MetricsRegistry()
        )
        assert not batchable(engine)

    def test_started_engines_are_not_batchable(self):
        trace = get_workload("mcf").trace(length=600, seed=0)
        engine = Engine(trace, MachineConfig.hpca05_baseline())
        assert batchable(engine)
        engine.run(max_steps=100)
        assert not batchable(engine)

    def test_single_engine_passthrough(self):
        trace = get_workload("mcf").trace(length=600, seed=0)
        (stats,) = run_lockstep([Engine(trace, MachineConfig.hpca05_baseline())])
        expected = Engine(trace, MachineConfig.hpca05_baseline()).run()
        assert _canonical(stats) == _canonical(expected)
        assert run_lockstep([]) == []


class TestHarnessLanes:
    """The parallel-layer seam: grouping is invisible in the results."""

    def _spec(self):
        from repro.harness.runner import RunSpec

        return RunSpec(
            "mtvp", lambda: MachineConfig.mtvp(8), "wang-franklin", "always"
        )

    def test_lane_grouping_identity_and_per_seed_cache(self, tmp_path):
        from repro.harness.cache import ResultCache
        from repro.harness.parallel import run_simulations

        spec = self._spec()
        tasks = [("mcf", spec, 1500, s) for s in range(4)]
        plain = run_simulations(tasks, lanes=1)
        cache = ResultCache(tmp_path)
        events = []
        grouped = run_simulations(
            tasks, lanes="auto", cache=cache, progress=events.append
        )
        assert [_canonical(a) for a in grouped] == [
            _canonical(b) for b in plain
        ]
        # results cached per seed, one progress event per task
        assert cache.stores == 4
        assert len(events) == 4
        repeat = run_simulations(tasks, lanes="auto", cache=cache)
        assert cache.hits == 4
        assert [_canonical(a) for a in repeat] == [
            _canonical(b) for b in plain
        ]

    def test_lane_cap_splits_groups(self):
        from repro.harness.parallel import run_simulations

        spec = self._spec()
        tasks = [("mcf", spec, 1500, s) for s in range(5)]
        capped = run_simulations(tasks, lanes=2)
        plain = run_simulations(tasks, lanes=1)
        assert [_canonical(a) for a in capped] == [
            _canonical(b) for b in plain
        ]

    def test_resolve_lanes(self, monkeypatch):
        from repro.harness.parallel import resolve_lanes

        monkeypatch.delenv("REPRO_LANES", raising=False)
        assert resolve_lanes(None) == 1
        assert resolve_lanes(6) == 6
        assert resolve_lanes("auto") == 0
        assert resolve_lanes("auto", group_size=9) == 9
        assert resolve_lanes(0, group_size=9) == 9
        monkeypatch.setenv("REPRO_LANES", "7")
        assert resolve_lanes(None) == 7
        monkeypatch.setenv("REPRO_LANES", "auto")
        assert resolve_lanes(None) == 0
        with pytest.raises(ValueError):
            resolve_lanes("many")

    def test_simulate_batch_matches_sequential(self):
        from repro.harness.runner import simulate_batch

        spec = self._spec()
        seeds = (2, 5, 9)
        batched = simulate_batch("mcf", spec, 1500, seeds)
        scalar = [spec.run("mcf", 1500, s) for s in seeds]
        assert [_canonical(a) for a in batched] == [
            _canonical(b) for b in scalar
        ]

    def test_simulate_batch_footprint_is_lazy(self, tmp_path, monkeypatch):
        # computed once for a batch that warms, never for one that restores
        import repro
        from repro.harness.checkpoint import CheckpointStore
        from repro.harness.runner import RunSpec, simulate_batch

        calls = []
        footprint = repro._steady_state_footprint
        monkeypatch.setattr(
            repro, "_steady_state_footprint",
            lambda *a: calls.append(a) or footprint(*a),
        )
        spec = RunSpec(
            "mtvp", lambda: MachineConfig.mtvp(8), "wang-franklin", "always",
            warmup=600,
        )
        store = CheckpointStore(tmp_path)
        cold = simulate_batch("mcf", spec, 900, (0, 1, 2), checkpoints=store)
        assert (len(calls), store.stores) == (1, 3)
        restored = simulate_batch("mcf", spec, 900, (0, 1, 2), checkpoints=store)
        assert (len(calls), store.hits) == (1, 3)
        assert [_canonical(a) for a in restored] == [_canonical(b) for b in cold]

    def test_trace_group_memo_reuses_traces(self):
        workload = get_workload("mcf")
        first = workload.trace_many(900, (0, 1, 2))
        again = workload.trace_many(900, (0, 1, 2))
        assert all(a is b for a, b in zip(first, again))
        assert first[0] == workload.trace(900, seed=0)


class TestCli:
    def test_run_lanes_reports_aggregate(self, capsys):
        from repro.__main__ import main

        rc = main(["run", "mcf", "--machine", "baseline",
                   "--length", "400", "--lanes", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 lanes (seeds 0..1)" in out
        assert "aggregate sim throughput" in out

    def test_run_lanes_rejects_trace_and_profile(self, capsys, tmp_path):
        from repro.__main__ import main

        rc = main(["run", "mcf", "--length", "400", "--lanes", "2",
                   "--profile", str(tmp_path / "p.prof")])
        assert rc == 1
        assert "--lanes cannot be combined" in capsys.readouterr().out


class TestLaneBench:
    def test_run_lane_point_record_schema(self):
        from repro.harness.bench import TABLE1_POINTS, run_lane_point

        rec = run_lane_point(
            TABLE1_POINTS[0], lanes=2, repeats=1, length=800
        )
        assert rec["name"] == "table1_baseline_mcf_x2"
        assert rec["lanes"] == 2
        assert rec["instructions"] == 1600
        assert rec["digests_match"] is True
        assert rec["kips"] > 0 and rec["kips_per_lane"] > 0
        assert rec["kips_per_lane"] == pytest.approx(rec["kips"] / 2, rel=0.01)
        assert rec["speedup_vs_scalar"] > 0
        assert len(rec["stats_digest"]) == 64

    def test_check_regression_gates_lane_points_on_aggregate(self, capsys):
        from repro.harness.bench import check_regression

        lane = {
            "name": "p_x4", "length": 1000, "lanes": 4, "ips": 50_000.0,
            "kips": 50.0, "kips_per_lane": 12.5, "digests_match": True,
        }
        prev = {"points": [dict(lane, ips=100_000.0)]}
        assert check_regression({"points": [lane]}, prev, 10.0) == 1
        out = capsys.readouterr().out
        assert "aggregate over 4 lanes" in out and "12.5 kips/lane" in out
        assert check_regression(
            {"points": [lane]}, {"points": [lane]}, 10.0
        ) == 0
        capsys.readouterr()
        # a digest divergence gates even when throughput held up
        broken = dict(lane, digests_match=False)
        assert check_regression(
            {"points": [broken]}, {"points": [lane]}, 10.0
        ) == 1
        assert "diverged from scalar" in capsys.readouterr().out
