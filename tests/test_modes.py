"""Tests for the composable ExecutionModel layer (repro.core.modes).

The mode seam extracted the per-SimMode behaviour of the staged engine
into strategy objects.  These tests pin the seam down from four sides:

* the registry — every paper mode plus the two new models resolve by
  name and by enum, as singletons, from both spellings of the package;
* golden identity — the strategy-object reimplementation of the paper
  modes reproduces the pre-refactor golden stats digests bit for bit;
* SMT — independent co-scheduled programs interfere through the shared
  pools and report per-context attribution;
* SpMT — Prophet-style branch spawns fork ahead, confirm on correct
  spawn-branch prediction, squash on incorrect, and conserve the
  architectural instruction count either way.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import MachineConfig, _steady_state_footprint, simulate
from repro.core import Engine, SimMode
from repro.core.modes import MODELS, get, names, resolve_model
from repro.select import AlwaysSelector, IlpPredSelector
from repro.vp import OraclePredictor, WangFranklinPredictor
from repro.workloads import TraceSet, get_workload

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_stats.json"
GOLDEN = {
    name: fx
    for name, fx in json.loads(GOLDEN_PATH.read_text()).items()
    if "lanes" not in fx
}

PREDICTORS = {"wang_franklin": WangFranklinPredictor, "oracle": OraclePredictor}
SELECTORS = {"ilp_pred": IlpPredSelector, "always": AlwaysSelector}

ALL_MODE_KEYS = {"baseline", "stvp", "spawn_only", "mtvp", "smt", "spmt"}


def _canonical_stats(stats) -> dict:
    d = stats.to_dict()
    d.pop("instructions_stepped", None)
    return d


def _digest(d: dict) -> str:
    blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class TestRegistry:
    def test_every_mode_is_registered(self):
        assert set(names()) == ALL_MODE_KEYS
        assert set(MODELS.names()) == ALL_MODE_KEYS

    def test_resolution_by_enum_and_by_name_is_the_same_singleton(self):
        for mode in SimMode:
            by_enum = resolve_model(mode)
            by_name = resolve_model(mode.value)
            assert by_enum is by_name
            assert type(by_enum) is get(mode.value)
            assert by_enum.key == mode.value

    def test_top_level_alias_package(self):
        import repro.modes as alias

        assert set(alias.names()) == ALL_MODE_KEYS
        assert alias.resolve_model("mtvp") is resolve_model(SimMode.MTVP)

    def test_unknown_mode_rejected(self):
        with pytest.raises(KeyError):
            get("prophet-2")

    def test_capability_flags(self):
        assert resolve_model("baseline").single_context
        assert resolve_model("stvp").single_context
        for key in ("mtvp", "spawn_only", "spmt"):
            assert resolve_model(key).spawn_capable, key
        assert not resolve_model("smt").uses_value_prediction
        assert resolve_model("smt").multi_program
        assert resolve_model("spmt").spawn_on_branches

    def test_single_context_models_clamp_config(self):
        cfg = MachineConfig(mode=SimMode.BASELINE, num_contexts=8)
        assert cfg.num_contexts == 1
        cfg = MachineConfig(mode=SimMode.SMT, num_contexts=4)
        assert cfg.num_contexts == 4

    def test_spmt_skip_validated(self):
        with pytest.raises(ValueError, match="spmt_skip"):
            MachineConfig(mode=SimMode.SPMT, spmt_skip=0)


class TestGoldenIdentity:
    """The strategy objects reproduce the enum-era goldens bit for bit."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_paper_mode_digest_unchanged(self, name):
        fx = GOLDEN[name]
        cname, kwargs = fx["config"]
        config = getattr(MachineConfig, cname)(**kwargs)
        workload = get_workload(fx["workload"])
        trace = workload.trace(length=fx["length"], seed=fx["seed"])
        warm = (
            _steady_state_footprint(workload, config)
            if config.warm_caches
            else None
        )
        engine = Engine(
            trace,
            config,
            predictor=PREDICTORS[fx["predictor"]](),
            selector=SELECTORS[fx["selector"]](),
            warm_addresses=warm,
        )
        got = _canonical_stats(engine.run())
        assert _digest(got) == fx["digest"], (
            f"strategy-object refactor changed golden {name!r}"
        )


class TestSmtCoSchedule:
    LENGTH = 3000

    def _solo_cycles(self, workload: str, seed: int) -> int:
        stats = simulate(
            workload,
            MachineConfig.hpca05_baseline(),
            length=self.LENGTH,
            seed=seed,
        )
        return stats.cycles

    def test_per_context_attribution(self):
        stats = simulate(
            "mcf", MachineConfig.smt(programs=2), length=self.LENGTH
        )
        assert len(stats.per_context) == 2
        for i, row in enumerate(stats.per_context):
            assert row["stream"] == i
            assert row["instructions"] == self.LENGTH
            assert row["cycles"] > 0
            assert row["ipc"] == pytest.approx(
                row["instructions"] / row["cycles"], abs=1e-5
            )
        assert stats.useful_instructions == 2 * self.LENGTH
        assert stats.cycles == max(r["cycles"] for r in stats.per_context)
        # no speculation machinery runs in the co-schedule
        assert stats.spawns == 0 and stats.total_predictions == 0

    def test_co_scheduled_programs_interfere(self):
        # same two dynamic streams, solo and co-scheduled: sharing the
        # group-0 fetch/rename/IQ/issue pools and the hierarchy must not
        # speed anyone up, and must slow at least one stream down
        stats = simulate(
            "mcf", MachineConfig.smt(programs=2), length=self.LENGTH
        )
        solo = [self._solo_cycles("mcf", seed) for seed in (0, 1)]
        co = [row["cycles"] for row in stats.per_context]
        assert all(c >= s for c, s in zip(co, solo))
        assert any(c > s for c, s in zip(co, solo))

    def test_trace_set_input_adapts_context_count(self):
        traces = TraceSet(
            name="pair",
            traces=(
                get_workload("mcf").trace(length=800, seed=0),
                get_workload("gzip g").trace(length=800, seed=0),
            ),
            labels=("mcf", "gzip"),
        )
        stats = simulate(traces, MachineConfig.smt(programs=8))
        assert len(stats.per_context) == 2
        assert stats.useful_instructions == 1600

    def test_warmup_rejected(self):
        with pytest.raises(ValueError, match="warmup"):
            simulate("mcf", MachineConfig.smt(), length=500, warmup=100)

    def test_single_explicit_trace_rejected(self):
        trace = get_workload("mcf").trace(length=300)
        with pytest.raises(TypeError, match="TraceSet or a workload"):
            simulate(trace, MachineConfig.smt())

    def test_engine_trace_count_must_match_contexts(self):
        trace = get_workload("mcf").trace(length=300)
        with pytest.raises(ValueError, match="one program per context"):
            Engine(trace, MachineConfig.smt(programs=2))


class TestSpmt:
    def _run(self, workload="mcf", length=3000, **overrides):
        return simulate(
            workload, MachineConfig.spmt(threads=8, **overrides), length=length
        )

    def test_spawns_and_conservation(self):
        stats = self._run()
        assert stats.spmt_spawns > 0
        assert stats.spawns == stats.spmt_spawns
        assert stats.spmt_squashes <= stats.spmt_spawns
        assert stats.confirms + stats.spmt_squashes <= stats.spmt_spawns
        # closure accounting: every trace position commits architecturally
        # exactly once, whether the parent or a confirmed child ran it
        assert stats.useful_instructions == 3000

    def test_squashes_on_mispredicted_spawn_branches(self, builder):
        # a branch whose outcome flips from a seeded pattern defeats the
        # predictor often enough that some spawns carry validity 0
        import random

        rng = random.Random(9)
        trace = []
        for _ in range(120):
            for _ in range(10):
                trace.append(builder.int_alu(dst=1))
            trace.append(builder.branch(taken=rng.random() < 0.5, pc=0x500))
        stats = simulate(trace, MachineConfig.spmt(threads=4, spmt_skip=8))
        assert stats.spmt_spawns > 0
        assert stats.spmt_squashes > 0
        assert stats.useful_instructions == len(trace)

    def test_predictable_branches_mostly_confirm(self, builder):
        trace = []
        for _ in range(200):
            for _ in range(6):
                trace.append(builder.int_alu(dst=1))
            trace.append(builder.branch(taken=True, pc=0x600))
        stats = simulate(trace, MachineConfig.spmt(threads=4, spmt_skip=8))
        assert stats.spmt_spawns > 0
        assert stats.confirms > stats.spmt_squashes
        assert stats.useful_instructions == len(trace)

    def test_no_spawn_past_trace_end(self, builder):
        # the only branch sits so close to the end that the skip distance
        # would start the child beyond the trace: no spawn may happen
        trace = [builder.int_alu(dst=1) for _ in range(50)]
        trace.append(builder.branch(taken=True))
        trace.extend(builder.int_alu(dst=1) for _ in range(5))
        stats = simulate(trace, MachineConfig.spmt(threads=4, spmt_skip=48))
        assert stats.spmt_spawns == 0
        assert stats.useful_instructions == len(trace)

    def test_spawn_speeds_up_vs_baseline(self):
        spmt = self._run()
        base = simulate("mcf", MachineConfig.hpca05_baseline(), length=3000)
        # pre-computed live-ins make confirmed forks pure lookahead; the
        # run must not be slower than serial execution
        assert spmt.cycles <= base.cycles

    def test_stats_fields_absent_for_paper_modes(self):
        stats = simulate("mcf", MachineConfig.mtvp(threads=4), length=1000)
        d = stats.to_dict()
        assert "spmt_spawns" not in d
        assert "per_context" not in d


class TestSweepAndServerSeams:
    def test_sweep_presets_for_new_modes(self):
        from repro.sweep.spec import run_spec_for

        spec = run_spec_for({"machine": "smt", "threads": 2})
        cfg = spec.config_factory()
        assert cfg.mode is SimMode.SMT and cfg.num_contexts == 2
        spec = run_spec_for(
            {"machine": "spmt", "threads": 4, "spmt_skip": 16}
        )
        cfg = spec.config_factory()
        assert cfg.mode is SimMode.SPMT
        assert cfg.num_contexts == 4 and cfg.spmt_skip == 16

    @pytest.mark.parametrize(
        "spec_file", ["smt_coschedule.toml", "spmt_spawn.toml"]
    )
    def test_checked_in_sweep_specs_smoke(self, spec_file, tmp_path):
        import dataclasses

        from repro.harness.policy import ExecutionPolicy
        from repro.sweep import ResultStore, load_spec, run_sweep

        spec = load_spec(
            Path(__file__).parent.parent / "sweeps" / spec_file
        )
        spec = dataclasses.replace(spec, seeds=(0,), lengths=(1200,))
        with ResultStore(tmp_path / "s.db") as store:
            summary = run_sweep(
                spec, store,
                policy=ExecutionPolicy(cache=False), max_points=2,
            )
        assert summary.done == summary.total > 0
        assert summary.failed == 0
