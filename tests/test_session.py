"""Tests for the unified run API: registries, Session facade, CLI report.

Covers the api_redesign contracts:

* ``repro.vp`` / ``repro.select`` expose string-keyed registries whose
  factories pickle and cache-describe;
* ``repro.harness.Session`` is the one keyword-only front door, and its
  ``observe``/``tracer`` modes compose with the result cache correctly;
* ``SimStats.to_dict``/``from_dict`` round-trip ``extended`` behind a
  schema-version field while old fixtures load byte-identically;
* the ``run --trace`` and ``report`` CLI subcommands work end to end.
"""

from __future__ import annotations

import functools
import json
import pickle
from pathlib import Path

import pytest

from repro import MachineConfig, select, vp
from repro.core import SimStats
from repro.harness import (
    ConfigFactory,
    ExecutionPolicy,
    ResultCache,
    Session,
    run_once,
)
from repro.harness.cache import describe_factory, task_key
from repro.memory import MemLevel

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_stats.json"


class TestRegistries:
    def test_names_cover_the_component_families(self):
        assert {"oracle", "wang-franklin", "dfcm", "last-value", "stride"} <= set(
            vp.names()
        )
        assert {"always", "ilp-pred", "ilp-commit", "miss-oracle"} <= set(
            select.names()
        )

    def test_create_returns_fresh_instances(self):
        a = vp.create("last-value")
        b = vp.create("last-value")
        assert type(a).__name__ == "LastValuePredictor"
        assert a is not b

    def test_factory_plain_name_is_the_class(self):
        cls = vp.factory("oracle")
        assert isinstance(cls, type)
        assert describe_factory(cls) is not None

    def test_factory_with_kwargs_is_partial_and_picklable(self):
        fac = vp.factory("wang-franklin", threshold=8, penalty=4)
        assert isinstance(fac, functools.partial)
        inst = fac()
        assert inst.threshold == 8 and inst.penalty == 4
        assert pickle.loads(pickle.dumps(fac))().threshold == 8
        desc = describe_factory(fac)
        assert desc["kwargs"] == {"penalty": 4, "threshold": 8}

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="wang-franklin"):
            vp.create("nonesuch")

    def test_resolve_passthrough_and_errors(self):
        cls = select.get("always")
        assert select.resolve(cls) is cls
        assert select.resolve("always") is cls
        with pytest.raises(TypeError):
            select.resolve(cls, mtvp_level=MemLevel.L3)
        with pytest.raises(TypeError):
            select.resolve(42)


class TestConfigFactory:
    def test_returns_fresh_copies(self):
        base = MachineConfig.mtvp(4)
        fac = ConfigFactory(base)
        a, b = fac(), fac()
        assert a == base and a is not base and a is not b

    def test_picklable(self):
        fac = ConfigFactory(MachineConfig.hpca05_baseline())
        assert pickle.loads(pickle.dumps(fac))() == fac()


class TestSession:
    def test_defaults_run_baseline(self):
        stats = Session(
            length=1200, policy=ExecutionPolicy(cache=False)
        ).run("mcf")
        assert stats.cycles > 0
        assert not stats.extended

    def test_rejects_positional_arguments(self):
        with pytest.raises(TypeError):
            Session(MachineConfig.mtvp(4))

    def test_run_many_matches_run(self):
        s = Session(length=1200, policy=ExecutionPolicy(cache=False))
        assert s.run_many(["mcf"])[0] == s.run("mcf")

    def test_observe_fills_extended(self):
        s = Session(
            config=MachineConfig.mtvp(8), predictor="wang-franklin",
            selector="always", length=1500, observe=True,
            policy=ExecutionPolicy(cache=False),
        )
        stats = s.run("mcf")
        assert stats.extended["metrics"]["histograms"]["rob_occupancy"][
            "total_weight"
        ] > 0

    def test_observe_keys_cache_separately(self, tmp_path):
        cache = ResultCache(tmp_path)
        policy = ExecutionPolicy(cache=cache)
        plain = Session(length=1200, policy=policy).run("mcf")
        observed = Session(length=1200, observe=True, policy=policy).run("mcf")
        assert not plain.extended and observed.extended
        assert cache.stores == 2  # distinct keys, no aliasing
        # repeating either hits the cache and preserves its shape
        again = Session(length=1200, observe=True, policy=policy).run("mcf")
        assert cache.hits >= 1
        assert again.extended == observed.extended

    def test_tracer_runs_bypass_cache(self, tmp_path):
        from repro.obs import Tracer

        cache = ResultCache(tmp_path)
        tracer = Tracer()
        s = Session(
            config=MachineConfig.mtvp(8), predictor="wang-franklin",
            selector="always", length=1500, tracer=tracer,
            policy=ExecutionPolicy(cache=cache),
        )
        stats = s.run("mcf")
        assert len(tracer) > 0
        assert cache.stores == 0 and cache.hits == 0
        assert stats.cycles > 0

    def test_spec_carries_the_recipe(self):
        s = Session(predictor="dfcm", selector="always", observe=True)
        spec = s.spec("probe")
        assert spec.name == "probe"
        assert spec.observe is True
        assert spec.predictor_factory is vp.get("dfcm")

    def test_string_recipes_are_cacheable(self):
        spec = Session(predictor="wang-franklin", selector="ilp-pred").spec()
        assert task_key("mcf", spec, 1000, 0) is not None

    def test_run_once_matches_session(self):
        spec = Session(length=1200).spec()
        stats = run_once("mcf", spec, 1200, 0)
        assert stats == Session(
            length=1200, policy=ExecutionPolicy(cache=False)
        ).run("mcf")


class TestStatsSchema:
    def test_plain_round_trip_unchanged(self):
        stats = SimStats(cycles=10, loads=3)
        d = stats.to_dict()
        assert "extended" not in d and "schema_version" not in d
        assert SimStats.from_dict(d) == stats

    def test_extended_round_trip(self):
        stats = SimStats(cycles=10)
        stats.extended = {"schema": 1, "metrics": {"counters": {"kills_observed": 2}}}
        d = stats.to_dict()
        assert d["schema_version"] == 2
        back = SimStats.from_dict(json.loads(json.dumps(d)))
        assert back.extended == stats.extended
        assert back == stats  # compare=False, but counters must agree too
        assert back.cycles == 10

    def test_golden_fixture_stats_load_unchanged(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        for name, fx in golden.items():
            if "lanes" in fx:
                # seed-replicate fixtures record per-seed digests, not a
                # stats dict; tests/test_perf_kernel.py exercises them
                continue
            stats = SimStats.from_dict(fx["stats"])
            assert not stats.extended
            d = stats.to_dict()
            # the goldens pre-date instructions_stepped (an additive field
            # defaulting to 0); everything they do record must round-trip
            # byte-identically, with no schema marker appearing
            d.pop("instructions_stepped", None)
            assert d == fx["stats"], name

    def test_old_cache_entries_still_load(self, tmp_path):
        # a schema-1 payload (no extended/schema_version), as written by
        # any pre-observability build of the cache
        cache = ResultCache(tmp_path)
        old = SimStats(cycles=77, loads=5).to_dict()
        key = "f" * 64
        (tmp_path / f"{key}.json").write_text(
            json.dumps({"key": key, "stats": old})
        )
        stats = cache.get(key)
        assert stats is not None and stats.cycles == 77
        assert not stats.extended


class TestCli:
    def test_run_with_trace_export(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "trace.json"
        code = main([
            "run", "mcf", "--machine", "mtvp", "--selector", "always",
            "--length", "1500", "--trace", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert any(ev["ph"] == "X" for ev in payload["traceEvents"])
        assert "context lanes" in capsys.readouterr().out

    def test_run_trace_jsonl_format(self, tmp_path):
        from repro.__main__ import main

        out = tmp_path / "trace.jsonl"
        code = main([
            "run", "mcf", "--length", "1200", "--trace", str(out),
            "--trace-format", "jsonl",
        ])
        assert code == 0
        first = json.loads(out.read_text().splitlines()[0])
        assert first["event"] == "thread"

    def test_report_prints_occupancy(self, tmp_path, capsys):
        from repro.__main__ import main

        args = [
            "report", "mcf", "--machine", "mtvp", "--selector", "always",
            "--length", "1500", "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        text = capsys.readouterr().out
        assert "rob_occupancy" in text
        assert "cycle-weighted" in text
        # second invocation is served from the cache, identically
        assert main(args) == 0
        assert "rob_occupancy" in capsys.readouterr().out
