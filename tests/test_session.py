"""Tests for the run API's ingredients: registries, stats schema, CLI report.

Covers these contracts:

* ``repro.vp`` / ``repro.select`` expose string-keyed registries whose
  factories pickle and cache-describe;
* ``SimStats.to_dict``/``from_dict`` round-trip ``extended`` behind a
  schema-version field while old fixtures load byte-identically;
* the ``run --trace`` and ``report`` CLI subcommands work end to end.

How ``RunSpec``/``run_simulations`` compose with the result cache is
checked in ``tests/test_harness.py``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pickle
from pathlib import Path

import pytest

from repro import select, vp
from repro.core import SimStats
from repro.harness import ResultCache
from repro.harness.cache import describe_factory
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
        # any pre-observability build of the cache, in today's entry
        # frame (a blake2b digest of the body, then the body)
        cache = ResultCache(tmp_path)
        old = SimStats(cycles=77, loads=5).to_dict()
        key = "f" * 64
        body = json.dumps(old).encode()
        (tmp_path / f"{key}.json").write_bytes(hashlib.blake2b(body).digest() + body)
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
