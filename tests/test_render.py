"""The shallow config and stats renderings equal the ``dataclasses.asdict`` ones.

Cache keys, checkpoint keys, ``ResultCache`` entries and the sweep store's
``stats``/``config`` columns are built from :func:`render_config` and
:meth:`SimStats.to_dict`.  The tests rebuild the old rendering from
``dataclasses.asdict`` and require the same bytes, so no key or entry
written before the renderers existed is orphaned.  The last class checks
that a cached sweep row commits its cache entry's text unchanged.
"""

import dataclasses
import hashlib
import json
import shutil
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import FetchPolicy, MachineConfig, SimStats
from repro.core.config import DOMAIN
from repro.core.modes import resolve_model
from repro.harness import RunSpec, cache as cache_module
from repro.harness.bench import stats_digest
from repro.harness.cache import (
    ResultCache,
    _plain,
    code_version,
    describe_factory,
    render_config,
    stats_text,
    task_key,
)
from repro.harness.checkpoint import ARCH_CONFIG_FIELDS, arch_key
from repro.harness.policy import ExecutionPolicy
from repro.obs import MetricsRegistry
from repro.select import names as selector_names
from repro.sweep import ResultStore, SweepSpec, run_spec_for, run_sweep
from repro.sweep.spec import PRESETS, _THREADED_PRESETS
from repro.vp import names as predictor_names
from repro.workloads import workload_names

LENGTH = 1500


def old_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def old_task_key(workload, spec, length, seed):
    payload = {
        "workload": workload,
        "config": _plain(dataclasses.asdict(spec.config_factory())),
        "predictor": describe_factory(spec.predictor_factory),
        "selector": describe_factory(spec.selector_factory),
        "length": length,
        "code": code_version(),
    }
    if spec.observe:
        payload["observe"] = True
    if spec.warmup:
        payload["warmup"] = spec.warmup
    if spec.sample is not None:
        payload["sample"] = spec.sample
    payload["seed"] = seed
    return old_hash(payload)


def old_arch_key(workload, seed, warmup, spec, measured):
    config = spec.config_factory()
    if not (warmup or config.warm_caches) or resolve_model(config.mode).multi_program:
        return None
    fields = dataclasses.asdict(config)
    return old_hash({
        "workload": workload,
        "seed": seed,
        "warmup": warmup,
        "measured": measured,
        "predictor": describe_factory(spec.predictor_factory),
        "config": {name: _plain(fields[name]) for name in ARCH_CONFIG_FIELDS},
        "code": code_version(),
    })


def old_to_dict(stats: SimStats) -> dict:
    """``SimStats.to_dict`` as it was written over ``dataclasses.asdict``."""
    out = dataclasses.asdict(stats)
    del out["wall_seconds"]
    if out["extended"]:
        out["schema_version"] = 2
    else:
        del out["extended"]
    if not out["warmup_instructions"]:
        del out["warmup_instructions"]
    if not out["spmt_spawns"] and not out["spmt_squashes"]:
        del out["spmt_spawns"]
        del out["spmt_squashes"]
    if not out["per_context"]:
        del out["per_context"]
    out["level_counts"] = {
        level.name.lower(): count for level, count in stats.level_counts.items()
    }
    return out


_BOOLS = ("prefetch_enabled", "smt_shared", "collect_multivalue", "warm_caches")


def _value(name):
    if name in _BOOLS:
        return st.booleans()
    if name == "fetch_policy":
        return st.sampled_from(FetchPolicy)
    least = DOMAIN[name]
    values = st.integers(least, least + 4096)
    if name == "store_buffer_entries":
        values = st.none() | values
    return values


#: fields a drawn config overrides: the preset fixes ``mode`` and the
#: context count (a threaded preset takes it as its first argument)
_OVERRIDABLE = sorted(
    (set(DOMAIN) | set(_BOOLS) | {"fetch_policy"}) - {"num_contexts"}
)


@st.composite
def configs(draw):
    preset = draw(st.sampled_from(sorted(PRESETS)))
    names = draw(st.lists(st.sampled_from(_OVERRIDABLE), unique=True, max_size=8))
    overrides = {name: draw(_value(name)) for name in names}
    args = (draw(st.integers(1, 8)),) if preset in _THREADED_PRESETS else ()
    return PRESETS[preset](*args, **overrides)


@st.composite
def run_specs(draw):
    config = draw(configs())
    return RunSpec(
        "p",
        lambda: config,
        predictor_factory=draw(st.sampled_from(sorted(predictor_names()))),
        selector_factory=draw(st.sampled_from(sorted(selector_names()))),
        observe=draw(st.booleans()),
        warmup=draw(st.sampled_from((0, 1000))),
        sample=draw(st.sampled_from((None, 500))),
    )


class TestConfigKeys:
    @settings(max_examples=150, deadline=None)
    @given(
        spec=run_specs(),
        # workload names and code versions are spliced into the key text:
        # arbitrary strings check that the splice escapes like json.dumps
        workload=st.sampled_from(workload_names()) | st.text(max_size=8),
        length=st.integers(1, 2**63),
        seed=st.integers(0, 2**63),
        versions=st.lists(
            st.sampled_from(["0123456789abcdef"]) | st.text(max_size=8),
            min_size=2, max_size=2, unique=True,
        ),
    )
    @example(spec=RunSpec("p", MachineConfig.mtvp, "wang-franklin", observe=True,
                          warmup=1000, sample=500),
             workload="gzip g", length=16000, seed=7,
             versions=["0123456789abcdef", 'a"\\\u00e9\n'])
    def test_keys_equal_the_asdict_payload_hashes(
        self, spec, workload, length, seed, versions
    ):
        keys = []
        # one spec, two code versions: its key template follows the version
        for version in versions:
            with mock.patch.object(cache_module, "_CODE_VERSION", version):
                key = task_key(workload, spec, length, seed)
                assert key == old_task_key(workload, spec, length, seed)
                assert arch_key(workload, seed, spec.warmup, spec, length) == (
                    old_arch_key(workload, seed, spec.warmup, spec, length)
                )
            keys.append(key)
        assert keys[0] != keys[1]

    def test_a_spec_is_frozen_and_an_observed_report_keys_apart(self):
        from repro.__main__ import _run_recipe, build_parser

        args = build_parser().parse_args(
            ["report", "mcf", "--machine", "mtvp", "--length", "500"]
        )
        plain, _ = _run_recipe(args)
        observed, _ = _run_recipe(args, observe=True)
        assert observed.observe and not plain.observe
        assert task_key("mcf", plain, 500, 0) is not None
        assert task_key("mcf", observed, 500, 0) != task_key("mcf", plain, 500, 0)
        assert task_key("mcf", observed, 500, 0) == old_task_key("mcf", observed, 500, 0)
        # a cached rendering can never go stale behind a field assignment
        with pytest.raises(dataclasses.FrozenInstanceError):
            plain.observe = True
        with pytest.raises(dataclasses.FrozenInstanceError):
            plain.warmup = 1000
        assert task_key("mcf", plain, 500, 0) == old_task_key("mcf", plain, 500, 0)
        variant = dataclasses.replace(plain, observe=True)
        assert task_key("mcf", variant, 500, 0) == task_key("mcf", observed, 500, 0)

    @settings(max_examples=150, deadline=None)
    @given(config=configs())
    def test_render_equals_plain_asdict(self, config):
        rendered = render_config(config)
        assert list(rendered) == [f.name for f in dataclasses.fields(config)]
        assert rendered == _plain(dataclasses.asdict(config))
        # the store's config column
        assert json.dumps(rendered, sort_keys=True, default=str) == json.dumps(
            dataclasses.asdict(config), sort_keys=True, default=str
        )


def _runs():
    """One stats object per serialization branch of ``to_dict``."""
    yield "baseline", RunSpec("b", MachineConfig.hpca05_baseline).run("mcf", LENGTH)
    yield "stvp", RunSpec("s", MachineConfig.stvp, "wang-franklin").run("mcf", LENGTH)
    yield "mtvp", RunSpec("m", MachineConfig.mtvp, "wang-franklin").run("mcf", LENGTH)
    yield "spmt", RunSpec("p", MachineConfig.spmt).run("gcc 1", LENGTH)
    yield "smt-2", RunSpec("t", lambda: MachineConfig.smt(programs=2)).run("mcf", LENGTH)
    yield "observed", RunSpec("s", MachineConfig.stvp).run(
        "mcf", LENGTH, metrics=MetricsRegistry()
    )
    yield "warmup+sample", RunSpec(
        "w", MachineConfig.mtvp, warmup=1000, sample=LENGTH
    ).run("mcf", LENGTH)


class TestStatsToDict:
    def test_matches_the_asdict_rendering_and_shares_nothing(self):
        seen = set()
        for label, stats in _runs():
            reference = old_to_dict(stats)
            out = stats.to_dict()
            assert out == reference, label
            assert list(out) == list(reference), label
            assert json.dumps(out) == json.dumps(reference), label
            seen.update(key for key in ("per_context", "extended", "spmt_spawns",
                                        "warmup_instructions") if key in out)
            digest = stats_digest(stats)
            out["cycles"] += 1
            out["level_counts"]["memory"] = -1
            for row in out.get("per_context", ()):
                row["cycles"] = -1
            if "extended" in out:
                for value in out["extended"].values():
                    if isinstance(value, dict):
                        value["mutated"] = True
                out["extended"]["mutated"] = True
            out.clear()
            assert stats.to_dict() == reference, label
            assert stats_digest(stats) == digest, label
        # every optional section was exercised by some run
        assert seen == {"per_context", "extended", "spmt_spawns", "warmup_instructions"}

    def test_round_trips_through_from_dict(self):
        for label, stats in _runs():
            clone = SimStats.from_dict(json.loads(json.dumps(stats.to_dict())))
            assert clone.to_dict() == stats.to_dict(), label


def test_store_columns_equal_the_asdict_rendering(tmp_path):
    spec = SweepSpec(
        name="render",
        base={"machine": "mtvp", "threads": 2, "predictor": "oracle"},
        axes={"store_buffer_entries": [16, 64]},
        workloads=("mcf",),
        lengths=(LENGTH,),
        seeds=(0,),
        warmup=500,
    )
    store = ResultStore(tmp_path / "s.db")
    cache = ResultCache(tmp_path / "cache")
    summary = run_sweep(spec, store, policy=ExecutionPolicy(jobs=1, cache=cache))
    assert summary.complete
    rows = [row for row in store.rows("render") if row["status"] == "done"]
    assert len(rows) == summary.total >= 2
    for row in rows:
        run_spec = run_spec_for(json.loads(row["params"]), warmup=500)
        stats = run_spec.run(row["workload"], row["length"], row["seed"])
        assert row["stats"] == json.dumps(old_to_dict(stats), sort_keys=True)
        assert row["config"] == json.dumps(
            dataclasses.asdict(run_spec.config_factory()), sort_keys=True, default=str
        )


class TestCachedRowsMoveText:
    """A cached sweep row commits its cache entry's text as it is.

    A ``ResultCache`` entry's body is the store's ``stats`` column text,
    so a hit is neither decoded into a ``SimStats`` nor re-encoded, and
    each design point's config is built and rendered once per pass.
    """

    SPEC = dict(
        name="bytes",
        base={"machine": "mtvp", "threads": 2, "predictor": "wang-franklin"},
        axes={"store_buffer_entries": [16, 64]},
        workloads=("mcf",),
        lengths=(LENGTH,),
        seeds=(0, 1),
        warmup=500,
    )

    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        """One cold pass: its cache directory and its rows by key."""
        root = tmp_path_factory.mktemp("cold")
        spec = SweepSpec(**self.SPEC)
        store = ResultStore(root / "cold.db")
        summary = run_sweep(
            spec, store, policy=ExecutionPolicy(jobs=1, cache=root / "cache")
        )
        assert summary.complete
        rows = {(r["point_id"], r["seed"]): dict(r) for r in store.rows("bytes")}
        store.close()
        return root / "cache", rows

    def cached_pass(self, cache_dir, tmp_path):
        cache = ResultCache(cache_dir)
        store = ResultStore(tmp_path / "cached.db")
        summary = run_sweep(
            SweepSpec(**self.SPEC), store,
            policy=ExecutionPolicy(jobs=1, cache=cache),
        )
        rows = {(r["point_id"], r["seed"]): dict(r) for r in store.rows("bytes")}
        store.close()
        return summary, cache, rows

    @staticmethod
    def entry_path(cache: ResultCache, row: dict):
        run_spec = run_spec_for(json.loads(row["params"]), warmup=500)
        return cache._path(task_key(row["workload"], run_spec, row["length"], row["seed"]))

    def test_cached_columns_equal_the_cold_pass_byte_for_byte(self, cold, tmp_path):
        cache_dir, cold_rows = cold
        summary, cache, rows = self.cached_pass(cache_dir, tmp_path)
        assert summary.complete and summary.cached == len(rows) == 6
        assert summary.simulated == 0
        assert (cache.hits, cache.misses, cache.stores) == (6, 0, 0)
        assert rows.keys() == cold_rows.keys()
        for key, row in rows.items():
            for column in ("params", "config", "stats"):
                assert row[column] == cold_rows[key][column], (key, column)
            assert row["wall_seconds"] == 0.0
            assert cold_rows[key]["wall_seconds"] > 0.0

    def test_a_hit_is_never_decoded_and_each_point_renders_once(
        self, cold, tmp_path, monkeypatch
    ):
        import repro.harness.runner as runner

        def refuse(*_args, **_kwargs):
            raise AssertionError("a cached row decoded or re-encoded its stats")

        monkeypatch.setattr(SimStats, "from_dict", refuse)
        monkeypatch.setattr(SimStats, "to_dict", refuse)
        rendered = []

        def counting(config):
            rendered.append(config)
            return render_config(config)

        monkeypatch.setattr(runner, "render_config", counting)
        summary, cache, rows = self.cached_pass(cold[0], tmp_path)
        assert summary.complete and cache.hits == len(rows) == 6
        # two timing points and the baseline, each with two seed rows
        assert len(rendered) == len({pid for pid, _ in rows}) == 3

    def test_a_second_pass_of_one_spec_derives_nothing(
        self, cold, tmp_path, monkeypatch
    ):
        """Keys, config and params texts are rendered once per spec: a
        second pass of the same spec renders no config, calls
        ``json.dumps`` nowhere on the campaign path and encodes no JSON
        (the key templates' encoder included)."""
        import repro.harness.runner as runner

        spec = SweepSpec(**self.SPEC)

        def one_pass(name: str) -> dict:
            store = ResultStore(tmp_path / f"{name}.db")
            summary = run_sweep(spec, store, policy=ExecutionPolicy(
                jobs=1, cache=ResultCache(cold[0])))
            assert summary.complete and summary.cached == 6
            rows = {(r["point_id"], r["seed"]): dict(r) for r in store.rows("bytes")}
            store.close()
            return rows

        first = one_pass("first")
        rendered = []
        for module in (runner, cache_module):
            real = module.render_config
            monkeypatch.setattr(
                module, "render_config",
                lambda config, real=real: rendered.append(config) or real(config),
            )
        watched = {
            "repro.sweep.store", "repro.sweep.drain", "repro.harness.cache",
            "repro.sweep.execute", "repro.sweep.spec", "repro.harness.runner",
        }
        dumped = []
        dumps = json.dumps

        def spy(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__")
            if caller in watched:
                dumped.append(caller)
            return dumps(*args, **kwargs)

        encoded = []
        iterencode = json.JSONEncoder.iterencode

        def counting_iterencode(self, o, *args, **kwargs):
            encoded.append(type(o).__name__)
            return iterencode(self, o, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", spy)
        monkeypatch.setattr(json.JSONEncoder, "iterencode", counting_iterencode)
        second = one_pass("second")
        monkeypatch.undo()
        assert rendered == []
        assert dumped == []
        assert encoded == []
        assert second.keys() == first.keys() == cold[1].keys()
        for key, row in second.items():
            for column in ("params", "config", "stats"):
                assert row[column] == first[key][column] == cold[1][key][column], (
                    key, column)

    def test_a_cache_entry_body_is_the_stats_column_text(self, cold):
        cache_dir, cold_rows = cold
        cache = ResultCache(cache_dir)
        for row in cold_rows.values():
            body = self.entry_path(cache, row).read_bytes()[64:]
            assert body.decode() == row["stats"]
        stats = RunSpec("m", MachineConfig.mtvp, "wang-franklin").run("mcf", LENGTH)
        assert ResultCache._encode(stats).decode() == stats_text(stats) == json.dumps(
            old_to_dict(stats), sort_keys=True
        )

    def test_a_damaged_entry_met_by_a_sweep_is_resimulated(self, cold, tmp_path):
        cache_dir, cold_rows = cold
        copy = tmp_path / "cache"
        shutil.copytree(cache_dir, copy)
        key, row = sorted(cold_rows.items())[0]
        path = self.entry_path(ResultCache(copy), row)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        summary, cache, rows = self.cached_pass(copy, tmp_path)
        assert summary.complete
        assert (cache.hits, cache.misses, cache.stores) == (5, 1, 1)
        assert path.read_bytes()[64:].decode() == row["stats"]
        assert rows[key]["wall_seconds"] > 0.0
        for key, row in rows.items():
            for column in ("params", "config", "stats"):
                assert row[column] == cold_rows[key][column], (key, column)
