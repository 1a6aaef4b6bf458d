"""The warmup-checkpoint store and its wiring through the harness.

Covers :mod:`repro.harness.checkpoint` (keys, the store, single-file
helpers), the cache-key extensions for the warmup/sample protocol, the
prune ``dry_run`` mode, and the end-to-end property the whole layer
exists for: a warmed run restored from a checkpoint is byte-identical to
one that fast-forwarded itself.
"""

from __future__ import annotations

import functools
import hashlib
import json

import pytest

from repro.core import MachineConfig
from repro.harness import (
    CheckpointStore,
    ExecutionPolicy,
    ResultCache,
    RunSpec,
    arch_key,
    load_checkpoint,
    resolve_checkpoints,
    run_simulations,
    save_checkpoint,
    task_key,
)


def digest(stats) -> str:
    blob = json.dumps(stats.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def warmed_spec(**overrides) -> RunSpec:
    factory = (
        functools.partial(MachineConfig.mtvp, 4, **overrides)
        if overrides
        else functools.partial(MachineConfig.mtvp, 4)
    )
    return RunSpec(
        "warmed", factory, predictor_factory="wang-franklin",
        warmup=2000, sample=1500,
    )


class TestArchKey:
    def test_no_warmup_keys_the_warm_start(self):
        # warmup=0 runs still warm (config.warm_caches): their state is
        # keyed too, apart from any fast-forwarded state
        cold = arch_key("mcf", 0, 0, warmed_spec(), 1500)
        assert cold is not None
        assert cold != arch_key("mcf", 0, 2000, warmed_spec(), 1500)
        unwarmed = RunSpec(
            "u", functools.partial(MachineConfig.mtvp, 4, warm_caches=False)
        )
        assert arch_key("mcf", 0, 0, unwarmed, 1500) is None

    def test_timing_axes_share_a_key(self):
        a = arch_key("mcf", 0, 2000, warmed_spec(), 1500)
        b = arch_key("mcf", 0, 2000, warmed_spec(spawn_latency=64), 1500)
        c = arch_key(
            "mcf", 0, 2000, warmed_spec(l2_latency=40, mshrs=4), 1500
        )
        assert a == b == c

    def test_architectural_axes_split_keys(self):
        base = arch_key("mcf", 0, 2000, warmed_spec(), 1500)
        assert base != arch_key(
            "mcf", 0, 2000, warmed_spec(l1_size=32 * 1024), 1500
        )
        assert base != arch_key(
            "mcf", 0, 2000, warmed_spec(prefetch_fill_latency=100), 1500
        )

    def test_workload_seed_warmup_predictor_split_keys(self):
        base = arch_key("mcf", 0, 2000, warmed_spec(), 1500)
        assert base != arch_key("art", 0, 2000, warmed_spec(), 1500)
        assert base != arch_key("mcf", 1, 2000, warmed_spec(), 1500)
        assert base != arch_key("mcf", 0, 2500, warmed_spec(), 1500)
        dfcm = RunSpec(
            "d", MachineConfig.mtvp, predictor_factory="dfcm", warmup=2000
        )
        assert base != arch_key("mcf", 0, 2000, dfcm, 1500)

    def test_measured_length_splits_keys(self):
        # the warm start trains on the whole warmup + measured trace
        base = arch_key("mcf", 0, 2000, warmed_spec(), 1500)
        assert base != arch_key("mcf", 0, 2000, warmed_spec(), 3000)

    def test_undescribable_factory_is_uncacheable(self):
        spec = RunSpec(
            "l", MachineConfig.mtvp,
            predictor_factory=lambda: None, warmup=2000,
        )
        assert arch_key("mcf", 0, 2000, spec, 1500) is None


class TestCheckpointStore:
    def test_roundtrip_and_counters(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.get("k") is None
        store.put("k", {"version": 1, "pos": 5})
        assert store.get("k") == {"version": 1, "pos": 5}
        assert (store.hits, store.misses, store.stores) == (1, 1, 1)
        assert len(store) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = CheckpointStore(tmp_path)
        (tmp_path / "bad.ckpt").write_bytes(b"not a pickle")
        assert store.get("bad") is None
        assert store.misses == 1

    def test_resolve_conventions(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        assert resolve_checkpoints(None) is None
        assert resolve_checkpoints(False) is None
        store = resolve_checkpoints(tmp_path)
        assert isinstance(store, CheckpointStore)
        assert resolve_checkpoints(store) is store
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "env"))
        assert resolve_checkpoints(None).directory == tmp_path / "env"
        with pytest.raises(TypeError):
            resolve_checkpoints(42)


class TestWarmedRuns:
    def test_restored_run_is_byte_identical(self, tmp_path):
        store = CheckpointStore(tmp_path)
        spec = warmed_spec()
        cold = spec.run("mcf", 4000, seed=0, checkpoints=store)
        assert store.stores == 1
        warm = spec.run("mcf", 4000, seed=0, checkpoints=store)
        assert store.hits == 1
        assert digest(warm) == digest(cold)

    def test_checkpoint_shared_across_timing_configs(self, tmp_path):
        store = CheckpointStore(tmp_path)
        warmed_spec().run("mcf", 4000, seed=0, checkpoints=store)
        other = warmed_spec(spawn_latency=64)
        reference = digest(other.run("mcf", 4000, seed=0))  # no store
        restored = other.run("mcf", 4000, seed=0, checkpoints=store)
        assert store.hits == 1 and store.stores == 1
        assert digest(restored) == reference

    def test_specs_differing_only_in_sample_do_not_share(self, tmp_path):
        # regression: the key once ignored the measured length, so the
        # sample=3000 spec restored the sample=1000 spec's checkpoint and
        # reported 7085 cycles instead of the fresh run's 5753
        store = CheckpointStore(tmp_path)
        factory = functools.partial(MachineConfig.mtvp, 8)
        short, long = (
            RunSpec("s", factory, predictor_factory="wang-franklin",
                    warmup=2000, sample=sample)
            for sample in (1000, 3000)
        )
        short.run("mcf", 4000, seed=0, checkpoints=store)
        cold = long.run("mcf", 4000, seed=0, checkpoints=store)
        assert (store.hits, store.stores) == (0, 2)
        restored = long.run("mcf", 4000, seed=0, checkpoints=store)
        assert store.hits == 1
        fresh = long.run("mcf", 4000, seed=0)
        assert digest(cold) == digest(restored) == digest(fresh)

    def test_sample_overrides_session_length(self):
        stats = warmed_spec().run("mcf", 999999, seed=0)
        assert stats.instructions_stepped == 1500
        assert stats.warmup_instructions == 2000

    def test_run_simulations_threads_store_serially(self, tmp_path):
        store = CheckpointStore(tmp_path)
        spec_a = warmed_spec()
        spec_b = warmed_spec(spawn_latency=64)
        run_simulations(
            [("mcf", spec_a, 4000, 0), ("mcf", spec_b, 4000, 0)],
            policy=ExecutionPolicy(jobs=1, cache=False, checkpoints=store),
        )
        assert store.stores == 1 and store.hits == 1


class TestTaskKeyProtocolAxes:
    def test_default_spec_key_has_no_protocol_fields(self):
        # byte-compat: a spec without warmup/sample must produce the same
        # key the pre-protocol harness minted
        plain = RunSpec("p", MachineConfig.mtvp)
        zeroed = RunSpec("p", MachineConfig.mtvp, warmup=0, sample=None)
        assert task_key("mcf", plain, 4000, 0) == task_key(
            "mcf", zeroed, 4000, 0
        )

    def test_warmup_and_sample_enter_the_key(self):
        plain = RunSpec("p", MachineConfig.mtvp)
        warmed = RunSpec("p", MachineConfig.mtvp, warmup=2000)
        sampled = RunSpec("p", MachineConfig.mtvp, warmup=2000, sample=1000)
        keys = {
            task_key("mcf", s, 4000, 0) for s in (plain, warmed, sampled)
        }
        assert len(keys) == 3


class TestPruneDryRun:
    def _filled_cache(self, tmp_path) -> ResultCache:
        cache = ResultCache(tmp_path)
        from repro.core import SimStats

        for i in range(3):
            cache.put(f"key{i}", SimStats(cycles=i + 1))
        return cache

    def test_dry_run_reports_without_deleting(self, tmp_path):
        cache = self._filled_cache(tmp_path)
        total = sum(p.stat().st_size for p in tmp_path.glob("*.json"))
        would = cache.prune(max_bytes=0, dry_run=True)
        assert would == 3
        assert cache.last_prune_bytes == total
        assert len(cache) == 3  # nothing deleted

    def test_real_prune_matches_the_dry_run(self, tmp_path):
        cache = self._filled_cache(tmp_path)
        would = cache.prune(max_bytes=0, dry_run=True)
        removed = cache.prune(max_bytes=0)
        assert removed == would
        assert len(cache) == 0

    def test_dry_run_cli_flag(self, tmp_path, capsys):
        self._filled_cache(tmp_path)
        from repro.__main__ import main

        assert main(["cache", "prune", "--max-bytes", "0",
                     "--dry-run", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "would prune 3 entries" in out
        assert len(list(tmp_path.glob("*.json"))) == 3


class TestCheckpointFiles:
    def test_save_load_roundtrip_validates_identity(self, tmp_path):
        arch = {"version": 1, "scope": "arch", "pos": 1200, "bhist": 7,
                "warmup_instructions": 1200, "hierarchy": {}, "branch": {},
                "predictor": {}}
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, arch, workload="mcf", seed=3, length=800)
        payload = load_checkpoint(path, workload="mcf", seed=3, length=800)
        assert payload["warmup"] == 1200
        assert payload["length"] == 800
        assert payload["arch"] == arch
        with pytest.raises(ValueError, match="workload"):
            load_checkpoint(path, workload="art", seed=3)
        with pytest.raises(ValueError, match="seed"):
            load_checkpoint(path, workload="mcf", seed=0)
        with pytest.raises(ValueError, match="measured length 800, not 900"):
            load_checkpoint(path, workload="mcf", seed=3, length=900)

    def test_non_checkpoint_file_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        import pickle

        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(ValueError, match="not a repro"):
            load_checkpoint(path)

    def test_cli_checkpoint_restore_roundtrip(self, tmp_path, capsys):
        from repro.__main__ import main

        ckpt = tmp_path / "mcf.ckpt"
        assert main(["run", "mcf", "--length", "2000", "--warmup", "1500",
                     "--checkpoint", str(ckpt)]) == 0
        first = capsys.readouterr().out
        assert "wrote warmup checkpoint (1500 instructions)" in first
        assert main(["run", "mcf", "--length", "2000",
                     "--restore", str(ckpt)]) == 0
        second = capsys.readouterr().out
        # identical simulated interval: cycle counts line up exactly
        assert [l for l in first.splitlines() if l.startswith("cycles")] == \
               [l for l in second.splitlines() if l.startswith("cycles")]

    def test_cli_restore_rejects_a_different_length(self, tmp_path, capsys):
        from repro.__main__ import main

        ckpt = tmp_path / "mcf.ckpt"
        assert main(["run", "mcf", "--length", "2000", "--warmup", "1500",
                     "--checkpoint", str(ckpt)]) == 0
        first = capsys.readouterr().out
        for flag in ("--length", "--sample"):
            assert main(["run", "mcf", flag, "3000",
                         "--restore", str(ckpt)]) == 1
            out = capsys.readouterr().out
            assert "measured length 2000, not 3000" in out
        # without a length the file's own applies
        assert main(["run", "mcf", "--restore", str(ckpt)]) == 0
        second = capsys.readouterr().out
        assert [l for l in first.splitlines() if l.startswith("cycles")] == \
               [l for l in second.splitlines() if l.startswith("cycles")]

    def test_cli_checkpoint_requires_warmup(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["run", "mcf", "--checkpoint",
                     str(tmp_path / "x.ckpt")]) == 1
        assert "--warmup" in capsys.readouterr().out
