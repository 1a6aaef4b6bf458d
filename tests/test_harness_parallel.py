"""Tests for the parallel fan-out and the on-disk result cache."""

import functools
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.core import MachineConfig, SimStats
from repro.harness import (
    RunSpec,
    ResultCache,
    SimulationError,
    compare_modes,
    run_simulations,
    task_key,
)
from repro.harness.cache import describe_factory
from repro.harness.parallel import _exit_with_parent, resolve_cache, resolve_jobs
from repro.harness.policy import ExecutionPolicy
from repro.vp import OraclePredictor, WangFranklinPredictor
from tests.conftest import process_alive

LENGTH = 600
SRC = Path(__file__).resolve().parents[1] / "src"


def specs():
    return [
        RunSpec("stvp", MachineConfig.stvp, predictor_factory=OraclePredictor),
        RunSpec(
            "mtvp2",
            functools.partial(MachineConfig.mtvp, 2),
            predictor_factory=WangFranklinPredictor,
        ),
    ]


def tasks():
    return [
        (name, spec, LENGTH, 0)
        for name in ("crafty", "swim")
        for spec in specs()
    ]


class TestTaskKey:
    def test_same_task_same_key(self):
        spec = RunSpec("stvp", MachineConfig.stvp)
        assert task_key("crafty", spec, 600, 0) == task_key("crafty", spec, 600, 0)

    def test_equivalent_specs_share_a_key(self):
        a = RunSpec("a", functools.partial(MachineConfig.mtvp, 2))
        b = RunSpec("b", functools.partial(MachineConfig.mtvp, 2))
        # the key is content-addressed: the spec *name* must not matter
        assert task_key("crafty", a, 600, 0) == task_key("crafty", b, 600, 0)

    def test_key_sensitive_to_every_ingredient(self):
        spec = RunSpec("stvp", MachineConfig.stvp)
        base = task_key("crafty", spec, 600, 0)
        assert task_key("swim", spec, 600, 0) != base
        assert task_key("crafty", spec, 601, 0) != base
        assert task_key("crafty", spec, 600, 1) != base
        other = RunSpec("stvp", MachineConfig.stvp, predictor_factory=WangFranklinPredictor)
        assert task_key("crafty", other, 600, 0) != base

    def test_config_factory_arguments_differentiate(self):
        two = RunSpec("m", functools.partial(MachineConfig.mtvp, 2))
        four = RunSpec("m", functools.partial(MachineConfig.mtvp, 4))
        assert task_key("crafty", two, 600, 0) != task_key("crafty", four, 600, 0)

    def test_lambda_factory_is_uncacheable(self):
        spec = RunSpec(
            "stvp", MachineConfig.stvp, predictor_factory=lambda: OraclePredictor()
        )
        assert describe_factory(spec.predictor_factory) is None
        assert task_key("crafty", spec, 600, 0) is None

    def test_partial_of_class_is_describable(self):
        desc = describe_factory(functools.partial(WangFranklinPredictor, threshold=8))
        assert desc["kwargs"] == {"threshold": 8}


class TestStatsRoundTrip:
    def test_to_dict_from_dict_round_trips(self):
        spec = RunSpec("mtvp2", functools.partial(MachineConfig.mtvp, 2))
        stats = spec.run("crafty", LENGTH, 0)
        clone = SimStats.from_dict(stats.to_dict())
        assert clone == stats

    def test_from_dict_ignores_unknown_fields(self):
        data = SimStats().to_dict()
        data["from_the_future"] = 1
        SimStats.from_dict(data)  # must not raise


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        stats = RunSpec("b", MachineConfig.hpca05_baseline).run("crafty", LENGTH, 0)
        cache.put("k" * 64, stats)
        assert cache.get("k" * 64) == stats
        assert (cache.hits, cache.misses, cache.stores) == (1, 0, 1)

    def test_missing_and_corrupt_entries_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("absent") is None
        (tmp_path / "bad.json").write_text("{not json")
        assert cache.get("bad") is None
        assert cache.misses == 2

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a" * 64, SimStats())
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0


class TestRunSimulations:
    def test_parallel_matches_serial(self):
        serial = run_simulations(
            tasks(), policy=ExecutionPolicy(jobs=1, cache=False)
        )
        fanned = run_simulations(
            tasks(), policy=ExecutionPolicy(jobs=2, cache=False)
        )
        assert [s.to_dict() for s in serial] == [s.to_dict() for s in fanned]

    def test_duplicate_tasks_simulate_once(self, tmp_path, monkeypatch):
        import repro.harness.parallel as par

        calls = []
        real = par._run_task
        monkeypatch.setattr(
            par, "_run_task", lambda *a: calls.append(a) or real(*a)
        )
        batch = tasks()
        results = run_simulations(
            batch + batch,
            policy=ExecutionPolicy(jobs=1, cache=ResultCache(tmp_path)),
        )
        assert len(calls) == len(batch)
        assert [s.to_dict() for s in results[: len(batch)]] == [
            s.to_dict() for s in results[len(batch) :]
        ]

    def test_second_invocation_runs_zero_simulations(self, tmp_path, monkeypatch):
        import repro.harness.parallel as par

        first = run_simulations(
            tasks(), policy=ExecutionPolicy(jobs=1, cache=ResultCache(tmp_path))
        )

        def boom(*a):
            raise AssertionError("cache should have served this task")

        monkeypatch.setattr(par, "_run_task", boom)
        cache = ResultCache(tmp_path)
        second = run_simulations(
            tasks(), policy=ExecutionPolicy(jobs=1, cache=cache)
        )
        assert cache.hits == len(tasks()) and cache.misses == 0
        assert [s.to_dict() for s in first] == [s.to_dict() for s in second]

    def test_cached_parallel_compare_matches_serial(self, tmp_path):
        serial = compare_modes(
            ("crafty", "swim"), specs(), length=LENGTH,
            policy=ExecutionPolicy(cache=False),
        )
        fanned = compare_modes(
            ("crafty", "swim"), specs(), length=LENGTH,
            policy=ExecutionPolicy(jobs=2, cache=ResultCache(tmp_path)),
        )
        warm = compare_modes(
            ("crafty", "swim"), specs(), length=LENGTH,
            policy=ExecutionPolicy(jobs=2, cache=ResultCache(tmp_path)),
        )
        for results in (fanned, warm):
            for mode, rows in serial.items():
                got = results[mode]
                assert [r.ipc for r in got] == [r.ipc for r in rows]
                assert [r.stats for r in got] == [r.stats for r in rows]


def bad_spec():
    """A spec whose config factory raises at construction time."""
    return RunSpec(
        "bad", functools.partial(MachineConfig.mtvp, 2, spawn_latency=-1)
    )


START_METHODS = [
    m for m in ("fork", "forkserver", "spawn")
    if m in multiprocessing.get_all_start_methods()
]

#: builds a pool the way run_simulations does, writes its children's pids
#: to argv[2] and SIGKILLs itself, leaving the pool unshut
_ORPHAN_POOL = """
import multiprocessing, os, signal, sys
from concurrent.futures import ProcessPoolExecutor
from repro.harness.parallel import _exit_with_parent
if __name__ == "__main__":
    pool = ProcessPoolExecutor(
        max_workers=2, mp_context=multiprocessing.get_context(sys.argv[1]),
        initializer=_exit_with_parent, initargs=(os.getpid(),),
    )
    pids = {pool.submit(os.getpid).result() for _ in range(4)}
    with open(sys.argv[2], "w") as out:
        out.write(" ".join(map(str, pids)))
    os.kill(os.getpid(), signal.SIGKILL)
"""


class TestPoolChildWatchdog:
    @pytest.mark.parametrize("method", START_METHODS)
    def test_children_of_a_live_parent_keep_working(self, method):
        ctx = multiprocessing.get_context(method)
        with ProcessPoolExecutor(
            max_workers=1, mp_context=ctx,
            initializer=_exit_with_parent, initargs=(os.getpid(),),
        ) as pool:
            pool.submit(os.getpid).result(timeout=60)
            time.sleep(1.2)  # > two watchdog polls
            assert pool.submit(os.getpid).result(timeout=60) > 0

    @pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc")
    @pytest.mark.parametrize("method", START_METHODS)
    def test_children_exit_after_the_parent_is_sigkilled(self, method, tmp_path):
        pids_file = tmp_path / "pids"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", _ORPHAN_POOL, method, str(pids_file)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL
        children = [int(pid) for pid in pids_file.read_text().split()]
        assert children
        deadline = time.time() + 5.0
        while time.time() < deadline and any(map(process_alive, children)):
            time.sleep(0.1)
        survivors = [pid for pid in children if process_alive(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert not survivors, f"pool children outlived their parent: {survivors}"


class TestErrorHandling:
    def test_raise_mode_wraps_with_task_identity(self):
        batch = [("crafty", bad_spec(), LENGTH, 7)]
        with pytest.raises(SimulationError) as excinfo:
            run_simulations(batch, policy=ExecutionPolicy(jobs=1, cache=False))
        err = excinfo.value
        assert (err.workload, err.spec_name, err.length, err.seed) == (
            "crafty", "bad", LENGTH, 7
        )
        assert "spawn_latency" in str(err)

    def test_collect_mode_keeps_the_batch_alive(self):
        batch = tasks() + [("crafty", bad_spec(), LENGTH, 0)]
        results = run_simulations(
            batch, policy=ExecutionPolicy(jobs=1, cache=False), on_error="collect"
        )
        assert all(isinstance(s, SimStats) for s in results[:-1])
        assert isinstance(results[-1], SimulationError)
        # good results are identical to an all-good batch's
        clean = run_simulations(
            tasks(), policy=ExecutionPolicy(jobs=1, cache=False)
        )
        assert [s.to_dict() for s in results[:-1]] == [s.to_dict() for s in clean]

    def test_collect_mode_in_the_process_pool(self):
        batch = [("crafty", bad_spec(), LENGTH, 0)] + tasks()
        results = run_simulations(
            batch, policy=ExecutionPolicy(jobs=2, cache=False), on_error="collect"
        )
        assert isinstance(results[0], SimulationError)
        assert all(isinstance(s, SimStats) for s in results[1:])

    def test_bad_config_fails_during_key_derivation_too(self, tmp_path):
        # with a cache, the factory already raises while the key is built;
        # that must be a per-task failure as well, not a crash
        batch = [("crafty", bad_spec(), LENGTH, 0)]
        results = run_simulations(
            batch,
            policy=ExecutionPolicy(jobs=1, cache=ResultCache(tmp_path)),
            on_error="collect",
        )
        assert isinstance(results[0], SimulationError)

    def test_errors_are_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        batch = [("crafty", bad_spec(), LENGTH, 0)]
        run_simulations(
            batch, policy=ExecutionPolicy(jobs=1, cache=cache), on_error="collect"
        )
        assert len(cache) == 0

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            run_simulations([], on_error="ignore")


class TestCachePrune:
    def fill(self, tmp_path, ages_days):
        """One entry per age (in days before 'now'); returns (cache, now)."""
        cache = ResultCache(tmp_path)
        now = 1_700_000_000.0
        for i, age in enumerate(ages_days):
            key = f"{i:064d}"
            cache.put(key, SimStats())
            mtime = now - age * 86400
            os.utime(cache._path(key), (mtime, mtime))
        return cache, now

    def test_prune_by_age(self, tmp_path):
        cache, now = self.fill(tmp_path, [0, 5, 40, 90])
        assert cache.prune(max_age_days=30, now=now) == 2
        assert len(cache) == 2

    def test_prune_by_bytes_evicts_lru(self, tmp_path):
        cache, now = self.fill(tmp_path, [0, 1, 2, 3])
        entry = cache._path(f"{0:064d}").stat().st_size
        assert cache.prune(max_bytes=2 * entry, now=now) == 2
        # the two *newest* entries survive
        assert cache.get(f"{0:064d}") is not None
        assert cache.get(f"{1:064d}") is not None
        assert cache.get(f"{2:064d}") is None

    def test_prune_without_limits_is_a_noop(self, tmp_path):
        cache, _ = self.fill(tmp_path, [0, 100])
        assert cache.prune() == 0
        assert len(cache) == 2

    def test_prune_cli(self, tmp_path, capsys):
        from repro.__main__ import main

        cache, now = self.fill(tmp_path, [0, 90])
        # ages are relative to real now in the CLI; backdate far enough
        assert main(["cache", "prune", "--max-age-days", "365000",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "pruned 0 entries" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:  # neither bound: a usage error
            main(["cache", "prune", "--cache-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "nothing to do" in capsys.readouterr().err


class TestLazyEnvResolution:
    def test_default_length_reads_env_at_call_time(self, monkeypatch):
        from repro.harness.runner import default_length

        monkeypatch.delenv("REPRO_TRACE_LEN", raising=False)
        assert default_length() == 16000
        monkeypatch.setenv("REPRO_TRACE_LEN", "1234")
        assert default_length() == 1234

    def test_default_length_rejects_garbage_clearly(self, monkeypatch):
        from repro.harness.runner import default_length

        monkeypatch.setenv("REPRO_TRACE_LEN", "lots")
        with pytest.raises(ValueError, match="REPRO_TRACE_LEN.*'lots'"):
            default_length()

    @pytest.mark.parametrize("value", ["0", "-7"])
    def test_default_length_rejects_non_positive(self, monkeypatch, value):
        from repro.harness.runner import default_length

        monkeypatch.setenv("REPRO_TRACE_LEN", value)
        with pytest.raises(ValueError, match=f"REPRO_TRACE_LEN.*positive.*'{value}'"):
            default_length()

    def test_compare_modes_honours_late_env(self, monkeypatch):
        # an entry point without a length resolves default_length() per call
        monkeypatch.setenv("REPRO_TRACE_LEN", "345")
        spec = RunSpec("stvp", MachineConfig.stvp)
        [row] = compare_modes(
            ("crafty",), [spec], policy=ExecutionPolicy(cache=False)
        )["stvp"]
        assert row.stats.useful_instructions == 345

    def test_resolve_jobs_rejects_garbage_clearly(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS.*'many'"):
            resolve_jobs(None)


class TestResolution:
    def test_resolve_jobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5
        assert resolve_jobs(0) >= 1

    def test_resolve_cache(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        opened = resolve_cache(tmp_path)
        assert isinstance(opened, ResultCache)
        assert resolve_cache(opened) is opened
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache(None).directory == tmp_path / "env"
        with pytest.raises(TypeError):
            resolve_cache(42)
