"""The ExecutionPolicy surface: resolvers, merging, one spelling.

The API contract (DESIGN.md §5i): every entry point —
:func:`~repro.harness.run_simulations`,
:func:`~repro.harness.compare_modes`, the experiments,
:func:`~repro.sweep.run_sweep`, :func:`~repro.search.run_search` —
accepts ``policy=ExecutionPolicy(...)`` as the only spelling of its
execution settings.
"""

from __future__ import annotations

import warnings

import pytest

from repro.harness.policy import (
    DISPATCH_MODES,
    ExecutionPolicy,
    resolve_dispatch,
    resolve_jobs,
)


class TestResolveJobs:
    def test_unset_without_env_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_supplies_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(None) == 4

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(3) == 3

    def test_zero_means_all_cores(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_env_garbage_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match=r"REPRO_JOBS.*'many'"):
            resolve_jobs(None)

    def test_bool_is_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(True)


class TestResolveDispatch:
    def test_unset_without_env_is_auto(self):
        assert resolve_dispatch(None) == "auto"

    def test_names_are_normalized(self):
        assert resolve_dispatch(" POOL ") == "pool"
        for mode in DISPATCH_MODES:
            assert resolve_dispatch(mode) == mode

    def test_only_mode_names_are_accepted(self):
        class Fake:
            def run(self, *a, **k):
                return {}

        with pytest.raises(ValueError, match=r"auto\|local\|pool"):
            resolve_dispatch(Fake())

    def test_garbage_lists_the_modes(self):
        with pytest.raises(ValueError, match=r"auto\|local\|pool, got 'cloud'"):
            resolve_dispatch("cloud")

    def test_workers_mode_is_gone(self, monkeypatch, capsys):
        """The removed standalone-worker mode is an unknown name on both
        surfaces, the policy field and the CLI flag; the environment
        names no dispatch mode at all (``REPRO_DISPATCH`` is not read)."""
        from repro.__main__ import main

        with pytest.raises(ValueError, match=r"auto\|local\|pool, got 'workers'"):
            ExecutionPolicy(dispatch="workers")
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        for mode in ("workers", "pool"):
            monkeypatch.setenv("REPRO_DISPATCH", mode)
            assert ExecutionPolicy().resolved_dispatch() == "local"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "run", "sweeps/store_buffer.toml",
                  "--dispatch", "workers"])
        assert exc.value.code == 2
        assert "choose from 'auto', 'local', 'pool'" in capsys.readouterr().err
        assert not hasattr(ExecutionPolicy(), "workers")


class TestExecutionPolicy:
    def test_blank_policy_reproduces_historical_defaults(self, monkeypatch):
        for var in ("REPRO_JOBS", "REPRO_CACHE_DIR"):
            monkeypatch.delenv(var, raising=False)
        policy = ExecutionPolicy()
        assert policy.resolved_jobs() == 1
        assert policy.resolved_dispatch() == "local"
        assert policy.resolved_cache() is None

    def test_auto_dispatch_follows_job_count(self):
        assert ExecutionPolicy(jobs=1).resolved_dispatch() == "local"
        assert ExecutionPolicy(jobs=4).resolved_dispatch() == "pool"

    def test_merged_ignores_none_and_overrides_rest(self):
        base = ExecutionPolicy(jobs=2, retries=1)
        merged = base.merged(jobs=None, retries=3, chunk=5)
        assert merged.jobs == 2
        assert merged.retries == 3
        assert merged.chunk == 5
        assert base.merged() is base  # no-op merge allocates nothing

    def test_policy_is_immutable(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecutionPolicy().jobs = 9  # type: ignore[misc]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("chunk", 0),  # range() step of zero
            ("chunk", -3),  # empty range: the drain loop never ends
            ("chunk", 2.5),
            ("heartbeat", 0),  # Event.wait(0) returns at once: a busy loop
            ("heartbeat", -1.0),
            ("heartbeat", float("nan")),
            ("heartbeat", float("inf")),
            ("stale_after", 0),
            ("stale_after", -5.0),  # every lease reads as stale at once
            ("stale_after", float("nan")),
            ("stale_after", float("inf")),
            ("retries", -1),
            ("retries", 1.5),
            ("lanes", 4),  # lane batching was removed
            ("lanes", "auto"),
        ],
    )
    def test_rejects_values_that_break_a_sweep(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} .*{value!r}"):
            ExecutionPolicy(**{field: value})
        # merged() goes through the same check
        with pytest.raises(ValueError, match=rf"^{field} "):
            ExecutionPolicy().merged(**{field: value})
        # the boundary values stay legal
        policy = ExecutionPolicy(
            chunk=1, heartbeat=0.25, lanes=1, stale_after=0.5, retries=0
        )
        assert (
            policy.chunk, policy.heartbeat, policy.lanes, policy.stale_after,
            policy.retries,
        ) == (1, 0.25, 1, 0.5, 0)


class TestDeprecationShims:
    """``policy=`` is the one spelling, and it warns about nothing."""

    def test_policy_spelling_is_silent(self):
        from repro.harness import compare_modes, run_simulations

        policy = ExecutionPolicy(jobs=2, cache=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert run_simulations([], policy=policy) == []
            assert compare_modes((), [], policy=policy) == {}

    def test_legacy_keywords_are_rejected(self, tmp_path):
        from repro.harness import EXPERIMENTS, compare_modes, run_simulations
        from repro.sweep import ResultStore, SweepSpec, run_sweep

        for keyword in ("jobs", "cache"):
            with pytest.raises(TypeError):
                compare_modes((), [], **{keyword: 1})
            for experiment in EXPERIMENTS.values():
                with pytest.raises(TypeError):
                    experiment(**{keyword: 1})
        with pytest.raises(TypeError):
            run_simulations([], jobs=1)
        with pytest.raises(TypeError):
            ExecutionPolicy(warmup=1000)
        spec = SweepSpec.from_dict({
            "name": "gone", "axes": {"spawn_latency": [1]},
            "workloads": ["mcf"], "seeds": [0], "lengths": [300],
        })
        with ResultStore(tmp_path / "s.db") as store:
            with pytest.raises(TypeError):
                run_sweep(spec, store, jobs=1)
