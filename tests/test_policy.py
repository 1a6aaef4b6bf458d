"""The ExecutionPolicy surface: resolvers, merging, one spelling.

The API contract (DESIGN.md §5i): every entry point —
:class:`~repro.harness.Session`, :func:`~repro.harness.run_simulations`,
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
    resolve_lanes,
    resolve_workers,
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


class TestResolveLanes:
    def test_unset_without_env_is_scalar(self, monkeypatch):
        monkeypatch.delenv("REPRO_LANES", raising=False)
        assert resolve_lanes(None) == 1

    def test_auto_means_whole_group(self):
        assert resolve_lanes("auto", group_size=5) == 5
        assert resolve_lanes("auto") == 0  # unbounded without a group

    def test_env_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_LANES", "auto")
        assert resolve_lanes(None, group_size=3) == 3

    def test_garbage_names_the_setting(self, monkeypatch):
        monkeypatch.setenv("REPRO_LANES", "wide")
        with pytest.raises(ValueError, match=r"REPRO_LANES.*'wide'"):
            resolve_lanes(None)


class TestResolveWorkers:
    def test_unset_without_env_defaults_to_two(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 2

    def test_env_and_all_cores(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(0) == (os.cpu_count() or 1)


class TestResolveDispatch:
    def test_unset_without_env_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISPATCH", raising=False)
        assert resolve_dispatch(None) == "auto"

    def test_env_supplies_the_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISPATCH", "workers")
        assert resolve_dispatch(None) == "workers"

    def test_names_are_normalized(self):
        assert resolve_dispatch(" POOL ") == "pool"
        for mode in DISPATCH_MODES:
            assert resolve_dispatch(mode) == mode

    def test_only_mode_names_are_accepted(self):
        class Fake:
            def run(self, *a, **k):
                return {}

        with pytest.raises(ValueError, match="local.*pool.*workers"):
            resolve_dispatch(Fake())

    def test_garbage_lists_the_modes(self):
        with pytest.raises(ValueError, match="local.*pool.*workers"):
            resolve_dispatch("cloud")


class TestExecutionPolicy:
    def test_blank_policy_reproduces_historical_defaults(self, monkeypatch):
        for var in ("REPRO_JOBS", "REPRO_LANES", "REPRO_DISPATCH",
                    "REPRO_WORKERS", "REPRO_CACHE_DIR"):
            monkeypatch.delenv(var, raising=False)
        policy = ExecutionPolicy()
        assert policy.resolved_jobs() == 1
        assert policy.resolved_lanes() == 1
        assert policy.resolved_workers() == 2
        assert policy.resolved_dispatch() == "local"
        assert policy.resolved_cache() is None

    def test_auto_dispatch_follows_job_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISPATCH", raising=False)
        assert ExecutionPolicy(jobs=1).resolved_dispatch() == "local"
        assert ExecutionPolicy(jobs=4).resolved_dispatch() == "pool"

    def test_merged_ignores_none_and_overrides_rest(self):
        base = ExecutionPolicy(jobs=2, retries=1)
        merged = base.merged(jobs=None, retries=3, workers=5)
        assert merged.jobs == 2
        assert merged.retries == 3
        assert merged.workers == 5
        assert base.merged() is base  # no-op merge allocates nothing

    def test_policy_is_immutable(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecutionPolicy().jobs = 9  # type: ignore[misc]


class TestDeprecationShims:
    """``policy=`` is the one spelling, and it warns about nothing."""

    def test_session_policy_spelling_is_silent(self):
        from repro.harness import Session

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session = Session(policy=ExecutionPolicy(jobs=2, cache=False))
        assert session.policy.jobs == 2

    def test_legacy_keywords_are_rejected(self, tmp_path):
        from repro.harness import Session, run_simulations
        from repro.sweep import ResultStore, SweepSpec, run_sweep

        with pytest.raises(TypeError):
            Session(jobs=2)
        with pytest.raises(TypeError):
            run_simulations([], jobs=1)
        spec = SweepSpec.from_dict({
            "name": "gone", "axes": {"spawn_latency": [1]},
            "workloads": ["mcf"], "seeds": [0], "lengths": [300],
        })
        with ResultStore(tmp_path / "s.db") as store:
            with pytest.raises(TypeError):
                run_sweep(spec, store, jobs=1)
