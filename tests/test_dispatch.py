"""Serial and pooled drains, the crash drills and the store-fault drill
(DESIGN.md §5i).

Covers the one drain entry point end to end:

* ``jobs=1`` (serial, in process) and ``jobs=2`` (a process pool)
  produce byte-identical ``sweep report`` output for the same spec, and
  a search picks the same winner under both;
* the SIGKILL drill: a ``sweep run --jobs 2`` process killed while rows
  are ``running`` leaves no pool child behind, ``sweep resume`` finishes
  the campaign, every row commits exactly once (the ``commits`` ledger
  proves it), attempts stay within one retry, and the report matches
  the serial reference byte for byte;
* a SIGKILLed pool child breaks the pool; its chunk's rows are marked
  failed and the same invocation retries them, again exactly once;
* a ``sqlite3.OperationalError`` at one ``claim``, ``touch`` or
  ``mark_done`` (before or after its statement lands), or the process
  exiting there, then a resume: every row done, committed once, and the
  report byte-identical.
"""

from __future__ import annotations

import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.harness.cache import ResultCache
from repro.harness.policy import ExecutionPolicy
from repro.sweep import ResultStore, aggregate, drain, full_report, run_sweep
from repro.sweep.spec import SweepSpec
from tests.conftest import process_alive

SWEEPS = Path(__file__).parent.parent / "sweeps"
SRC = Path(__file__).parent.parent / "src"


def _spec(name: str, *, axis=(1,), seeds=(0, 1), length=400) -> SweepSpec:
    return SweepSpec.from_dict({
        "name": name,
        "axes": {"spawn_latency": list(axis)},
        "base": {"machine": "mtvp", "threads": 2,
                 "predictor": "wang-franklin"},
        "workloads": ["mcf"],
        "seeds": list(seeds),
        "lengths": [length],
    })


def _report(store: ResultStore, name: str) -> str:
    return full_report(name, aggregate(store.rows(name)))


def _children(pid: int) -> set[int]:
    proc = subprocess.run(
        ["pgrep", "-P", str(pid)], capture_output=True, text=True
    )
    return {int(child) for child in proc.stdout.split()}


def _assert_exactly_once(path: Path, name: str) -> str:
    """Every row done, one commit each, at most one retry; the report."""
    with ResultStore(path) as store:
        rows = store.rows(name)
        assert all(r["status"] == "done" for r in rows)
        assert max(r["attempts"] for r in rows) <= 2, (
            [(r["point_id"], r["seed"], r["attempts"]) for r in rows])
        ledger = store.commit_stats(name)
        assert ledger["done"] == len(rows)
        assert ledger["max_commits"] == 1, (
            "a row was committed twice — exactly-once broke")
        return _report(store, name)


def _reference_report(spec: SweepSpec, tmp_path: Path, cache) -> str:
    """The serial report; sharing ``cache``, it simulates nothing new."""
    with ResultStore(tmp_path / "ref.db") as store:
        assert run_sweep(
            spec, store, policy=ExecutionPolicy(jobs=1, cache=cache)
        ).complete
        return _report(store, spec.name)


class TestModeAgreement:
    """Serial and pooled drains: one spec, two stores, one report."""

    def test_all_dispatch_modes_produce_identical_reports(self, tmp_path):
        spec = _spec("agree")
        reports = {}
        for mode, policy in (
            ("local", ExecutionPolicy(jobs=1, cache=False)),
            ("pool", ExecutionPolicy(jobs=2, cache=False)),
        ):
            with ResultStore(tmp_path / f"{mode}.db") as store:
                summary = run_sweep(spec, store, policy=policy)
                assert summary.complete, f"{mode} left the campaign short"
                reports[mode] = _report(store, "agree")
        assert reports["local"] == reports["pool"]

    def test_search_picks_the_same_winner_under_pool(self, tmp_path):
        from repro.search import format_search_report, load_search_spec, run_search

        spec = load_search_spec(SWEEPS / "search_smoke.toml")
        outcomes = {}
        for mode, policy in (
            ("local", ExecutionPolicy(jobs=1, cache=False)),
            ("pool", ExecutionPolicy(jobs=2, cache=False)),
        ):
            with ResultStore(tmp_path / f"{mode}.db") as store:
                summary = run_search(spec, store, policy=policy)
                assert summary.complete, f"{mode} left the search short"
                funnel = [
                    (r.points_in, [a.point_id for a in r.decision.promoted],
                     r.extra_rounds)
                    for r in summary.rungs
                ]
                outcomes[mode] = (
                    summary.winner, summary.simulated, funnel,
                    format_search_report(spec, summary),
                )
        assert outcomes["local"] == outcomes["pool"]
        winner, simulated = outcomes["local"][:2]
        assert winner["point_id"] == "5827c84b10f0df7b"
        assert simulated == 27


class TestWorkerChaos:
    """SIGKILL mid-campaign: the ``sweep run`` process, or one pool child."""

    def test_campaign_survives_a_sigkilled_worker(self, tmp_path):
        spec = _spec("chaos", axis=(1, 8), seeds=(0, 1, 2), length=40000)
        spec_path = tmp_path / "chaos.json"
        spec.to_json(spec_path)
        path = tmp_path / "chaos.db"
        cache_dir = tmp_path / "cache"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )

        def sweep(verb: str) -> list[str]:
            return [sys.executable, "-m", "repro", "sweep", verb,
                    str(spec_path), "--db", str(path),
                    "--cache-dir", str(cache_dir), "--retries", "1",
                    "--jobs", "2"]

        run = subprocess.Popen(sweep("run"), env=env,
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
        children: set[int] = set()
        try:
            # wait for a leased chunk simulating in the pool, then kill
            # the campaign process without any chance to clean up
            deadline = time.time() + 120.0
            running = 0
            while time.time() < deadline and run.poll() is None:
                children = _children(run.pid)
                if children and path.exists():
                    with ResultStore(path) as watch:
                        running = watch.counts("chaos")["running"]
                    if running:
                        break
                time.sleep(0.02)
            assert run.poll() is None, "the campaign finished before the kill"
            assert running and children, "no chunk was ever in flight"
            os.kill(run.pid, signal.SIGKILL)
            run.wait()
        finally:
            if run.poll() is None:
                run.kill()
                run.wait()

        time.sleep(5.0)
        survivors = sorted(pid for pid in children if process_alive(pid))
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert not survivors, "pool children outlived the killed campaign"
        with ResultStore(path) as store:
            assert store.counts("chaos")["running"] > 0

        resume = subprocess.run(sweep("resume"), env=env, capture_output=True,
                                text=True, timeout=480)
        assert resume.returncode == 0, resume.stderr
        assert "— complete" in resume.stdout, resume.stdout

        report = _assert_exactly_once(path, "chaos")
        assert report == _reference_report(
            spec, tmp_path, ResultCache(cache_dir)
        )

    def test_campaign_survives_a_sigkilled_pool_child(self, tmp_path):
        spec = _spec("child", axis=(1, 8), seeds=(0, 1, 2), length=40000)
        path = tmp_path / "child.db"
        cache = ResultCache(tmp_path / "cache")
        policy = ExecutionPolicy(jobs=2, retries=1, cache=cache)
        before = _children(os.getpid())
        outcome: dict = {}

        def campaign() -> None:
            try:
                with ResultStore(path) as store:
                    outcome["summary"] = run_sweep(spec, store, policy=policy)
            except Exception as exc:  # noqa: BLE001 — surfaced by assert
                outcome["error"] = exc

        runner = threading.Thread(target=campaign)
        runner.start()
        try:
            victims: set[int] = set()
            deadline = time.time() + 120.0
            while time.time() < deadline and runner.is_alive():
                victims = _children(os.getpid()) - before
                if victims:
                    break
                time.sleep(0.02)
            assert victims, "no pool child ever appeared"
            os.kill(min(victims), signal.SIGKILL)
        finally:
            runner.join(timeout=480)
        assert not runner.is_alive(), "campaign never finished after the kill"
        assert "error" not in outcome, f"campaign raised: {outcome.get('error')}"
        summary = outcome["summary"]
        assert summary.complete
        assert summary.retried > 0, "the broken chunk was never retried"

        report = _assert_exactly_once(path, "child")
        assert report == _reference_report(spec, tmp_path, cache)


class TestStoreFaults:
    """One ``sqlite3.OperationalError`` or process exit at a store write,
    then a resume.

    ``before`` raises instead of running the statement (a rolled-back
    write); ``after`` raises once it has landed (a lost acknowledgement).
    A ``claim`` or ``mark_done`` fault aborts the run and leaves rows
    ``running``; the resume reclaims them.  A ``touch`` fault costs one
    heartbeat: the next one still runs and the run completes.  Either way
    every row ends done with one commit and the report is byte-identical
    to an unfaulted run's.  The process-exit drill ends a child process
    at the same six points instead.
    """

    @pytest.mark.parametrize("when", ["before", "after"])
    @pytest.mark.parametrize("method", ["claim", "touch", "mark_done"])
    def test_a_store_fault_then_resume_commits_every_row_once(
        self, tmp_path, monkeypatch, method, when
    ):
        spec = _spec("fault", axis=(1, 8))
        with ResultStore(tmp_path / "ref.db") as store:
            assert run_sweep(
                spec, store, policy=ExecutionPolicy(jobs=1, cache=False)
            ).complete
            reference = _report(store, "fault")

        real = getattr(ResultStore, method)
        calls = []
        beat_again = threading.Event()

        def faulty(self, *args, **kwargs):
            calls.append(method)
            if len(calls) == 1 and when == "before":
                raise sqlite3.OperationalError(f"injected {method} fault")
            result = real(self, *args, **kwargs)
            if len(calls) == 1:
                raise sqlite3.OperationalError(f"injected {method} fault")
            beat_again.set()
            return result

        monkeypatch.setattr(ResultStore, method, faulty)
        if method == "touch":
            simulate = drain.run_simulations

            def after_two_beats(tasks, **kwargs):
                assert beat_again.wait(30), "the heartbeat died with its fault"
                return simulate(tasks, **kwargs)

            monkeypatch.setattr(drain, "run_simulations", after_two_beats)

        path = tmp_path / "fault.db"
        policy = ExecutionPolicy(jobs=1, cache=False, heartbeat=0.01)
        with ResultStore(path) as store:
            if method == "touch":
                assert run_sweep(spec, store, policy=policy).complete
            else:
                with pytest.raises(sqlite3.OperationalError, match="injected"):
                    run_sweep(spec, store, policy=policy)
                if (method, when) != ("claim", "before"):  # that claim rolled back
                    assert store.counts("fault")["running"] > 0
            monkeypatch.undo()
            assert run_sweep(spec, store, policy=policy).complete
        assert calls[0] == method
        assert _assert_exactly_once(path, "fault") == reference

    #: the child of the process-exit drill: ``run_sweep`` on a file store
    #: whose first call of one write method ends the process with
    #: ``os._exit(1)`` before or after the statement lands
    EXIT_CHILD = """
import os, sys, time
from repro.harness.policy import ExecutionPolicy
from repro.sweep import ResultStore, drain, load_spec, run_sweep

spec_path, db, method, when = sys.argv[1:]
real = getattr(ResultStore, method)

def dying(self, *args, **kwargs):
    if when == "before":
        os._exit(1)
    real(self, *args, **kwargs)
    os._exit(1)

setattr(ResultStore, method, dying)
if method == "touch":
    def until_the_heartbeat_exits(tasks, **kwargs):
        time.sleep(60)
        os._exit(3)

    drain.run_simulations = until_the_heartbeat_exits
with ResultStore(db) as store:
    run_sweep(load_spec(spec_path), store,
              policy=ExecutionPolicy(jobs=1, cache=False, heartbeat=0.01))
os._exit(2)
"""

    @pytest.mark.parametrize("when", ["before", "after"])
    @pytest.mark.parametrize("method", ["claim", "touch", "mark_done"])
    def test_a_process_exit_at_a_store_write_then_resume_commits_every_row_once(
        self, tmp_path, method, when
    ):
        """The process dies (``os._exit``, no clean-up) at its first
        ``claim``, ``touch`` or ``mark_done``, before or after the
        statement lands; a resume in another process finishes the
        campaign exactly once, with the unfaulted report."""
        spec = _spec("exit", axis=(1, 8))
        with ResultStore(tmp_path / "ref.db") as store:
            assert run_sweep(
                spec, store, policy=ExecutionPolicy(jobs=1, cache=False)
            ).complete
            reference = _report(store, "exit")

        spec_path = tmp_path / "exit.json"
        spec.to_json(spec_path)
        path = tmp_path / "exit.db"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        child = subprocess.run(
            [sys.executable, "-c", self.EXIT_CHILD, str(spec_path), str(path),
             method, when],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 1, child.stderr
        with ResultStore(path) as store:
            counts = store.counts("exit")
            assert counts["done"] == int((method, when) == ("mark_done", "after"))
            if (method, when) != ("claim", "before"):  # no claim landed
                assert counts["running"] > 0
            assert run_sweep(
                spec, store, policy=ExecutionPolicy(jobs=1, cache=False)
            ).complete
        assert _assert_exactly_once(path, "exit") == reference
