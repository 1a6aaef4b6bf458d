"""Distributed sweep execution: dispatch modes, workers, and chaos.

Covers the one drain entry point end to end (DESIGN.md §5i):

* all three dispatch modes produce byte-identical ``sweep report``
  output for the same spec, and a search picks the same winner under
  ``local`` and ``workers``;
* ``workers`` refuses an in-memory store before spawning anything;
* the standalone worker entrypoint (``python -m repro.sweep.worker``)
  drains a store over its CLI and emits a final JSON counter line;
* the kill-a-worker chaos drill: a 4-worker campaign survives a SIGKILL
  mid-flight — survivors reclaim the dead worker's stale leases, every
  row commits exactly once (the ``commits`` ledger proves it), attempts
  stay within the retry budget, and the report matches the
  single-process reference byte for byte.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.harness.cache import ResultCache
from repro.harness.policy import ExecutionPolicy
from repro.sweep import (
    ResultStore,
    aggregate,
    drain_campaign,
    full_report,
    run_sweep,
)
from repro.sweep.execute import campaign_rows
from repro.sweep.spec import SweepSpec
from repro.sweep.worker import _repro_pythonpath

SWEEPS = Path(__file__).parent.parent / "sweeps"


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


def _worker_pids() -> list[int]:
    """This process's live ``repro.sweep.worker`` children (the bracketed
    pattern never matches pgrep's own command line)."""
    proc = subprocess.run(
        ["pgrep", "-P", str(os.getpid()), "-f", "repro[.]sweep[.]worker"],
        capture_output=True, text=True,
    )
    return [int(pid) for pid in proc.stdout.split()]


class TestModeAgreement:
    """local, pool and workers: one spec, three stores, one report."""

    def test_all_dispatch_modes_produce_identical_reports(self, tmp_path):
        spec = _spec("agree")
        reports = {}
        for mode, policy in (
            ("local", ExecutionPolicy(dispatch="local", cache=False)),
            ("pool", ExecutionPolicy(dispatch="pool", jobs=2, cache=False)),
            ("workers", ExecutionPolicy(
                dispatch="workers", workers=2, cache=False,
                stale_after=30.0, heartbeat=1.0)),
        ):
            with ResultStore(tmp_path / f"{mode}.db") as store:
                summary = run_sweep(spec, store, policy=policy)
                assert summary.complete, f"{mode} left the campaign short"
                reports[mode] = _report(store, "agree")
        assert reports["local"] == reports["pool"] == reports["workers"]

    def test_search_picks_the_same_winner_under_workers(self, tmp_path):
        from repro.search import format_search_report, load_search_spec, run_search

        spec = load_search_spec(SWEEPS / "search_smoke.toml")
        outcomes = {}
        for mode, policy in (
            ("local", ExecutionPolicy(dispatch="local", cache=False)),
            ("workers", ExecutionPolicy(
                dispatch="workers", workers=2, cache=False,
                stale_after=30.0, heartbeat=1.0)),
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
        assert outcomes["local"] == outcomes["workers"]
        winner, simulated = outcomes["local"][:2]
        assert winner["point_id"] == "5827c84b10f0df7b"
        assert simulated == 27


class TestInMemoryStore:
    def test_workers_refuse_an_in_memory_store(self):
        spec = _spec("mem", seeds=(0,))
        with ResultStore(":memory:") as store:
            with pytest.raises(ValueError, match="in-memory"):
                run_sweep(
                    spec, store,
                    policy=ExecutionPolicy(dispatch="workers", cache=False),
                )
            assert store.counts("mem").get("done", 0) == 0
        assert not _worker_pids(), "a worker was spawned anyway"


class TestWorkerEntrypoint:
    """The standalone ``python -m repro.sweep.worker`` CLI."""

    def test_single_worker_drains_a_prepared_store(self, tmp_path):
        spec = _spec("solo")
        path = tmp_path / "solo.db"
        with ResultStore(path) as store:
            store.ensure("solo", campaign_rows(spec))
            total = len(store.rows("solo"))
        env = dict(os.environ)
        env["PYTHONPATH"] = _repro_pythonpath()
        proc = subprocess.run(
            [sys.executable, "-m", "repro.sweep.worker",
             "--db", str(path), "--sweep", "solo", "--worker-id", "t0",
             "--no-cache", "--stale-after", "30", "--heartbeat", "1",
             "--quiet"],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        counters = json.loads(proc.stdout.strip().splitlines()[-1])
        assert counters["worker"] == "t0"
        assert counters["simulated"] == total
        assert counters["lost"] == 0
        with ResultStore(path) as store:
            assert store.counts("solo")["done"] == total
            ledger = store.commit_stats("solo")
            assert ledger["max_commits"] == 1

    def test_worker_on_a_drained_store_is_a_noop(self, tmp_path):
        spec = _spec("noop", seeds=(0,))
        path = tmp_path / "noop.db"
        with ResultStore(path) as store:
            run_sweep(spec, store,
                      policy=ExecutionPolicy(dispatch="local", cache=False))
        env = dict(os.environ)
        env["PYTHONPATH"] = _repro_pythonpath()
        proc = subprocess.run(
            [sys.executable, "-m", "repro.sweep.worker",
             "--db", str(path), "--sweep", "noop", "--no-cache", "--quiet"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        counters = json.loads(proc.stdout.strip().splitlines()[-1])
        assert counters["simulated"] == 0
        with ResultStore(path) as store:
            assert store.commit_stats("noop")["max_commits"] == 1


class TestWorkerChaos:
    """Satellite: SIGKILL one of four workers mid-campaign."""

    def test_campaign_survives_a_sigkilled_worker(self, tmp_path):
        spec = _spec("chaos", axis=(1, 8), seeds=(0, 1, 2), length=40000)
        path = tmp_path / "chaos.db"
        cache = ResultCache(tmp_path / "cache")
        policy = ExecutionPolicy(
            dispatch="workers", workers=4, retries=1, jobs=1, cache=cache,
            stale_after=2.0, heartbeat=0.25,
        )
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
            # wait for real work to be in flight, then murder a worker
            victims: list[int] = []
            with ResultStore(path) as watch:
                deadline = time.time() + 60.0
                while time.time() < deadline and runner.is_alive():
                    victims = _worker_pids()
                    if victims and watch.counts("chaos").get("running", 0):
                        break
                    time.sleep(0.02)
            assert victims, "no worker process ever appeared"
            os.kill(victims[0], signal.SIGKILL)  # no cleanup
        finally:
            runner.join(timeout=480)
        assert not runner.is_alive(), "campaign never finished after the kill"
        assert "error" not in outcome, f"campaign raised: {outcome.get('error')}"
        assert outcome["summary"].complete

        with ResultStore(path) as store:
            rows = store.rows("chaos")
            assert all(r["status"] == "done" for r in rows)
            # retry budget: first claim + at most one reclaim of the
            # murdered worker's leases
            assert max(r["attempts"] for r in rows) <= 2, (
                [(r["point_id"], r["seed"], r["attempts"]) for r in rows])
            ledger = store.commit_stats("chaos")
            assert ledger["done"] == len(rows)
            assert ledger["max_commits"] == 1, (
                "a row was committed twice — exactly-once broke")
            chaos_report = _report(store, "chaos")

        # byte-identical to a single-process reference (sharing the cache,
        # so reclaimed rows also prove cache recovery: the reference run
        # simulates nothing new)
        with ResultStore(tmp_path / "ref.db") as ref_store:
            ref = run_sweep(
                spec, ref_store,
                policy=ExecutionPolicy(dispatch="local", cache=cache),
            )
            assert ref.complete
            ref_report = _report(ref_store, "chaos")
        assert chaos_report == ref_report


class TestWorkerSupervision:
    def test_exhausted_campaign_spawns_and_converges(self, tmp_path):
        """Workers racing a store where rows are mostly done: clean exit,
        no respawn storm (spawned stays within budget)."""
        spec = _spec("tail", seeds=(0,))
        path = tmp_path / "tail.db"
        with ResultStore(path) as store:
            run_sweep(spec, store,
                      policy=ExecutionPolicy(dispatch="local", cache=False))
        with ResultStore(path) as store:
            counters = drain_campaign(
                store, "tail",
                ExecutionPolicy(
                    dispatch="workers", workers=2, cache=False,
                    stale_after=5.0, heartbeat=0.5),
            )
            assert store.counts("tail")["done"] == len(store.rows("tail"))
        assert counters["simulated"] == 0
        assert counters["workers"] <= 2 + 2 * 2  # initial + respawn budget
