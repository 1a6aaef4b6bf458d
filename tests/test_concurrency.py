"""Concurrency regressions for the shared stores (DESIGN.md §5g).

These tests pin the bugfix sweep that made the harness's persistent
state safe to share — between threads running concurrent campaigns,
and between independent campaign processes pointed at the same files:

* :class:`~repro.sweep.store.ResultStore` — concurrent leasing through
  separate connections must never raise ``database is locked`` and must
  never hand one ``(point, seed)`` to two workers;
* stale-claim reclaim — a ``stale_after`` window plus heartbeats keeps
  a live-but-slow worker's rows from being stolen by a concurrent
  resume, while genuinely crashed claims still age out;
* :class:`~repro.harness.cache.ResultCache` /
  :class:`~repro.harness.checkpoint.CheckpointStore` — files vanishing
  mid-scan and truncated/corrupt entries are misses (with the corrupt
  file deleted), never crashes.
"""

from __future__ import annotations

import pickle
import sqlite3
import threading
import time

import pytest

from repro.core import SimStats
from repro.harness.cache import ResultCache
from repro.harness.checkpoint import CheckpointStore
from repro.sweep.store import ResultStore
from tests.conftest import arch_payload


def seed_rows(n_points: int = 4, n_seeds: int = 4) -> list[dict]:
    return [
        {
            "point_id": f"p{p}",
            "seed": s,
            "workload": "mcf",
            "length": 500,
            "params_text": f'{{"p": {p}}}',
            "idx": p,
        }
        for p in range(n_points)
        for s in range(n_seeds)
    ]


class TestConcurrentLeasing:
    """Satellite 1: many workers, separate connections, one store file."""

    def test_racing_claims_are_disjoint_and_never_locked(self, tmp_path):
        """8 threads × own connection, all trying to claim every row:
        every row is claimed exactly once overall, and no thread sees
        'database is locked'."""
        path = tmp_path / "lease.db"
        rows = seed_rows(4, 4)
        with ResultStore(path) as setup:
            setup.ensure("s", rows)
        keys = [(r["point_id"], r["seed"]) for r in rows]
        won: dict[int, list] = {}
        errors: list[Exception] = []
        barrier = threading.Barrier(8)

        def worker(wid: int) -> None:
            try:
                with ResultStore(path) as store:
                    barrier.wait()
                    won[wid] = store.claim(
                        "s", keys, stale_after=60.0, owner=f"w{wid}")
            except Exception as exc:  # noqa: BLE001 — recorded for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, f"claiming raised: {errors}"
        all_claims = [k for claims in won.values() for k in claims]
        assert len(all_claims) == len(set(all_claims)), "a row was double-claimed"
        assert sorted(all_claims) == sorted(keys), "some row went unclaimed"

    def test_lease_commit_hammer_no_locked_no_double_run(self, tmp_path):
        """Workers loop claim→mark_done until the sweep drains.  No
        'database is locked', and every row ends done with attempts == 1
        — the proof that no (point, seed) ever ran twice."""
        path = tmp_path / "hammer.db"
        rows = seed_rows(5, 4)
        with ResultStore(path) as setup:
            setup.ensure("s", rows)
        errors: list[Exception] = []

        def worker(owner: str) -> None:
            try:
                with ResultStore(path, busy_timeout=30.0) as store:
                    while True:
                        todo = store.runnable("s", stale_after=60.0)
                        if not todo:
                            return
                        keys = [(r["point_id"], r["seed"]) for r in todo[:3]]
                        for key in store.claim(
                            "s", keys, stale_after=60.0, owner=owner
                        ):
                            assert store.mark_done(
                                "s", key, '{"cycles": 1}', owner=owner)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, f"hammer raised: {errors}"
        with ResultStore(path) as store:
            final = store.rows("s")
            assert all(r["status"] == "done" for r in final)
            assert all(r["attempts"] == 1 for r in final), (
                "attempts != 1 means a row was simulated more than once: "
                + str([(r["point_id"], r["seed"], r["attempts"]) for r in final]))

    def test_store_is_wal_with_busy_timeout(self, tmp_path):
        store = ResultStore(tmp_path / "w.db", busy_timeout=7.5)
        mode = store._db.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode in ("wal", "memory")  # memory: fs refused WAL
        (timeout_ms,) = store._db.execute("PRAGMA busy_timeout").fetchone()
        assert timeout_ms == 7500
        store.close()

    def test_cross_thread_use_of_one_connection(self, tmp_path):
        """check_same_thread=False + the internal lock: one store object
        used from several threads at once works."""
        store = ResultStore(tmp_path / "x.db")
        store.ensure("s", seed_rows(2, 2))
        errors = []

        def reader() -> None:
            try:
                for _ in range(50):
                    store.counts("s")
                    store.rows("s")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def writer() -> None:
            try:
                for i in range(50):
                    store.touch("s", [("p0", 0)], owner="w")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=f) for f in (reader, writer, reader)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        store.close()
        assert not errors, f"shared-connection use raised: {errors}"


class TestStaleReclaim:
    """Satellite 3: the reclaim window vs live-but-slow workers."""

    def test_live_claim_is_not_stealable_within_window(self, tmp_path):
        store = ResultStore(tmp_path / "s.db")
        store.ensure("s", seed_rows(1, 1))
        key = ("p0", 0)
        assert store.claim("s", [key], stale_after=60.0, owner="w1") == [key]
        # a concurrent resume with a window sees nothing to do...
        assert store.runnable("s", stale_after=60.0) == []
        assert store.claim("s", [key], stale_after=60.0, owner="w2") == []
        # ...but a caller without a window (crash resume) still reclaims
        assert len(store.runnable("s")) == 1
        store.close()

    def test_stale_claim_ages_out_and_is_reclaimed(self, tmp_path):
        store = ResultStore(tmp_path / "s.db")
        store.ensure("s", seed_rows(1, 1))
        store.claim("s", [("p0", 0)], stale_after=60.0, owner="w1")
        # backdate the heartbeat past the window: the claim is dead
        with store._db:
            store._db.execute(
                "UPDATE results SET updated_at = updated_at - 120.0"
            )
        assert [
            (r["point_id"], r["seed"]) for r in store.runnable("s", stale_after=60.0)
        ] == [("p0", 0)]
        assert store.claim(
            "s", [("p0", 0)], stale_after=60.0, owner="w2") == [("p0", 0)]
        (attempts,) = store._db.execute(
            "SELECT attempts FROM results"
        ).fetchone()
        assert attempts == 2  # reclaim is a new attempt
        store.close()

    def test_heartbeat_keeps_slow_worker_alive_under_concurrent_resume(
        self, tmp_path
    ):
        """A slow worker holds a claim and heartbeats on a short period; a
        concurrent resume loop with a *very* short staleness window runs
        alongside for many windows' worth of time and must never steal the
        row.  Without the heartbeat the same setup steals immediately."""
        path = tmp_path / "slow.db"
        store = ResultStore(path)
        store.ensure("s", seed_rows(1, 1))
        key = ("p0", 0)
        assert store.claim("s", [key], stale_after=0.2, owner="slow") == [key]
        stop = threading.Event()

        def heartbeat() -> None:  # the slow worker's sidecar
            while not stop.wait(0.05):
                store.touch("s", [key], owner="slow")

        beat = threading.Thread(target=heartbeat)
        beat.start()
        try:
            stolen = []
            with ResultStore(path) as rival:
                deadline = time.time() + 1.0  # five windows
                while time.time() < deadline:
                    stolen.extend(
                        rival.claim("s", [key], stale_after=0.2, owner="rival"))
                    time.sleep(0.02)
            assert stolen == [], "a live heartbeating claim was stolen"
        finally:
            stop.set()
            beat.join()
        # the slow worker eventually commits — its result stands
        assert store.mark_done("s", key, '{"cycles": 9}', owner="slow")
        assert store.counts("s")["done"] == 1
        (attempts,) = store._db.execute("SELECT attempts FROM results").fetchone()
        assert attempts == 1
        store.close()

    def test_without_heartbeat_short_window_does_steal(self, tmp_path):
        """Control for the test above: no heartbeat → the rival wins."""
        store = ResultStore(tmp_path / "s.db")
        store.ensure("s", seed_rows(1, 1))
        key = ("p0", 0)
        store.claim("s", [key], stale_after=0.05, owner="slow")
        time.sleep(0.1)
        assert store.claim("s", [key], stale_after=0.05, owner="rival") == [key]
        store.close()

    def test_drain_with_only_stale_after_heartbeats_its_rows(
        self, tmp_path, monkeypatch
    ):
        """drain_campaign derives a heartbeat from ``stale_after`` when none
        is set, so a chunk that runs for three windows keeps its rows:
        a concurrent claim() with the same window never steals them."""
        from repro.harness.policy import ExecutionPolicy
        from repro.sweep import drain
        from repro.sweep.execute import campaign_rows
        from repro.sweep.spec import SweepSpec

        spec = SweepSpec.from_dict({
            "name": "hb", "axes": {"spawn_latency": [1]},
            "base": {"machine": "mtvp"}, "workloads": ["mcf"],
            "seeds": [0], "lengths": [300],
        })
        path = tmp_path / "hb.db"
        store = ResultStore(path)
        store.ensure("hb", campaign_rows(spec))
        keys = [(r["point_id"], r["seed"]) for r in store.rows("hb")]
        simulating = threading.Event()
        slept = threading.Event()
        real = drain.run_simulations

        def slow(tasks, **kwargs):
            if not slept.is_set():
                simulating.set()  # the chunk's rows are claimed by now
                time.sleep(3.0)
                slept.set()
            return real(tasks, **kwargs)

        monkeypatch.setattr(drain, "run_simulations", slow)
        stolen: list = []

        def rival() -> None:
            simulating.wait(30)
            with ResultStore(path) as mine:
                while not slept.is_set():
                    stolen.extend(
                        mine.claim("hb", keys, stale_after=1.0, owner="rival"))
                    time.sleep(0.05)

        thread = threading.Thread(target=rival)
        thread.start()
        try:
            counters = drain.drain_campaign(
                store, "hb",
                ExecutionPolicy(jobs=1, cache=False, stale_after=1.0),
                spec.run_specs(spec.warmup, spec.sample), set(keys),
            )
        finally:
            slept.set()
            thread.join()
        assert stolen == [], "a row was stolen from a live drain"
        assert counters["lost"] == 0
        assert store.commit_stats("hb") == {
            "done": len(keys), "commits": len(keys), "max_commits": 1,
        }
        assert all(r["attempts"] == 1 for r in store.rows("hb"))
        store.close()

    def test_touch_does_not_revive_committed_rows(self, tmp_path):
        store = ResultStore(tmp_path / "s.db")
        store.ensure("s", seed_rows(1, 1))
        key = ("p0", 0)
        store.claim("s", [key], owner="w")
        store.mark_done("s", key, '{"cycles": 3}', owner="w")
        assert store.touch("s", [key], owner="w") == 0  # late heartbeat
        assert store.counts("s")["done"] == 1
        store.close()

    def test_claim_cutoff_ignores_python_clock_skew(self, tmp_path, monkeypatch):
        """Regression: the staleness cutoff is computed by the database
        clock at statement-execution time, never from a ``time.time()``
        sample taken python-side.  A python-side sample can be arbitrarily
        stale by the time the claim statement actually executes (it may
        have waited out a long write lock), which would steal rows whose
        heartbeat arrived in between.  Skewing ``time.time`` 999 seconds
        forward must therefore change nothing: the freshly-touched row
        stays unstealable."""
        store = ResultStore(tmp_path / "skew.db")
        store.ensure("s", seed_rows(1, 1))
        key = ("p0", 0)
        assert store.claim("s", [key], stale_after=5.0, owner="live") == [key]
        assert store.touch("s", [key], owner="live") == 1
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + 999.0)
        assert store.claim("s", [key], stale_after=5.0, owner="rival") == []
        assert store.runnable("s", stale_after=5.0) == []
        # the live owner's commit still lands, exactly once
        assert store.mark_done("s", key, '{"cycles": 1}', owner="live")
        assert store.commit_stats("s") == {
            "done": 1, "commits": 1, "max_commits": 1,
        }
        store.close()

    def test_slow_worker_vs_aggressive_reclaim_hammer(self, tmp_path):
        """A slow worker heartbeats its leases on a short period while
        three rivals hammer claim() with an aggressive staleness window
        for many windows' worth of time: the rivals must come away empty,
        and the slow worker's owner-conditional commits must all land."""
        path = tmp_path / "aggr.db"
        store = ResultStore(path)
        rows = seed_rows(2, 2)
        store.ensure("s", rows)
        keys = [(r["point_id"], r["seed"]) for r in rows]
        assert sorted(store.claim(
            "s", keys, stale_after=0.2, owner="slow")) == sorted(keys)
        stop = threading.Event()
        stolen: list = []
        errors: list[Exception] = []

        def heartbeat() -> None:
            while not stop.wait(0.05):
                store.touch("s", keys, owner="slow")

        def rival(wid: int) -> None:
            try:
                with ResultStore(path) as mine:
                    while not stop.is_set():
                        got = mine.claim(
                            "s", keys, stale_after=0.2, owner=f"r{wid}")
                        stolen.extend(got)
                        time.sleep(0.01)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=heartbeat)]
        threads += [threading.Thread(target=rival, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        time.sleep(1.0)  # five windows
        stop.set()
        for t in threads:
            t.join()
        assert not errors, f"rival claims raised: {errors}"
        assert stolen == [], "an actively heartbeating lease was stolen"
        for key in keys:
            assert store.mark_done("s", key, '{"cycles": 1}', owner="slow")
        ledger = store.commit_stats("s")
        assert ledger == {"done": 4, "commits": 4, "max_commits": 1}
        final = store.rows("s")
        assert all(r["attempts"] == 1 for r in final)
        store.close()


class TestOwnerConditionalCommits:
    """Owner tokens: a superseded lease can never commit or heartbeat."""

    def test_stale_owner_cannot_commit_over_the_reclaimer(self, tmp_path):
        store = ResultStore(tmp_path / "o.db")
        store.ensure("s", seed_rows(1, 1))
        key = ("p0", 0)
        assert store.claim("s", [key], owner="w1") == [key]
        # w1 goes silent; the row ages out and w2 reclaims it
        with store._db:
            store._db.execute(
                "UPDATE results SET updated_at = updated_at - 120.0")
        assert store.claim("s", [key], stale_after=60.0, owner="w2") == [key]
        # w1 wakes up and tries to win the race: every verb is refused
        assert store.touch("s", [key], owner="w1") == 0
        assert not store.mark_done("s", key, '{"cycles": 7}', owner="w1")
        assert not store.mark_failed("s", key, "late", owner="w1")
        # nor can anyone lease or commit without naming an owner
        for verb, args in (
            (store.claim, ("s", [key])),
            (store.touch, ("s", [key])),
            (store.mark_done, ("s", key, '{"cycles": 7}')),
            (store.mark_failed, ("s", key, "late")),
        ):
            with pytest.raises(TypeError, match="owner"):
                verb(*args)
        # w2's commit is the one that lands — exactly once
        assert store.mark_done("s", key, '{"cycles": 9}', owner="w2")
        assert store.commit_stats("s") == {
            "done": 1, "commits": 1, "max_commits": 1,
        }
        import json as _json

        (stats_text,) = [r["stats"] for r in store.rows("s")]
        assert _json.loads(stats_text)["cycles"] == 9
        store.close()


def _stats() -> SimStats:
    stats = SimStats()
    stats.cycles = 42
    stats.instructions_stepped = 100
    return stats


class TestCacheCorruption:
    """Satellite 2: the result cache under concurrent pruning/corruption."""

    def test_corrupt_entry_is_miss_and_deleted(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k" * 64, _stats())
        path = cache._path("k" * 64)
        path.write_text('{"stats": {"cycles"')  # truncated write
        assert cache.get("k" * 64) is None
        assert cache.misses == 1
        assert not path.exists(), "corrupt entry must be deleted"
        # the slot re-fills cleanly
        cache.put("k" * 64, _stats())
        assert cache.get("k" * 64) is not None

    def test_wrong_shape_json_is_miss_and_deleted(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache._path("a" * 64)
        path.write_text('{"not_stats": 1}')
        assert cache.get("a" * 64) is None
        assert not path.exists()

    def test_vanished_entry_is_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("b" * 64) is None
        assert cache.misses == 1

    def test_prune_tolerates_files_vanishing_mid_scan(
        self, tmp_path, monkeypatch
    ):
        """A second pruner (or clear()) unlinking a file between prune's
        scan and its eviction must not raise, and the eviction still
        counts — the bytes are gone either way."""
        from pathlib import Path

        cache = ResultCache(tmp_path)
        for i in range(4):
            cache.put(f"{i}" * 64, _stats())
        real_unlink = Path.unlink
        raced = []

        def racy_unlink(self, *args, **kwargs):
            if not raced and self.suffix == ".json":
                raced.append(self)
                real_unlink(self)          # the rival evicts it first...
                raise FileNotFoundError(self)  # ...and we hit the race
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", racy_unlink)
        removed = cache.prune(max_bytes=0)
        assert raced, "the race was never exercised"
        assert removed == 4  # 3 real + 1 already-gone, all accounted
        assert list(tmp_path.glob("*.json")) == []

    def test_put_recreates_vanished_directory(self, tmp_path):
        cache = ResultCache(tmp_path / "sub")
        import shutil

        shutil.rmtree(cache.directory)
        cache.put("c" * 64, _stats())
        assert cache.get("c" * 64) is not None

    def test_concurrent_get_put_prune_hammer(self, tmp_path):
        """Readers, writers and a pruner on one directory: no exceptions."""
        cache = ResultCache(tmp_path)
        errors: list[Exception] = []
        stop = threading.Event()

        def writer() -> None:
            try:
                i = 0
                while not stop.is_set():
                    cache.put(f"{i % 8:064d}", _stats())
                    i += 1
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def reader() -> None:
            try:
                i = 0
                while not stop.is_set():
                    cache.get(f"{i % 8:064d}")
                    i += 1
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def pruner() -> None:
            try:
                while not stop.is_set():
                    cache.prune(max_bytes=256)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=f) for f in (writer, reader, pruner, reader)
        ]
        for t in threads:
            t.start()
        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join()
        assert not errors, f"concurrent cache traffic raised: {errors}"


class TestCheckpointCorruption:
    """Satellite 2, checkpoint half: arch-state pickles."""

    def test_truncated_pickle_is_miss_and_deleted(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.put("k1", arch_payload(arch={"pc": 7}, warmup=100))
        path = store._path("k1")
        path.write_bytes(path.read_bytes()[:10])  # truncate mid-stream
        assert store.get("k1") is None
        assert store.misses == 1
        assert not path.exists(), "corrupt checkpoint must be deleted"
        store.put("k1", arch_payload(arch={"pc": 8}, warmup=100))
        assert store.get("k1")["arch"]["pc"] == 8

    def test_garbage_bytes_are_miss_and_deleted(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store._path("k2").write_bytes(b"not a pickle at all")
        assert store.get("k2") is None
        assert not store._path("k2").exists()

    def test_unpicklable_reference_is_miss_and_deleted(self, tmp_path):
        """A checkpoint pickled against a class that no longer exists
        (code changed between runs) unpickles with AttributeError — that
        must be a miss, not a crash."""
        store = CheckpointStore(tmp_path)
        # hand-craft a pickle referencing a bogus global
        payload = b"\x80\x04\x95\x1e\x00\x00\x00\x00\x00\x00\x00\x8c\x08__main__\x94\x8c\x0bNoSuchClass\x94\x93\x94."
        store._path("k3").write_bytes(payload)
        assert store.get("k3") is None
        assert not store._path("k3").exists()

    def test_vanished_checkpoint_is_plain_miss(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.get("gone") is None
        assert store.misses == 1

    def test_put_recreates_vanished_directory(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        import shutil

        shutil.rmtree(store.directory)
        store.put("k4", arch_payload(arch={}, warmup=0))
        assert store.get("k4") is not None


class TestConcurrentSweeps:
    """Two run_sweep campaigns over one store: every row exactly once."""

    def test_two_campaigns_share_one_store_without_double_runs(self, tmp_path):
        from repro.harness.policy import ExecutionPolicy
        from repro.sweep.execute import run_sweep
        from repro.sweep.spec import SweepSpec

        spec = SweepSpec.from_dict({
            "name": "dual",
            "axes": {"threads": [2, 4]},
            "base": {"machine": "mtvp"},
            "workloads": ["mcf"],
            "seeds": [0, 1],
            "lengths": [400],
        })
        path = tmp_path / "dual.db"
        cache = ResultCache(tmp_path / "cache")
        summaries = {}
        errors: list[Exception] = []

        def campaign(name: str) -> None:
            try:
                with ResultStore(path) as store:
                    summaries[name] = run_sweep(
                        spec, store,
                        policy=ExecutionPolicy(
                            cache=cache, stale_after=30.0, heartbeat=1.0
                        ),
                    )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=campaign, args=(n,)) for n in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, f"concurrent campaigns raised: {errors}"
        with ResultStore(path) as store:
            final = store.rows("dual")
            assert all(r["status"] == "done" for r in final)
            assert all(r["attempts"] == 1 for r in final), (
                "a (point, seed) was simulated by both campaigns: "
                + str([(r["point_id"], r["seed"], r["attempts"]) for r in final]))
        # both campaigns report the full sweep as complete
        assert summaries["a"].complete and summaries["b"].complete
