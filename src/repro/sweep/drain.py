"""The claim → simulate → commit loop every campaign drains through.

:func:`drain_campaign` is the one function campaigns (sweeps and search
rungs) drain through.  It runs the :class:`~repro.harness.runner.RunSpec`
objects the campaign's :class:`~repro.sweep.spec.SweepSpec` built at load, and
the policy's job count alone picks where they execute: one job runs the
loop serially in the calling process, more fan each chunk over a
process pool.  It is the loop a sweep participant runs against a
:class:`~repro.sweep.store.ResultStore`, whether it is the only process
draining that store or one of several ``sweep run --stale-after S``
processes sharing it:

1. mint this process's lease owner token (:func:`worker_token`), then
   snapshot the runnable rows, take a chunk, and lease it through
   :meth:`~repro.sweep.store.ResultStore.claim` under that token;
2. keep the lease warm with a :class:`_Heartbeat` thread while the chunk
   simulates through :func:`~repro.harness.parallel.run_simulations`
   (``on_error="collect"``: a crashing point, or a result that breaks
   :func:`~repro.core.stats.check_conservation`, marks its row failed
   instead of killing the chunk; ``text_hits``: a cache hit comes back
   as the entry's stats text);
3. commit each outcome owner-conditionally, as column text — a cache
   hit's text as it is, a fresh result through
   :func:`~repro.harness.cache.stats_text`, the point's config text
   rendered once per drain — a commit that misses
   (``mark_done`` returns ``False``) means the lease was reclaimed and
   somebody else owns the row now, so the result is dropped, not
   double-committed;
4. loop until nothing is runnable and no live peer holds rows we are
   waiting on.

A process killed mid-chunk leaves its rows ``running``; ``sweep resume``
(or a live peer, once the lease is ``stale_after`` old) reclaims them,
and the :class:`~repro.harness.cache.ResultCache` usually remembers the
lost chunk's simulations, so the retry is a cache hit.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time

from repro.harness.cache import code_version, stats_text
from repro.harness.parallel import SimulationError, run_simulations
from repro.harness.policy import ExecutionPolicy
from repro.harness.runner import RunSpec
from repro.sweep.store import ResultStore


def worker_token() -> str:
    """A process-unique lease owner token."""
    return f"pid{os.getpid()}.{os.urandom(3).hex()}"


class _Heartbeat:
    """Background thread refreshing ``updated_at`` on claimed rows.

    Runs while a chunk simulates (which can dwarf any fixed staleness
    window on big points), so concurrent campaigns using a ``stale_after``
    window see the claim as live.  A touch that raises
    ``sqlite3.OperationalError`` is one missed beat, not the end of the
    heartbeat.  ``stop()`` is idempotent and joins the thread; the final
    touch races the chunk's own commit harmlessly, as
    :meth:`~repro.sweep.store.ResultStore.touch` only refreshes rows
    still ``running`` and still held by this worker (a stolen row's new
    lease is never kept warm by the loser).
    """

    def __init__(
        self,
        store: ResultStore,
        sweep: str,
        keys: list[tuple[str, int]],
        interval: float,
        owner: str,
    ) -> None:
        self._store = store
        self._sweep = sweep
        self._keys = keys
        self._interval = interval
        self._owner = owner
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._done.wait(self._interval):
            try:
                self._store.touch(self._sweep, self._keys, owner=self._owner)
            except sqlite3.OperationalError:
                pass  # one missed beat (a locked database): the next retries

    def stop(self) -> None:
        self._done.set()
        self._thread.join()


def drain_campaign(
    store: ResultStore,
    sweep: str,
    policy: ExecutionPolicy,
    specs: dict[str, RunSpec],
    keys: set[tuple[str, int]],
    *,
    echo=None,
    progress=None,
) -> dict:
    """Drain a campaign's runnable rows; returns this process's counters.

    Args:
        store: The shared results store.
        sweep: Sweep name (rows are keyed by it).
        policy: Execution policy; ``jobs``/``cache``/``checkpoints``/
            ``retries``/``chunk``/``stale_after``/``heartbeat`` are
            consumed here.  The job count alone picks the executor: one
            job drains serially in this process, more fan each chunk over
            a process pool.  With ``stale_after`` set and ``heartbeat``
            unset, leases are touched every ``stale_after / 6`` seconds
            (clamped to 0.5–10 s), so a chunk that outlives the window is
            never mistaken for a crashed claim.
        specs: The :class:`~repro.harness.runner.RunSpec` of every point
            id in ``keys`` (see :meth:`~repro.sweep.spec.SweepSpec.run_specs`).
        keys: The ``(point_id, seed)`` rows to drain; the sweep's other
            rows are left alone, so a truncated campaign ignores foreign
            rows.
        echo: Optional ``print``-like progress callback.
        progress: Per-task progress callback (see
            :func:`~repro.harness.parallel.run_simulations`).

    Returns:
        Counter dict: ``simulated`` (tasks the result cache did not
        serve, failed ones included), ``cached`` (tasks it served),
        ``retried`` (dispatches of previously-failed rows), ``lost`` (results whose
        lease was reclaimed before the commit landed),
        ``ckpt_enabled``/``ckpt_hits``/``ckpt_stores`` (warmup checkpoint
        traffic).
    """
    owner = worker_token()
    say = echo if echo is not None else (lambda *_: None)
    retries = policy.retries if policy.retries is not None else 0
    stale_after = policy.stale_after
    heartbeat = policy.heartbeat
    if heartbeat is None and stale_after is not None:
        heartbeat = max(0.5, min(10.0, stale_after / 6.0))
    jobs = policy.resolved_jobs()
    chunk = policy.chunk if policy.chunk is not None else max(8, 4 * jobs)
    cache_obj = policy.resolved_cache()
    warmed = any(specs[pid].warmup for pid, _ in keys)
    ckpt_store = policy.resolved_checkpoints() if warmed else None
    #: how each chunk reaches run_simulations, resolved once
    run_policy = ExecutionPolicy(
        jobs=jobs,
        cache=cache_obj if cache_obj is not None else False,
        checkpoints=ckpt_store if ckpt_store is not None else False,
    )
    counters = {
        "simulated": 0, "cached": 0, "retried": 0, "lost": 0,
        "ckpt_enabled": int(ckpt_store is not None),
        "ckpt_hits": 0, "ckpt_stores": 0,
    }

    def claimable(rows) -> list:
        return [r for r in rows if (r["point_id"], r["seed"]) in keys]

    #: the config-column text of each point, rendered once per drain
    configs: dict[str, str] = {}

    def config_text(pid: str) -> str:
        text = configs.get(pid)
        if text is None:
            text = configs[pid] = json.dumps(
                specs[pid].rendered_config, sort_keys=True, default=str
            )
        return text

    def commit(held, outcomes) -> None:
        version = code_version()
        for (key, _), outcome in zip(held, outcomes):
            if isinstance(outcome, SimulationError):
                counters["simulated"] += 1
                if store.mark_failed(sweep, key, str(outcome), owner=owner):
                    say(f"{sweep}: FAILED {key[0]} seed {key[1]}: {outcome}")
                else:
                    counters["lost"] += 1
                continue
            if isinstance(outcome, str):  # a cache hit's stats text
                stats, wall_seconds = outcome, 0.0
                counters["cached"] += 1
            else:
                stats, wall_seconds = stats_text(outcome), outcome.wall_seconds
                counters["simulated"] += 1
            landed = store.mark_done(
                sweep,
                key,
                stats,
                config=config_text(key[0]),
                wall_seconds=wall_seconds,
                code_version=version,
                owner=owner,
            )
            if not landed:
                counters["lost"] += 1

    while True:
        todo = claimable(
            store.runnable(sweep, retries, stale_after=stale_after)
        )
        if not todo:
            if stale_after is not None and claimable(
                store.running(sweep, stale_after=stale_after)
            ):
                # a live peer owns rows we need: wait for it to commit
                # them (or for its heartbeat to go stale, at which point
                # runnable() hands them back to us)
                time.sleep(min(0.2, stale_after / 4))
                continue
            break
        say(f"{sweep}: {len(todo)} rows to simulate")
        for start in range(0, len(todo), chunk):
            batch = [
                ((row["point_id"], row["seed"]), row)
                for row in todo[start : start + chunk]
            ]
            claimed = set(
                store.claim(
                    sweep,
                    [key for key, _ in batch],
                    retries,
                    stale_after=stale_after,
                    owner=owner,
                )
            )
            held = [(key, row) for key, row in batch if key in claimed]
            if not held:
                continue  # every row lost to a concurrent worker
            beat = (
                _Heartbeat(
                    store, sweep, sorted(claimed), heartbeat, owner=owner
                )
                if heartbeat is not None
                else None
            )
            tasks = [
                (row["workload"], specs[key[0]], row["length"], key[1])
                for key, row in held
            ]
            counters["retried"] += sum(1 for _, row in held if row["attempts"] > 0)
            try:
                commit(held, run_simulations(
                    tasks, on_error="collect", progress=progress,
                    policy=run_policy, text_hits=True,
                ))
            finally:
                if beat is not None:
                    beat.stop()

    if ckpt_store is not None:
        counters["ckpt_hits"] = ckpt_store.hits
        counters["ckpt_stores"] = ckpt_store.stores
    return counters
