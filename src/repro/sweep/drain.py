"""The claim → simulate → commit loop every campaign drains through.

:func:`drain_campaign` is the one function campaigns (sweeps and search
rungs) drain through: ``dispatch="local"`` runs the loop serially in the
calling process, ``dispatch="pool"`` fans each chunk over a process
pool.  It is the loop a sweep participant runs against a
:class:`~repro.sweep.store.ResultStore`, whether it is the only process
draining that store or one of several ``sweep run --stale-after S``
processes sharing it:

1. mint this process's lease owner token (:func:`worker_token`), then
   snapshot the runnable rows, take a chunk, and lease it through
   :meth:`~repro.sweep.store.ResultStore.claim` under that token;
2. keep the lease warm with a :class:`_Heartbeat` thread while the chunk
   simulates through :func:`~repro.harness.parallel.run_simulations`
   (``on_error="collect"``: a crashing point marks its row failed
   instead of killing the chunk);
3. commit each outcome owner-conditionally — a commit that misses
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
import threading
import time

from repro.harness.cache import code_version, render_config
from repro.harness.parallel import SimulationError, run_simulations
from repro.harness.policy import ExecutionPolicy
from repro.sweep.spec import run_spec_for
from repro.sweep.store import ResultStore


def worker_token() -> str:
    """A process-unique lease owner token."""
    return f"pid{os.getpid()}.{os.urandom(3).hex()}"


class _Heartbeat:
    """Background thread refreshing ``updated_at`` on claimed rows.

    Runs while a chunk simulates (which can dwarf any fixed staleness
    window on big points), so concurrent campaigns using a ``stale_after``
    window see the claim as live.  ``stop()`` is idempotent and joins the
    thread; the final touch races the chunk's own commit harmlessly, as
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
            self._store.touch(self._sweep, self._keys, owner=self._owner)

    def stop(self) -> None:
        self._done.set()
        self._thread.join()


def drain_campaign(
    store: ResultStore,
    sweep: str,
    policy: ExecutionPolicy,
    *,
    mine: set | None = None,
    warmup: int = 0,
    sample: int | None = None,
    echo=None,
    progress=None,
) -> dict:
    """Drain a campaign's runnable rows; returns this process's counters.

    Args:
        store: The shared results store.
        sweep: Sweep name (rows are keyed by it).
        policy: Execution policy; ``dispatch``/``jobs``/``cache``/
            ``checkpoints``/``retries``/``chunk``/``stale_after``/
            ``heartbeat`` are consumed here.  ``local`` dispatch drains
            serially in this process (``jobs`` forced to 1: direct
            tracebacks, exact in-process counters); ``pool`` fans each
            chunk over a process pool (a job count of 1 means every
            core — serial callers want ``local``); ``auto`` is ``pool``
            iff jobs resolve above 1.  With ``stale_after`` set and
            ``heartbeat`` unset, leases are touched every
            ``stale_after / 6`` seconds (clamped to 0.5–10 s), so a chunk
            that outlives the window is never mistaken for a crashed
            claim.
        mine: Restrict to these ``(point_id, seed)`` keys (``None`` =
            every row of the sweep).  :func:`~repro.sweep.run_sweep`
            passes its expansion so a truncated campaign ignores
            foreign rows.
        warmup/sample: The campaign's interval protocol, forwarded into
            every reconstructed :class:`~repro.harness.runner.RunSpec`.
        echo: Optional ``print``-like progress callback.
        progress: Per-task progress callback (see
            :func:`~repro.harness.parallel.run_simulations`).

    Returns:
        Counter dict: ``simulated`` (tasks dispatched), ``retried``
        (dispatches of previously-failed rows), ``lost`` (results whose
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
    jobs = 1
    if policy.resolved_dispatch() == "pool":
        jobs = policy.resolved_jobs()
        if jobs <= 1:
            jobs = os.cpu_count() or 1
    chunk = policy.chunk if policy.chunk is not None else max(8, 4 * jobs)
    cache_obj = policy.resolved_cache()
    ckpt_store = policy.resolved_checkpoints() if warmup else None
    #: how each chunk reaches run_simulations, resolved once
    run_policy = ExecutionPolicy(
        jobs=jobs,
        cache=cache_obj if cache_obj is not None else False,
        checkpoints=ckpt_store if ckpt_store is not None else False,
    )
    counters = {
        "simulated": 0, "retried": 0, "lost": 0,
        "ckpt_enabled": int(ckpt_store is not None),
        "ckpt_hits": 0, "ckpt_stores": 0,
    }

    def claimable(rows) -> list:
        if mine is None:
            return list(rows)
        return [r for r in rows if (r["point_id"], r["seed"]) in mine]

    def commit(held, configs, outcomes) -> None:
        version = code_version()
        for (key, row, _), outcome in zip(held, outcomes):
            if isinstance(outcome, SimulationError):
                if store.mark_failed(sweep, key, str(outcome), owner=owner):
                    say(f"{sweep}: FAILED {key[0]} seed {key[1]}: {outcome}")
                else:
                    counters["lost"] += 1
                continue
            landed = store.mark_done(
                sweep,
                key,
                outcome.to_dict(),
                config=configs[row["point_id"]],
                wall_seconds=outcome.wall_seconds,
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
            batch = todo[start : start + chunk]
            candidates = []
            # one RunSpec object and one rendered config per design point
            # within the chunk: seed replicates of a point reuse them
            # instead of re-parsing the recipe and re-rendering the config
            spec_memo: dict[str, object] = {}
            config_memo: dict[str, dict | None] = {}
            for row in batch:
                key = (row["point_id"], row["seed"])
                params = json.loads(row["params"])
                try:
                    run_spec = spec_memo.get(row["point_id"])
                    if run_spec is None:
                        run_spec = run_spec_for(
                            params,
                            name=row["point_id"][:8],
                            warmup=warmup,
                            sample=sample,
                        )
                        spec_memo[row["point_id"]] = run_spec
                        try:
                            config = render_config(run_spec.config_factory())
                        except Exception:
                            config = None
                        config_memo[row["point_id"]] = config
                except Exception as exc:  # bad recipe (unknown predictor, ...)
                    if store.claim(
                        sweep, [key], retries,
                        stale_after=stale_after, owner=owner,
                    ):
                        store.mark_failed(
                            sweep, key, f"{type(exc).__name__}: {exc}",
                            owner=owner,
                        )
                    continue
                candidates.append((key, row, run_spec))
            if not candidates:
                continue
            claimed = set(
                store.claim(
                    sweep,
                    [key for key, _, _ in candidates],
                    retries,
                    stale_after=stale_after,
                    owner=owner,
                )
            )
            held = [c for c in candidates if c[0] in claimed]
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
                (row["workload"], run_spec, row["length"], row["seed"])
                for _, row, run_spec in held
            ]
            counters["simulated"] += len(tasks)
            counters["retried"] += sum(
                1 for _, row, _ in held if row["attempts"] > 0
            )
            try:
                commit(held, config_memo, run_simulations(
                    tasks, on_error="collect", progress=progress,
                    policy=run_policy,
                ))
            finally:
                if beat is not None:
                    beat.stop()

    if ckpt_store is not None:
        counters["ckpt_hits"] = ckpt_store.hits
        counters["ckpt_stores"] = ckpt_store.stores
    return counters
