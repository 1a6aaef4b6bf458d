"""The claim → simulate → commit engine every dispatch mode shares.

:func:`drain_campaign` is the one entry point campaigns (sweeps and
search rungs) drain through: ``dispatch="local"``/``"pool"`` run
:func:`drain_store` in the calling process, ``dispatch="workers"`` hands
the store to :func:`~repro.sweep.worker.coordinate`, which runs
:func:`drain_store` inside each ``repro.sweep.worker`` subprocess.

:func:`drain_store` is the loop a sweep participant runs against a
:class:`~repro.sweep.store.ResultStore`, whether it is the only worker
or one of many:

1. snapshot the runnable rows, take a chunk, and lease it through
   :meth:`~repro.sweep.store.ResultStore.claim` under this worker's
   owner token;
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

Multi-worker refinements (``peers > 1``):

* **Fair tail chunks.**  When fewer than ``peers × chunk`` rows remain,
  each snapshot takes only ``ceil(remaining / peers)`` rows, so the last
  chunks spread across workers instead of one worker hoarding the tail.
* **Work shedding.**  A claimed chunk is simulated in per-point groups;
  between groups the worker checks whether the pool of claimable rows
  has run dry, and if so releases its own unstarted rows
  (:meth:`~repro.sweep.store.ResultStore.release`) back to ``pending``
  so idle peers steal them
  instead of waiting for the straggler.  Results committed per group
  keep the loss bound of a SIGKILL at one group, and the
  :class:`~repro.harness.cache.ResultCache` (shared by every worker)
  remembers even those simulations.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time

from repro.harness.cache import code_version
from repro.harness.parallel import SimulationError, run_simulations
from repro.harness.policy import ExecutionPolicy
from repro.sweep.spec import run_spec_for
from repro.sweep.store import ResultStore


def worker_token(worker_id: str | None = None) -> str:
    """A process-unique lease owner token (stable for the process)."""
    base = worker_id if worker_id else f"pid{os.getpid()}"
    return f"{base}.{os.urandom(3).hex()}"


class _Heartbeat:
    """Background thread refreshing ``updated_at`` on claimed rows.

    Runs while a chunk simulates (which can dwarf any fixed staleness
    window on big points), so concurrent campaigns using a ``stale_after``
    window see the claim as live.  ``stop()`` is idempotent and joins the
    thread; the final touch races the chunk's own commit harmlessly —
    :meth:`~repro.sweep.store.ResultStore.touch` only refreshes rows
    still ``running`` (and, with an owner token, only rows this worker
    still holds — a stolen row's new lease is never kept warm by the
    loser).
    """

    def __init__(
        self,
        store: ResultStore,
        sweep: str,
        keys: list[tuple[str, int]],
        interval: float,
        owner: str | None = None,
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


def drain_store(
    store: ResultStore,
    sweep: str,
    policy: ExecutionPolicy | None = None,
    *,
    mine: set | None = None,
    owner: str | None = None,
    peers: int = 1,
    warmup: int = 0,
    sample: int | None = None,
    echo=None,
    progress=None,
) -> dict:
    """Drain a sweep's runnable rows; returns this worker's counters.

    Args:
        store: The shared results store.
        sweep: Sweep name (rows are keyed by it).
        policy: Execution policy; ``jobs``/``cache``/``checkpoints``/
            ``retries``/``chunk``/``stale_after``/``heartbeat`` are
            consumed here.
        mine: Restrict to these ``(point_id, seed)`` keys (``None`` =
            every row of the sweep).  The coordinator passes its
            expansion so a truncated campaign ignores foreign rows.
        owner: Lease owner token (``None`` = owner-less legacy leases).
        peers: How many workers share the store; ``> 1`` enables fair
            tail chunks and work shedding.
        warmup/sample: The campaign's interval protocol, forwarded into
            every reconstructed :class:`~repro.harness.runner.RunSpec`.
        echo: Optional ``print``-like progress callback.
        progress: Per-task progress callback (see
            :func:`~repro.harness.parallel.run_simulations`).

    Returns:
        Counter dict: ``simulated`` (tasks dispatched), ``retried``
        (dispatches of previously-failed rows), ``lost`` (results whose
        lease was reclaimed before the commit landed), ``shed`` (rows
        released for peers to steal), ``ckpt_enabled``/``ckpt_hits``/
        ``ckpt_stores`` (warmup checkpoint traffic).
    """
    policy = policy if policy is not None else ExecutionPolicy()
    say = echo if echo is not None else (lambda *_: None)
    retries = policy.retries if policy.retries is not None else 0
    stale_after = policy.stale_after
    heartbeat = policy.heartbeat
    jobs = policy.resolved_jobs()
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
        "simulated": 0, "retried": 0, "lost": 0, "shed": 0,
        "ckpt_enabled": int(ckpt_store is not None),
        "ckpt_hits": 0, "ckpt_stores": 0,
    }

    def claimable(rows) -> list:
        if mine is None:
            return list(rows)
        return [r for r in rows if (r["point_id"], r["seed"]) in mine]

    def pool_is_dry() -> bool:
        return not claimable(
            store.runnable(sweep, retries, stale_after=stale_after)
        )

    def commit(group, outcomes) -> None:
        version = code_version()
        for (key, row, run_spec), outcome in zip(group, outcomes):
            if isinstance(outcome, SimulationError):
                if store.mark_failed(sweep, key, str(outcome), owner=owner):
                    say(f"{sweep}: FAILED {key[0]} seed {key[1]}: {outcome}")
                else:
                    counters["lost"] += 1
                continue
            try:
                config = dataclasses.asdict(run_spec.config_factory())
            except Exception:
                config = None
            landed = store.mark_done(
                sweep,
                key,
                outcome.to_dict(),
                config=config,
                wall_seconds=outcome.wall_seconds,
                code_version=version,
                owner=owner,
            )
            if not landed:
                counters["lost"] += 1

    def simulate(group) -> None:
        tasks = [
            (row["workload"], run_spec, row["length"], row["seed"])
            for _, row, run_spec in group
        ]
        counters["simulated"] += len(tasks)
        counters["retried"] += sum(
            1 for _, row, _ in group if row["attempts"] > 0
        )
        outcomes = run_simulations(
            tasks, on_error="collect", progress=progress, policy=run_policy
        )
        commit(group, outcomes)

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
        take = chunk
        if peers > 1 and len(todo) <= peers * chunk:
            # tail of the grid: split what's left fairly instead of one
            # worker walking off with everything
            take = max(1, -(-len(todo) // peers))
        for start in range(0, len(todo), take):
            batch = todo[start : start + take]
            candidates = []
            # one RunSpec object per design point within the chunk: seed
            # replicates of a point reuse it instead of re-parsing the recipe
            spec_memo: dict[str, object] = {}
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
            try:
                if peers <= 1:
                    simulate(held)
                else:
                    # per-point groups: commit as each finishes, and shed
                    # unstarted groups once idle peers have nothing left
                    # to claim
                    groups: list[list] = []
                    by_point: dict[str, list] = {}
                    for cand in held:
                        group = by_point.get(cand[1]["point_id"])
                        if group is None:
                            group = by_point[cand[1]["point_id"]] = []
                            groups.append(group)
                        group.append(cand)
                    for gi, group in enumerate(groups):
                        if gi and pool_is_dry():
                            rest = [
                                key
                                for g in groups[gi:]
                                for (key, _, _) in g
                            ]
                            counters["shed"] += store.release(
                                sweep, rest, owner=owner
                            )
                            break
                        simulate(group)
            finally:
                if beat is not None:
                    beat.stop()

    if ckpt_store is not None:
        counters["ckpt_hits"] = ckpt_store.hits
        counters["ckpt_stores"] = ckpt_store.stores
    return counters


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
    """Drain a campaign's rows where ``policy.dispatch`` says.

    ``local`` drains serially in this process (``jobs`` forced to 1:
    direct tracebacks, exact in-process counters); ``pool`` fans each
    chunk over a process pool in this process (a job count of 1 means
    every core — serial callers want ``local``); ``auto`` is ``pool``
    iff jobs resolve above 1.  ``workers`` spawns standalone worker
    processes, the one mode that survives a SIGKILLed worker.  Returns
    the :func:`drain_store` counters (summed over workers).
    """
    mode = policy.resolved_dispatch()
    if mode == "workers":
        from repro.sweep.worker import coordinate

        return coordinate(
            store, sweep, policy, mine=mine, warmup=warmup, sample=sample,
            echo=echo, progress=progress,
        )
    jobs = 1
    if mode == "pool":
        jobs = policy.resolved_jobs()
        if jobs <= 1:
            jobs = os.cpu_count() or 1
    return drain_store(
        store,
        sweep,
        policy.merged(jobs=jobs),
        mine=mine,
        owner=worker_token(),
        warmup=warmup,
        sample=sample,
        echo=echo,
        progress=progress,
    )
