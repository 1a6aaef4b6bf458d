"""Parallel fan-out of independent simulations, with optional caching.

Every simulation the harness runs is a pure function of its ``(workload,
RunSpec, length, seed)`` task, and :class:`~repro.harness.runner.RunSpec`
carries *factories* rather than instances, so tasks are embarrassingly
parallel: :func:`run_simulations` fans them out over a
``concurrent.futures.ProcessPoolExecutor`` and reassembles results in
task order, bit-identical to the serial path.

Caching composes with parallelism: tasks whose
:func:`~repro.harness.cache.task_key` hits the on-disk
:class:`~repro.harness.cache.ResultCache` never reach the pool, identical
pending tasks are deduplicated by key within a batch, and fresh results
are written back as workers complete — each only after it passes
:func:`~repro.core.stats.check_conservation`, so no cached entry breaks
conservation.

Pending tasks run grouped by their ``(workload, seed, length)`` family,
one family after another serially and one family per pool task, so a
family's runs warm each architecture once and restore it for the rest
(see :mod:`repro.harness.checkpoint`).

Execution settings (jobs/cache/checkpoints) are one
:class:`~repro.harness.policy.ExecutionPolicy` value; the ``REPRO_*``
environment defaults are documented in :mod:`repro.harness.policy`.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

from repro.core import ConservationError, SimStats, check_conservation
from repro.harness.cache import task_key
from repro.harness.checkpoint import CheckpointStore
from repro.harness.policy import ExecutionPolicy

__all__ = [
    "ExecutionPolicy",
    "SimulationError",
    "run_simulations",
]

#: one simulation request: (workload name, RunSpec, length, seed)
Task = tuple  # (str, RunSpec, int, int)


class SimulationError(RuntimeError):
    """One task of a batch failed; carries the failing task's identity.

    ``run_simulations`` raises this (``on_error="raise"``, the default)
    or returns it in the failing task's result slot (``on_error=
    "collect"``) so batch drivers — most prominently the sweep runner —
    can record the failure and keep the rest of the campaign alive.
    """

    def __init__(
        self,
        workload: str,
        spec_name: str,
        length: int,
        seed: int,
        cause: BaseException | str,
    ) -> None:
        self.workload = workload
        self.spec_name = spec_name
        self.length = length
        self.seed = seed
        self.cause = cause
        detail = cause if isinstance(cause, str) else f"{type(cause).__name__}: {cause}"
        super().__init__(
            f"simulation failed (workload={workload!r}, spec={spec_name!r}, "
            f"length={length}, seed={seed}): {detail}"
        )


def _run_task(
    spec, workload_name: str, length: int, seed: int, checkpoints=None
) -> SimStats:
    """One spec on one workload; ``checkpoints`` is a store or ``None``."""
    return spec.run(workload_name, length, seed, checkpoints=checkpoints)


def _run_family(members: list, ckpt_dir) -> tuple[list, tuple | None]:
    """Pool entry point: several tasks in order, in one worker (picklable).

    ``members`` are ``(workload, spec, length, seed)`` tasks that share a
    workload, seed and length, so the first run of each architecture
    warms and stores it and the rest restore it from the worker's store:
    the one on ``ckpt_dir`` (paths pickle, stores don't), else the
    worker's in-process :data:`~repro.harness.checkpoint.MEMORY_CHECKPOINTS`.
    Returns one outcome per member — its stats, or the exception it
    raised — and the ``(hits, misses, stores)`` traffic of the directory
    store, so the parent's store counts what its workers restored and
    stored.
    """
    store = CheckpointStore(ckpt_dir) if ckpt_dir is not None else None
    outcomes = []
    for workload_name, spec, length, seed in members:
        try:
            outcomes.append(_run_task(spec, workload_name, length, seed, store))
        except Exception as exc:
            outcomes.append(exc)
    if store is None:
        return outcomes, None
    return outcomes, (store.hits, store.misses, store.stores)


def _exit_with_parent(origin: int) -> None:
    """Pool initializer: end this child once process ``origin`` is gone.

    A SIGKILLed parent never shuts its pool down, and every forked child
    holds the call queue's write end, so it would wait on that queue
    forever; a daemon thread polling the parent ends it instead.  Under
    ``fork`` and ``spawn`` the child's parent is ``origin`` and is
    re-parented when it dies.  Under ``forkserver`` the parent is the
    fork server, which outlives ``origin`` for as long as its children
    do, so the thread also checks that ``origin`` itself still exists.
    """
    parent = os.getppid()

    def origin_alive() -> bool:
        try:
            os.kill(origin, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            pass
        return True

    def watch() -> None:
        while os.getppid() == parent and origin_alive():
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _pool_batches(families: list[list], n_jobs: int) -> list[list]:
    """One pool task per family, halving the largest while workers idle.

    A family is warmed once per batch it lands in, so families stay whole
    unless there are fewer of them than workers (a one-workload sweep).
    """
    batches = list(families)
    while 0 < len(batches) < n_jobs:
        i = max(range(len(batches)), key=lambda j: len(batches[j]))
        largest = batches[i]
        if len(largest) < 2:
            break
        half = len(largest) // 2
        batches[i : i + 1] = [largest[:half], largest[half:]]
    return batches


def run_simulations(
    tasks: list[Task],
    *,
    policy: ExecutionPolicy | None = None,
    on_error: str = "raise",
    progress=None,
    text_hits: bool = False,
) -> list[SimStats]:
    """Run every task, in parallel when ``jobs > 1``, consulting the cache.

    Args:
        tasks: ``(workload_name, spec, length, seed)`` tuples.
        policy: An :class:`~repro.harness.policy.ExecutionPolicy` bundling
            ``jobs`` (worker processes), ``cache`` (result cache),
            and ``checkpoints`` (warmup-checkpoint store for warmed
            specs).  Unset fields defer to the environment
            (``REPRO_JOBS`` etc.).
        on_error: ``"raise"`` (default) wraps the first task failure in a
            :class:`SimulationError` identifying the failing task and
            aborts the batch; ``"collect"`` instead places the
            :class:`SimulationError` in that task's result slot and keeps
            the remaining tasks running — the sweep runner's degraded mode.
        progress: Optional callback invoked as each task resolves with a
            dict of ``workload``/``spec``/``length``/``seed``, ``source``
            (``"cache"``, ``"sim"`` or ``"error"``) and the running
            ``completed``/``total`` counts.  Exceptions it raises are
            swallowed — progress reporting must never kill a batch.
        text_hits: Return each cache hit as its entry's
            :func:`~repro.harness.cache.stats_text` (a ``str``, never
            parsed) instead of a :class:`SimStats` — the sweep drain
            commits that text to its store as it is.

    Every fresh result must pass
    :func:`~repro.core.stats.check_conservation` against the task's
    measured length (its spec's ``sample``, else ``length``) before it is
    cached or returned; one that does not is that task's failure.

    Returns:
        One :class:`SimStats` per task, in task order (or a
        :class:`SimulationError` per failed task under ``"collect"``;
        the text of each cache hit under ``text_hits``).
        Results are independent of ``jobs`` and of cache hits/misses.
    """
    if on_error not in ("raise", "collect"):
        raise ValueError(f'on_error must be "raise" or "collect", not {on_error!r}')
    policy = policy if policy is not None else ExecutionPolicy()

    cache_obj = policy.resolved_cache()
    ckpt_store = policy.resolved_checkpoints()
    n_jobs = policy.resolved_jobs()

    results: list[SimStats | SimulationError | None] = [None] * len(tasks)
    keys: list[str | None] = [None] * len(tasks)
    completed = 0

    def report(indices: list[int], source: str) -> None:
        nonlocal completed
        completed += len(indices)
        if progress is None:
            return
        workload_name, spec, length, seed = tasks[indices[0]]
        try:
            progress({
                "workload": workload_name,
                "spec": getattr(spec, "name", "?"),
                "length": length,
                "seed": seed,
                "source": source,
                "completed": completed,
                "total": len(tasks),
            })
        except Exception:
            pass

    def fail(indices: list[int], exc: BaseException) -> None:
        workload_name, spec, length, seed = tasks[indices[0]]
        error = SimulationError(
            workload_name, getattr(spec, "name", "?"), length, seed, exc
        )
        if on_error == "raise":
            raise error from exc
        for i in indices:
            results[i] = error
        report(indices, "error")

    #: indices still needing a simulation, grouped so identical tasks
    #: (same key) run once and fan back out to every requesting index
    groups: dict[object, list[int]] = {}
    for i, (workload_name, spec, length, seed) in enumerate(tasks):
        try:
            key = (
                task_key(workload_name, spec, length, seed)
                if cache_obj is not None
                else None
            )
        except Exception as exc:
            # e.g. an invalid MachineConfig raising inside the factory
            # while the key is being derived: a per-task failure, not a
            # batch abort
            fail([i], exc)
            continue
        keys[i] = key
        if key is not None:
            hit = cache_obj.get(key, text=text_hits)
            if hit is not None:
                results[i] = hit
                report([i], "cache")
                continue
        # uncacheable tasks get a unique group: no key to prove identity
        groups.setdefault(key if key is not None else ("#", i), []).append(i)

    def finish(indices: list[int], stats: SimStats) -> None:
        _workload, spec, length, _seed = tasks[indices[0]]
        try:
            check_conservation(stats, spec.sample if spec.sample is not None else length)
        except ConservationError as exc:
            fail(indices, exc)
            return
        key = keys[indices[0]]
        if cache_obj is not None and key is not None:
            cache_obj.put(key, stats)
        for i in indices:
            results[i] = stats
        report(indices, "sim")

    #: pending groups by (workload, seed, length), in first-seen order:
    #: a family's runs share a trace and, per architecture, a warmed
    #: state, so running them back to back lets each restore the
    #: previous one's checkpoint from a small LRU
    families: dict[tuple, list[list[int]]] = {}
    for indices in groups.values():
        workload_name, _spec, length, seed = tasks[indices[0]]
        families.setdefault((workload_name, seed, length), []).append(indices)

    batches = _pool_batches(list(families.values()), n_jobs) if n_jobs > 1 else []
    if len(batches) > 1:
        with ProcessPoolExecutor(
            max_workers=min(n_jobs, len(batches)),
            initializer=_exit_with_parent,
            initargs=(os.getpid(),),
        ) as pool:
            ckpt_dir = (
                str(ckpt_store.directory)
                if ckpt_store is not None and ckpt_store.directory is not None
                else None
            )
            futures = {}
            for batch in batches:
                members = [tasks[indices[0]] for indices in batch]
                futures[pool.submit(_run_family, members, ckpt_dir)] = batch
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    batch = futures[future]
                    try:
                        outcomes, traffic = future.result()
                    except Exception as exc:
                        outcomes, traffic = [exc] * len(batch), None
                    if traffic is not None:
                        ckpt_store.absorb(*traffic)
                    for indices, outcome in zip(batch, outcomes):
                        if isinstance(outcome, BaseException):
                            fail(indices, outcome)
                        else:
                            finish(indices, outcome)
    else:
        for family in families.values():
            for indices in family:
                workload_name, spec, length, seed = tasks[indices[0]]
                try:
                    outcome = _run_task(
                        spec, workload_name, length, seed, ckpt_store
                    )
                except Exception as exc:
                    fail(indices, exc)
                else:
                    finish(indices, outcome)

    return results  # type: ignore[return-value]
