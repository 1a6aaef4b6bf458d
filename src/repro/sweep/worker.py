"""Standalone sweep workers and the coordinator that supervises them.

``python -m repro.sweep.worker`` is one worker process in a distributed
campaign (``--dispatch workers``).  It opens the shared
:class:`~repro.sweep.store.ResultStore`, then runs
:func:`~repro.sweep.drain.drain_store` under its own lease owner token:
lease a chunk of ``(point, seed)`` rows, heartbeat them while they
simulate, commit owner-conditionally, repeat until the sweep has nothing
left to run.  Workers need no spec file — every row carries its full
recipe in ``params``, from which
:func:`~repro.sweep.spec.run_spec_for` rebuilds the
:class:`~repro.harness.runner.RunSpec`.  On success the last stdout line
is a JSON counter object (simulated / retried / lost / shed / checkpoint
traffic).

:func:`coordinate` spawns ``N`` such processes over one store, passing
every execution setting explicitly on their command line (so a worker's
behaviour never depends on inherited ``REPRO_*`` environment variables),
watches their exits, respawns casualties while work remains (a bounded
budget prevents crash loops), and folds each worker's counter line into
one campaign-level counter dict.  The coordinator itself simulates
nothing.

Fault model: a worker that dies silently (SIGKILL, OOM) stops
heartbeating; its leases go stale after ``stale_after`` seconds and the
survivors reclaim them through the ordinary
:meth:`~repro.sweep.store.ResultStore.claim` path.  Owner-conditional
commits make the handover exactly-once, and the shared
:class:`~repro.harness.cache.ResultCache` usually remembers even the
killed worker's last group, so the reclaiming worker's retry is a cache
hit.  The respawn only restores *capacity*; correctness never depends on
it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.harness.policy import ExecutionPolicy
from repro.sweep.drain import drain_store, worker_token
from repro.sweep.store import ResultStore

#: seconds between the coordinator's supervision sweeps
POLL_SECONDS = 0.2

#: lease staleness window when the policy is silent — distributed
#: campaigns *must* run with one, unlike the single-process modes where
#: ``None`` (every running row presumed stale) is the historical default
DEFAULT_STALE_AFTER = 60.0

#: the counters a worker's summary line carries, summed by the coordinator
_COUNTERS = (
    "simulated", "retried", "lost", "shed",
    "ckpt_enabled", "ckpt_hits", "ckpt_stores",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep.worker",
        description="Lease and simulate rows of a sweep campaign.",
    )
    parser.add_argument("--db", required=True, help="shared results database")
    parser.add_argument("--sweep", required=True, help="sweep name in the db")
    parser.add_argument(
        "--worker-id", default=None,
        help="stable worker name (lease owner tokens derive from it)",
    )
    parser.add_argument(
        "--peers", type=int, default=1,
        help="total workers sharing the store (enables tail work-stealing)",
    )
    parser.add_argument("--jobs", default=None, help="processes per chunk")
    parser.add_argument(
        "--retries", type=int, default=None,
        help="extra attempts per failed row",
    )
    parser.add_argument(
        "--chunk", type=int, default=None, help="rows per commit batch"
    )
    parser.add_argument(
        "--stale-after", type=float, default=None,
        help="seconds before a silent claim counts as crashed",
    )
    parser.add_argument(
        "--heartbeat", type=float, default=None,
        help="seconds between lease touches while simulating",
    )
    parser.add_argument("--cache-dir", default=None, help="result cache dir")
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    parser.add_argument(
        "--checkpoint-dir", default=None, help="warmup checkpoint dir"
    )
    parser.add_argument(
        "--warmup", type=int, default=0,
        help="warmup instructions per reconstructed spec",
    )
    parser.add_argument(
        "--sample", type=int, default=None,
        help="measured-interval length per reconstructed spec",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        policy = ExecutionPolicy(
            jobs=args.jobs if args.jobs is not None else 1,
            retries=args.retries,
            chunk=args.chunk,
            stale_after=args.stale_after,
            heartbeat=args.heartbeat,
            cache=False if args.no_cache else args.cache_dir,
            checkpoints=args.checkpoint_dir,
        )
    except ValueError as exc:
        parser.error(str(exc))
    owner = worker_token(args.worker_id)
    echo = None if args.quiet else (
        lambda *parts: print(
            f"[{args.worker_id or owner}]", *parts, file=sys.stderr, flush=True
        )
    )
    with ResultStore(args.db) as store:
        counters = drain_store(
            store,
            args.sweep,
            policy,
            owner=owner,
            peers=max(1, args.peers),
            warmup=args.warmup,
            sample=args.sample,
            echo=echo,
        )
    # the coordinator parses this line; keep it last and keep it JSON
    print(json.dumps({"worker": args.worker_id or owner, **counters}))
    return 0


def _repro_pythonpath() -> str:
    """A PYTHONPATH guaranteeing workers can import this very ``repro``."""
    import repro

    src_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = os.environ.get("PYTHONPATH", "")
    if existing and src_root not in existing.split(os.pathsep):
        return src_root + os.pathsep + existing
    return existing or src_root


class _Worker:
    """One supervised worker subprocess and its captured stdout."""

    def __init__(self, worker_id: str, argv: list[str], env: dict) -> None:
        self.worker_id = worker_id
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.sweep.worker",
             "--worker-id", worker_id, *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        self.lines: list[str] = []
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        with self.proc.stdout:
            for line in self.proc.stdout:
                self.lines.append(line.rstrip("\n"))

    def counters(self) -> dict | None:
        """The final JSON counter line, if the worker got that far."""
        self._reader.join(timeout=2.0)
        for line in reversed(self.lines):
            if line.startswith("{"):
                try:
                    return json.loads(line)
                except ValueError:
                    continue
        return None


def coordinate(
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
    """Drain a campaign with ``policy.resolved_workers()`` worker processes.

    Respawns a worker that exits non-zero while rows remain, up to twice
    the worker count.  Returns the summed worker counters plus
    ``workers`` (processes spawned).

    Raises:
        ValueError: ``store`` is an in-memory database, which worker
            processes cannot share (each would open its own, empty one).
    """
    if str(store.path) == ":memory:":
        raise ValueError(
            "dispatch='workers' needs an on-disk ResultStore: worker "
            "processes cannot share an in-memory (':memory:') database"
        )
    say = echo if echo is not None else (lambda *_: None)
    n = max(1, policy.resolved_workers())
    budget = 2 * n
    retries = policy.retries if policy.retries is not None else 0
    stale_after = (
        policy.stale_after
        if policy.stale_after is not None
        else DEFAULT_STALE_AFTER
    )
    heartbeat = (
        policy.heartbeat
        if policy.heartbeat is not None
        else max(0.5, min(10.0, stale_after / 6.0))
    )
    cache_obj = policy.resolved_cache()
    ckpt_store = policy.resolved_checkpoints() if warmup else None

    argv = [
        "--db", str(store.path),
        "--sweep", sweep,
        "--peers", str(n),
        "--retries", str(retries),
        "--stale-after", str(stale_after),
        "--heartbeat", str(heartbeat),
        "--quiet",
    ]
    if policy.jobs is not None:
        argv += ["--jobs", str(policy.jobs)]
    if policy.chunk is not None:
        argv += ["--chunk", str(policy.chunk)]
    if cache_obj is not None:
        argv += ["--cache-dir", str(cache_obj.directory)]
    else:
        argv += ["--no-cache"]
    if ckpt_store is not None:
        argv += ["--checkpoint-dir", str(ckpt_store.directory)]
    if warmup:
        argv += ["--warmup", str(warmup)]
    if sample is not None:
        argv += ["--sample", str(sample)]
    env = dict(os.environ)
    env["PYTHONPATH"] = _repro_pythonpath()

    def work_remains() -> bool:
        return bool(
            store.runnable(sweep, retries, stale_after=stale_after)
            or store.running(sweep, stale_after=stale_after)
        )

    def done_among_mine() -> tuple[int, int]:
        rows = store.rows(sweep)
        if mine is not None:
            rows = [r for r in rows if (r["point_id"], r["seed"]) in mine]
        done = sum(1 for r in rows if r["status"] == "done")
        return done, len(rows)

    say(f"{sweep}: spawning {n} workers on {store.path}")
    alive = [_Worker(f"w{i}", argv, env) for i in range(n)]
    spawned = n
    finished: list[_Worker] = []
    last_done = -1

    while alive:
        still = []
        for worker in alive:
            code = worker.proc.poll()
            if code is None:
                still.append(worker)
                continue
            finished.append(worker)
            if code != 0:
                say(f"{sweep}: worker {worker.worker_id} exited with code {code}")
                if budget > 0 and work_remains():
                    budget -= 1
                    spawned += 1
                    say(f"{sweep}: respawning {worker.worker_id}")
                    still.append(_Worker(worker.worker_id, argv, env))
        alive = still
        if not alive and budget > 0 and work_remains():
            # every worker exited cleanly yet rows remain (e.g. they all
            # drained while a claim was live and gave up after a kill):
            # field one more to finish the tail
            budget -= 1
            alive.append(_Worker(f"w{spawned}", argv, env))
            spawned += 1
        if progress is not None:
            done, total = done_among_mine()
            if done != last_done:
                last_done = done
                try:
                    progress({"source": "workers", "completed": done, "total": total})
                except Exception:
                    pass
        if alive:
            time.sleep(POLL_SECONDS)

    totals = dict.fromkeys(_COUNTERS, 0)
    for worker in finished:
        counters = worker.counters()
        if counters is None:
            continue  # killed before its summary line: counts lost
        for key in _COUNTERS:
            totals[key] += int(counters.get(key, 0))
    totals["ckpt_enabled"] = int(bool(totals["ckpt_enabled"]))
    totals["workers"] = spawned
    return totals


if __name__ == "__main__":
    sys.exit(main())
