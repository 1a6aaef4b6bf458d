"""Persistent SQLite results store backing sweep campaigns.

One row per ``(sweep, point_id, seed)`` — the full resolved recipe, the
resolved :class:`~repro.core.MachineConfig`, the
:class:`~repro.core.SimStats` digest, a status
(``pending``/``running``/``done``/``failed``), the attempt count, wall
time and code version.  The store is what makes campaigns *resumable*:
re-launching an interrupted sweep re-inserts its rows with ``INSERT OR
IGNORE`` (done rows keep their results), asks :meth:`ResultStore.runnable`
for what is left, and simulates only that.

A single database file can hold many sweeps (rows are keyed by sweep
name); the default location is ``<spec>.db`` next to the spec file, so a
campaign and its results travel together.

Concurrency model (DESIGN.md §5g): the store is safe to share between
threads of one process *and* between processes holding their own
:class:`ResultStore` on the same path.  One connection per store, opened
with ``check_same_thread=False`` and serialized behind an internal lock;
WAL journaling plus a ``busy_timeout`` make cross-process writers queue
instead of raising ``database is locked``; and ownership of a row is
taken through :meth:`claim` — a conditional single-statement ``UPDATE``
whose rowcount decides the winner — so two workers can never both run the
same ``(point, seed)``.  Live claims advertise themselves through
``updated_at`` heartbeats (:meth:`touch`); a claim only becomes stealable
again once its heartbeat is older than the caller's ``stale_after``
window.

Two refinements make the model hold up when several processes drain one
store (DESIGN.md §5i):

* **Database-side clock.**  Staleness cutoffs and heartbeat stamps are
  computed by SQLite *at statement execution time* (:data:`_NOW`), never
  from a Python ``time.time()`` sampled earlier.  A Python-side stamp
  can be arbitrarily old by the time the statement runs — a claim
  blocked a while behind the write lock would otherwise carry a cutoff
  from *before* a live worker's latest heartbeat and steal its row.
  With the SQL clock, a ``touch()`` that committed before the claim
  executes is always visible to the claim's staleness predicate.

* **Owner tokens.**  Every lease has an owner: :meth:`claim` records
  who holds it, and the commit-side methods (:meth:`touch`,
  :meth:`mark_done`, :meth:`mark_failed`) take the same token, fire only
  for the lease's owner, and report whether they fired.  A worker whose
  lease was reclaimed mid-run cannot double-commit: its ``mark_done``
  misses (wrong owner) and the reclaiming worker's commit is the only
  one.  The ``commits`` column
  counts landed commits per row, so *every done row has exactly one
  commit* is a checkable invariant, not an article of faith.
"""

from __future__ import annotations

import sqlite3
import threading
from pathlib import Path

import json

#: the legal row states, in lifecycle order
STATUSES = ("pending", "running", "done", "failed")

#: wall-clock seconds since the epoch, evaluated by SQLite when the
#: statement runs (julian day 2440587.5 is 1970-01-01T00:00Z) — immune to
#: the sampled-too-early races a Python-side timestamp invites
_NOW = "((julianday('now') - 2440587.5) * 86400.0)"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    sweep        TEXT    NOT NULL,
    point_id     TEXT    NOT NULL,
    seed         INTEGER NOT NULL,
    role         TEXT    NOT NULL DEFAULT 'point',
    idx          INTEGER NOT NULL DEFAULT 0,
    workload     TEXT    NOT NULL,
    length       INTEGER NOT NULL,
    params       TEXT    NOT NULL,
    config       TEXT,
    status       TEXT    NOT NULL DEFAULT 'pending',
    attempts     INTEGER NOT NULL DEFAULT 0,
    stats        TEXT,
    error        TEXT,
    wall_seconds REAL    NOT NULL DEFAULT 0.0,
    code_version TEXT,
    updated_at   REAL    NOT NULL DEFAULT 0.0,
    owner        TEXT,
    commits      INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (sweep, point_id, seed)
);
CREATE INDEX IF NOT EXISTS idx_results_status ON results (sweep, status);
"""

#: columns added after the v1 schema shipped; existing databases are
#: migrated in place on open
_MIGRATIONS = {
    "owner": "ALTER TABLE results ADD COLUMN owner TEXT",
    "commits": (
        "ALTER TABLE results ADD COLUMN commits INTEGER NOT NULL DEFAULT 0"
    ),
}

#: SQL fragment selecting rows still owed a simulation; parameters are
#: (retries, stale_after, stale_after) in that order — the staleness
#: cutoff is ``now - stale_after`` with *now* read from the SQL clock
_RUNNABLE = (
    "(status = 'pending'"
    " OR (status = 'failed' AND attempts <= ?)"
    f" OR (status = 'running' AND (? IS NULL OR updated_at < {_NOW} - ?)))"
)

#: SQL fragment gating commit-side updates on lease ownership; its one
#: parameter is the caller's owner token
_OWNED = "owner = ?"


class ResultStore:
    """A sweep results database (see the module docstring for the model)."""

    def __init__(self, path: str | Path, busy_timeout: float = 30.0) -> None:
        self.path = Path(path)
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        #: serializes every use of the shared connection; RLock so helper
        #: methods can call each other while held
        self._lock = threading.RLock()
        self._db = sqlite3.connect(
            self.path, timeout=busy_timeout, check_same_thread=False
        )
        self._db.row_factory = sqlite3.Row
        with self._lock:
            try:
                # WAL lets readers proceed while a writer commits; harmless
                # to request on every open (a no-op once set), and some
                # filesystems refuse it — plain rollback journal then
                self._db.execute("PRAGMA journal_mode=WAL")
            except sqlite3.DatabaseError:
                pass
            self._db.execute(f"PRAGMA busy_timeout={int(busy_timeout * 1000)}")
            self._db.executescript(_SCHEMA)
            have = {
                row[1]
                for row in self._db.execute("PRAGMA table_info(results)")
            }
            for column, ddl in _MIGRATIONS.items():
                if column not in have:
                    self._db.execute(ddl)
            self._db.commit()

    def close(self) -> None:
        with self._lock:
            self._db.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def ensure(self, sweep: str, rows: list[dict]) -> int:
        """Insert missing rows as ``pending``; existing rows are untouched.

        Each row dict needs ``point_id``, ``seed``, ``workload``,
        ``length``, ``params`` (a JSON-serializable recipe) and optionally
        ``role``/``idx``.  Returns how many rows were newly inserted.
        """
        with self._lock:
            before = self._db.total_changes
            with self._db:  # one transaction for the whole batch
                self._db.executemany(
                    "INSERT OR IGNORE INTO results "
                    "(sweep, point_id, seed, role, idx, workload, length,"
                    " params, status, updated_at) "
                    f"VALUES (?, ?, ?, ?, ?, ?, ?, ?, 'pending', {_NOW})",
                    [
                        (
                            sweep,
                            row["point_id"],
                            row["seed"],
                            row.get("role", "point"),
                            row.get("idx", 0),
                            row["workload"],
                            row["length"],
                            json.dumps(row["params"], sort_keys=True, default=str),
                        )
                        for row in rows
                    ],
                )
            return self._db.total_changes - before

    def runnable(
        self, sweep: str, retries: int = 0, stale_after: float | None = None
    ) -> list[sqlite3.Row]:
        """Rows still owed a simulation, in campaign (idx, seed) order.

        ``pending`` rows, ``failed`` rows with retry budget left
        (``attempts <= retries``, i.e. ``retries`` extra attempts after
        the first failure), and ``running`` rows whose claim has gone
        stale.  ``stale_after=None`` (the historical single-campaign
        default) treats *every* running row as a crashed claim;
        concurrent campaigns pass a window in seconds so rows whose
        owner heartbeat within the window are left alone.
        """
        with self._lock:
            return self._db.execute(
                f"SELECT * FROM results WHERE sweep = ? AND {_RUNNABLE} "
                "ORDER BY idx, point_id, seed",
                (sweep, retries, stale_after, stale_after or 0.0),
            ).fetchall()

    def claim(
        self,
        sweep: str,
        keys: list[tuple[str, int]],
        retries: int = 0,
        stale_after: float | None = None,
        *,
        owner: str,
    ) -> list[tuple[str, int]]:
        """Atomically take ownership of rows; returns the keys actually won.

        Each key is claimed with a conditional ``UPDATE`` that only fires
        while the row is still runnable (same predicate as
        :meth:`runnable`), so when several workers race for one row the
        rowcount names exactly one winner — the losers simply get a
        shorter list back and must not run those keys.  Claiming
        increments the attempt count, records ``owner`` on the lease, and
        stamps ``updated_at``, which doubles as the claim's first
        heartbeat.  Both the stamp and the staleness cutoff come from the
        SQL clock (:data:`_NOW`), so a heartbeat that landed while this
        claim waited for the write lock is never mistaken for stale.
        """
        claimed: list[tuple[str, int]] = []
        with self._lock, self._db:
            for pid, seed in keys:
                cursor = self._db.execute(
                    "UPDATE results SET status = 'running', "
                    f"attempts = attempts + 1, owner = ?, updated_at = {_NOW} "
                    f"WHERE sweep = ? AND point_id = ? AND seed = ? AND {_RUNNABLE}",
                    (owner, sweep, pid, seed,
                     retries, stale_after, stale_after or 0.0),
                )
                if cursor.rowcount:
                    claimed.append((pid, seed))
        return claimed

    def touch(
        self,
        sweep: str,
        keys: list[tuple[str, int]],
        *,
        owner: str,
    ) -> int:
        """Heartbeat: refresh ``updated_at`` on still-running claims.

        A worker grinding through a slow point touches its rows
        periodically so a concurrent resume (using a ``stale_after``
        window) cannot mistake them for a crashed claim and steal them.
        Rows that left ``running`` (the worker committed, or someone did
        steal them) are deliberately not revived, and only ``owner``'s
        own leases are refreshed — a worker whose row was reclaimed must
        not keep the thief's lease warm.
        Returns how many leases were actually refreshed (a shortfall
        tells the worker it lost rows).
        """
        with self._lock, self._db:
            before = self._db.total_changes
            self._db.executemany(
                f"UPDATE results SET updated_at = {_NOW} WHERE sweep = ? "
                "AND point_id = ? AND seed = ? AND status = 'running' "
                f"AND {_OWNED}",
                [(sweep, pid, seed, owner) for pid, seed in keys],
            )
            return self._db.total_changes - before

    def running(
        self, sweep: str, stale_after: float | None = None
    ) -> list[sqlite3.Row]:
        """Rows currently claimed; with ``stale_after``, only live claims."""
        with self._lock:
            return self._db.execute(
                "SELECT * FROM results WHERE sweep = ? AND status = 'running' "
                f"AND (? IS NULL OR updated_at >= {_NOW} - ?) "
                "ORDER BY idx, point_id, seed",
                (sweep, stale_after, stale_after or 0.0),
            ).fetchall()

    def mark_done(
        self,
        sweep: str,
        key: tuple[str, int],
        stats: dict,
        config: dict | None = None,
        wall_seconds: float = 0.0,
        code_version: str | None = None,
        *,
        owner: str,
    ) -> bool:
        """Record a completed simulation's stats digest.

        The commit only lands while ``owner`` still holds the lease; a
        worker whose row was reclaimed gets ``False`` back and must treat
        the result as lost (the reclaimer re-simulates and commits
        instead — exactly once either way).
        Each landed commit increments the row's ``commits`` counter.
        """
        with self._lock, self._db:
            cursor = self._db.execute(
                "UPDATE results SET status = 'done', stats = ?, config = ?, "
                "error = NULL, wall_seconds = ?, code_version = ?, "
                f"commits = commits + 1, owner = NULL, updated_at = {_NOW} "
                "WHERE sweep = ? AND point_id = ? AND seed = ? "
                f"AND {_OWNED}",
                (
                    json.dumps(stats, sort_keys=True),
                    json.dumps(config, sort_keys=True, default=str)
                    if config else None,
                    wall_seconds,
                    code_version,
                    sweep,
                    key[0],
                    key[1],
                    owner,
                ),
            )
            return bool(cursor.rowcount)

    def mark_failed(
        self,
        sweep: str,
        key: tuple[str, int],
        error: str,
        *,
        owner: str,
    ) -> bool:
        """Record a failed attempt (the exception text, truncated sanely).

        Owner-conditional like :meth:`mark_done`: a reclaimed lease's
        late failure report is dropped (returns ``False``) instead of
        clobbering the reclaiming worker's live attempt.
        """
        with self._lock, self._db:
            cursor = self._db.execute(
                "UPDATE results SET status = 'failed', error = ?, "
                f"owner = NULL, updated_at = {_NOW} "
                "WHERE sweep = ? AND point_id = ? AND seed = ? "
                f"AND {_OWNED}",
                (error[:2000], sweep, key[0], key[1], owner),
            )
            return bool(cursor.rowcount)

    # ------------------------------------------------------------------
    def rows(self, sweep: str, role: str | None = None) -> list[sqlite3.Row]:
        """Every row of a sweep (optionally one role), in campaign order."""
        with self._lock:
            if role is None:
                return self._db.execute(
                    "SELECT * FROM results WHERE sweep = ? "
                    "ORDER BY idx, point_id, seed",
                    (sweep,),
                ).fetchall()
            return self._db.execute(
                "SELECT * FROM results WHERE sweep = ? AND role = ? "
                "ORDER BY idx, point_id, seed",
                (sweep, role),
            ).fetchall()

    def counts(self, sweep: str) -> dict[str, int]:
        """Row count per status (every status present, zeros included)."""
        out = {status: 0 for status in STATUSES}
        with self._lock:
            for status, n in self._db.execute(
                "SELECT status, COUNT(*) FROM results WHERE sweep = ? "
                "GROUP BY status",
                (sweep,),
            ):
                out[status] = n
        return out

    def commit_stats(self, sweep: str) -> dict[str, int]:
        """The exactly-once ledger for a sweep, as checkable numbers.

        ``done`` rows each received exactly one :meth:`mark_done` iff
        ``done == commits`` and ``max_commits <= 1`` — the invariant the
        crash-resume CI job greps for after killing and resuming a sweep.
        """
        with self._lock:
            done, commits, max_commits = self._db.execute(
                "SELECT COUNT(*), COALESCE(SUM(commits), 0), "
                "COALESCE(MAX(commits), 0) "
                "FROM results WHERE sweep = ? AND status = 'done'",
                (sweep,),
            ).fetchone()
        return {"done": done, "commits": commits, "max_commits": max_commits}

    def sweeps(self) -> list[str]:
        """Names of every sweep stored in this database."""
        with self._lock:
            return [
                name
                for (name,) in self._db.execute(
                    "SELECT DISTINCT sweep FROM results ORDER BY sweep"
                )
            ]

    def __len__(self) -> int:
        with self._lock:
            (n,) = self._db.execute("SELECT COUNT(*) FROM results").fetchone()
        return n

    def __repr__(self) -> str:
        return f"ResultStore({str(self.path)!r}, rows={len(self)})"
