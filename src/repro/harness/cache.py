"""Content-addressed on-disk cache for simulation results.

Reproducing the full paper drives hundreds of independent simulations, and
many of them repeat across figures — most prominently the shared no-VP
baseline that every speedup is measured against.  Each run is a pure
function of ``(workload, machine config, predictor recipe, selector
recipe, trace length, seed)`` plus the simulator sources themselves, so
its :class:`~repro.core.SimStats` can be cached on disk under a stable
content hash and reused across experiments, processes and sessions.

Key scheme (see :func:`task_key`): the SHA-256 of a canonical JSON
rendering of

* the workload name,
* every field of the instantiated :class:`~repro.core.MachineConfig`,
* the predictor and selector factories (module-qualified name plus any
  ``functools.partial`` arguments),
* the trace length and seed,
* a *code version* — a hash over all ``repro`` sources, so any change to
  the simulator automatically invalidates every cached result.

Factories that cannot be described stably (lambdas, closures, instances
with hidden state) make the run uncacheable; :func:`task_key` returns
``None`` and the harness simply recomputes.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import tempfile
import threading
import time
from pathlib import Path

from repro.core import SimStats

_CODE_VERSION: str | None = None


def code_version() -> str:
    """Hash of every ``repro`` source file (computed once per process).

    Baked into each cache key, so editing the simulator — models, harness,
    workload generators — orphans stale entries instead of serving them.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME``/``~/.cache`` + ``repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def _plain(value):
    """Canonical JSON-compatible form of a config/factory argument."""
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _plain(dataclasses.asdict(value))
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return None


def describe_factory(factory) -> object | None:
    """Stable description of a predictor/selector/config factory.

    Classes, module-level functions and bound classmethods resolve to
    their qualified name; :class:`functools.partial` wrappers additionally
    record their bound arguments.  Returns ``None`` for anything without a
    stable identity (lambdas, local closures, arbitrary callables) —
    callers must then treat the run as uncacheable.
    """
    if isinstance(factory, functools.partial):
        inner = describe_factory(factory.func)
        if inner is None:
            return None
        args = [_plain(a) for a in factory.args]
        kwargs = {k: _plain(v) for k, v in sorted(factory.keywords.items())}
        if any(a is None for a in args) or any(v is None for v in kwargs.values()):
            return None
        return {"partial": inner, "args": args, "kwargs": kwargs}
    qualname = getattr(factory, "__qualname__", None)
    module = getattr(factory, "__module__", None)
    if not qualname or not module or "<locals>" in qualname or "<lambda>" in qualname:
        return None
    return f"{module}.{qualname}"


def task_key(workload_name: str, spec, length: int, seed: int) -> str | None:
    """Cache key for one ``(workload, RunSpec, length, seed)`` simulation.

    Returns ``None`` when any ingredient cannot be described stably.
    """
    predictor = describe_factory(spec.predictor_factory)
    selector = describe_factory(spec.selector_factory)
    if predictor is None or selector is None:
        return None
    try:
        config = spec.config_factory()
    except TypeError:
        return None
    payload = {
        "workload": workload_name,
        "config": _plain(dataclasses.asdict(config)),
        "predictor": predictor,
        "selector": selector,
        "length": length,
        "code": code_version(),
    }
    if getattr(spec, "observe", False):
        # observed runs carry extended metrics in their stats; keying them
        # separately keeps plain runs serving plain (smaller) entries
        payload["observe"] = True
    # interval-protocol axes enter the key only when active, so every key
    # minted before warmup/sampling existed still resolves unchanged
    warmup = getattr(spec, "warmup", 0)
    if warmup:
        payload["warmup"] = warmup
    sample = getattr(spec, "sample", None)
    if sample is not None:
        payload["sample"] = sample
    payload["seed"] = seed
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` by an atomic rename.

    A reader sees the old file or the new one, never a partial write.
    The temporary file is removed if the write fails.  If the directory
    has disappeared (a concurrent pruner or cleaner removed it), it is
    recreated and the write retried once.
    """
    directory = path.parent
    for attempt in (0, 1):
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        except FileNotFoundError:
            if attempt:
                raise
            directory.mkdir(parents=True, exist_ok=True)
            continue
        break
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultCache:
    """Directory of ``<key>.json`` files, one cached :class:`SimStats` each.

    Counters (``hits``/``misses``/``stores``) track this instance's
    traffic; tests use them to assert that repeated experiments trigger
    zero new simulations.

    Safe to share between threads (concurrent campaigns in one process
    may front one cache) and between processes: entries land via atomic
    rename, a vanished or truncated entry is a miss — corrupt files are
    additionally deleted so the re-simulated result can take their place
    — and the counters are updated under a lock.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.directory.mkdir(parents=True, exist_ok=True)
        self._counter_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: bytes covered by the last :meth:`prune` call (evicted, or — under
        #: ``dry_run`` — merely reported as evictable)
        self.last_prune_bytes = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def contains(self, key: str) -> bool:
        """Whether ``key`` currently has an entry (no counter traffic)."""
        return self._path(key).exists()

    def get(self, key: str) -> SimStats | None:
        """Cached stats for ``key``, or None (corrupt entries count as misses).

        A concurrent pruner may unlink the entry between any two steps
        here — that is an ordinary miss.  An entry that *exists* but does
        not parse (truncated write from a killed process, disk
        corruption) is also a miss, and is deleted so the key re-fills
        cleanly instead of failing every future lookup.
        """
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            with self._counter_lock:
                self.misses += 1
            return None
        try:
            stats = SimStats.from_dict(json.loads(text)["stats"])
        except (ValueError, KeyError, TypeError):
            try:
                path.unlink()
            except OSError:
                pass
            with self._counter_lock:
                self.misses += 1
            return None
        with self._counter_lock:
            self.hits += 1
        return stats

    def put(self, key: str, stats: SimStats) -> None:
        """Store ``stats`` under ``key`` (atomic rename, last writer wins).

        Tolerates the cache directory itself disappearing underneath us
        (an aggressive concurrent pruner): it is recreated and the write
        retried once.
        """
        payload = {"key": key, "stats": stats.to_dict()}
        atomic_write(self._path(key), json.dumps(payload).encode())
        with self._counter_lock:
            self.stores += 1

    def prune(
        self,
        max_bytes: int | None = None,
        max_age_days: float | None = None,
        now: float | None = None,
        dry_run: bool = False,
    ) -> int:
        """Evict old entries; returns how many files were removed.

        Entries older than ``max_age_days`` (by mtime) go first; then, if
        the directory still exceeds ``max_bytes``, the least recently
        touched survivors are evicted until it fits (LRU by mtime —
        :meth:`get` does not bump mtimes, so recency here means recency of
        *storage*, which is the right order for campaign-style usage where
        whole sweeps age out together).  ``now`` is a test hook.

        ``dry_run=True`` deletes nothing: the return value counts the
        entries that *would* go, and :attr:`last_prune_bytes` (set by
        every call) totals their sizes.
        """
        self.last_prune_bytes = 0
        if max_bytes is None and max_age_days is None:
            return 0
        if now is None:
            now = time.time()
        entries = []
        for path in self.directory.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()  # oldest first
        removed = 0

        def evict(path: Path, size: int) -> bool:
            nonlocal removed
            if not dry_run:
                try:
                    path.unlink()
                except FileNotFoundError:
                    # a concurrent pruner (or clear()) beat us to it; the
                    # bytes are gone either way, so count the eviction
                    pass
                except OSError:
                    return False
            removed += 1
            self.last_prune_bytes += size
            return True

        if max_age_days is not None:
            cutoff = now - max_age_days * 86400.0
            keep = []
            for mtime, size, path in entries:
                if mtime < cutoff:
                    evict(path, size)
                else:
                    keep.append((mtime, size, path))
            entries = keep
        if max_bytes is not None:
            total = sum(size for _, size, _ in entries)
            for mtime, size, path in entries:  # oldest first
                if total <= max_bytes:
                    break
                if evict(path, size):
                    total -= size
        return removed

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        removed = 0
        for path in self.directory.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))

    def __repr__(self) -> str:
        return (
            f"ResultCache({str(self.directory)!r}, hits={self.hits}, "
            f"misses={self.misses}, stores={self.stores})"
        )
