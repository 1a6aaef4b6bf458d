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

:class:`KeyedStore` is the entry format and bookkeeping this cache shares
with the warmup :class:`~repro.harness.checkpoint.CheckpointStore`.
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
        return render_config(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return None


#: types :func:`render_config` passes through without a :func:`_plain` call
_SCALARS = frozenset((int, float, str, bool, type(None)))


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(cls))


def render_config(config) -> dict:
    """Canonical JSON-compatible form of a dataclass instance (a config).

    One entry per field, in field order, each value rendered by
    :func:`_plain` (scalars pass through as they are).  This is the
    single config rendering behind :func:`task_key`,
    :func:`~repro.harness.checkpoint.arch_key` and the sweep store's
    ``config`` column.  It equals ``_plain(dataclasses.asdict(config))``
    without the deep copy ``asdict`` makes of every field.
    """
    out = {}
    for name in _field_names(type(config)):
        value = getattr(config, name)
        out[name] = value if type(value) in _SCALARS else _plain(value)
    return out


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


#: canonical JSON: sorted keys, no whitespace, ASCII only
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
#: a string's canonical JSON rendering (what ``_canonical`` emits for one)
_string = json.encoder.encode_basestring_ascii


def canonical_hash(payload: dict) -> str:
    """SHA-256 hex digest of ``payload`` rendered as canonical JSON.

    The one hashing rule behind every store key (:func:`task_key`,
    :func:`~repro.harness.checkpoint.arch_key`).
    """
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def _number(value) -> str:
    """``value``'s canonical JSON rendering, without an encoder for an int."""
    return int.__repr__(value) if type(value) is int else _canonical(value)


def key_template(spec) -> tuple[str, str, str] | None:
    """The constant text of every :func:`task_key` payload ``spec`` takes part in.

    A task key hashes the canonical JSON of one payload (see
    :func:`canonical_hash`) whose keys sort as ``code``, ``config``,
    ``length``, [``observe``], ``predictor``, [``sample``], ``seed``,
    ``selector``, [``warmup``], ``workload``.  Only the code version,
    length, seed and workload vary between a spec's tasks; the three
    strings returned are the rendered text between them — after the
    code version, after the length and after the seed — so
    :func:`task_key` splices the four rendered values in.  ``None``
    when the predictor, selector or config cannot be described stably.
    """
    predictor = describe_factory(spec.predictor_factory)
    selector = describe_factory(spec.selector_factory)
    if predictor is None or selector is None:
        return None
    try:
        config = spec.rendered_config
    except TypeError:
        return None
    # observed runs carry extended metrics in their stats; keying them
    # separately keeps plain runs serving plain (smaller) entries
    observe = ',"observe":true' if spec.observe else ""
    # interval-protocol axes enter the key only when active, so every key
    # minted before warmup/sampling existed still resolves unchanged
    sample = "" if spec.sample is None else ',"sample":' + _number(spec.sample)
    warmup = ',"warmup":' + _number(spec.warmup) if spec.warmup else ""
    return (
        ',"config":' + _canonical(config) + ',"length":',
        observe + ',"predictor":' + _canonical(predictor) + sample + ',"seed":',
        ',"selector":' + _canonical(selector) + warmup + ',"workload":',
    )


def task_key(workload_name: str, spec, length: int, seed: int) -> str | None:
    """Cache key for one ``(workload, RunSpec, length, seed)`` simulation.

    :func:`canonical_hash` of the payload naming the workload, the
    spec's rendered config, predictor, selector and protocol, the
    length, the seed and :func:`code_version`.  The spec's constant part
    is its :attr:`~repro.harness.runner.RunSpec.key_template`, rendered
    once per spec; each call renders only the four values that vary and
    hashes the joined text.  Returns ``None`` when any ingredient cannot
    be described stably.
    """
    template = spec.key_template
    if template is None:
        return None
    after_code, after_length, after_seed = template
    blob = "".join((
        '{"code":', _string(code_version()), after_code, _number(length),
        after_length, _number(seed), after_seed, _string(workload_name), "}",
    ))
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


class KeyedStore:
    """Directory of ``<key><suffix>`` entries, one stored value each.

    The one entry format every keyed store shares: a blake2b digest of
    the encoded body, then the body.  A subclass supplies only the file
    suffix, its default directory and a codec (``_encode`` to bytes,
    ``_decode`` back, returning ``None`` for a body it cannot decode).  :meth:`get` verifies the
    digest before decoding, so a damaged entry — truncated by a killed
    writer, edited, or damaged on disk — is a miss, never a wrong value,
    and it is discarded so the key re-fills cleanly.

    Counters (``hits``/``misses``/``stores``) track this instance's
    traffic; tests and campaign summaries read them.  Safe to share
    between threads and between processes: entries land via atomic
    rename, a vanished entry is an ordinary miss, and the counters are
    updated under a lock.  ``_read``/``_write``/``_discard`` are the only
    storage primitives :meth:`get` and :meth:`put` use, so a store can
    keep its entries somewhere other than files.
    """

    #: file-name suffix of this store's entries
    suffix = ""
    #: bytes of the blake2b digest that opens each entry
    _DIGEST_SIZE = hashlib.blake2b().digest_size

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = (
            Path(directory) if directory is not None else self.default_directory()
        )
        self.directory.mkdir(parents=True, exist_ok=True)
        self._init_counters()

    def _init_counters(self) -> None:
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: bytes covered by the last :meth:`prune` call (evicted, or — under
        #: ``dry_run`` — merely reported as evictable)
        self.last_prune_bytes = 0

    @classmethod
    def resolve(cls, value, env: str):
        """Normalize the store argument harness entry points accept.

        ``None`` consults ``$env`` (unset means no store); ``False`` means
        no store; a string/path opens one there; a store passes through.
        """
        if value is None:
            value = os.environ.get(env, "").strip() or False
        if value is False:
            return None
        if isinstance(value, cls):
            return value
        if isinstance(value, (str, Path)):
            return cls(value)
        raise TypeError(
            f"expected None, False, a path or a {cls.__name__}, not {value!r}"
        )

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}{self.suffix}"

    def _read(self, key: str) -> bytes | None:
        # a plain path string: a hit builds no Path object
        try:
            with open(os.path.join(self.directory, key + self.suffix), "rb") as handle:
                return handle.read()
        except OSError:
            return None

    def _write(self, key: str, framed: bytes) -> None:
        atomic_write(self._path(key), framed)

    def _discard(self, key: str) -> None:
        try:
            self._path(key).unlink()
        except OSError:
            pass

    def get(self, key: str):
        """The value stored under ``key``, or None (a damaged entry is a miss).

        A concurrent pruner may remove the entry at any point here — that
        is an ordinary miss.  An entry that exists but is short, fails its
        digest or does not decode is a miss *and* is discarded; no damaged
        byte ever reaches the decoder.  Every hit decodes a fresh value,
        so no two callers share a mutable object.
        """
        return self._lookup(key, self._decode)

    def _lookup(self, key: str, decode):
        """:meth:`get` with ``decode`` in place of :meth:`_decode`."""
        found = self._verified(key)
        value = None if found is None else decode(found[1])
        if found is not None and value is None:
            self._discard(key)
        self._tally(value is not None)
        return value

    def _verified(self, key: str) -> tuple[bytes, memoryview] | None:
        """``(digest, body)`` of the entry under ``key``; None when there
        is none, or when it is short or fails its digest (then it is
        discarded)."""
        framed = self._read(key)
        if framed is None:
            return None
        view = memoryview(framed)  # slices without copying the body
        body = view[self._DIGEST_SIZE:]
        digest = hashlib.blake2b(body).digest()
        if digest != view[: self._DIGEST_SIZE]:
            self._discard(key)
            return None
        return digest, body

    def _tally(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    def put(self, key: str, value) -> bytes:
        """Store ``value`` under ``key`` (atomic rename, last writer wins);
        returns the entry's digest.

        Tolerates the store directory itself disappearing underneath us
        (an aggressive concurrent pruner): it is recreated and the write
        retried once.
        """
        body = self._encode(value)
        digest = hashlib.blake2b(body).digest()
        self._write(key, digest + body)
        with self._lock:
            self.stores += 1
        return digest

    def absorb(self, hits: int, misses: int, stores: int) -> None:
        """Add traffic another handle on this directory saw (a pool
        worker's) to this instance's counters."""
        with self._lock:
            self.hits += hits
            self.misses += misses
            self.stores += stores

    def _files(self):
        return self.directory.glob(f"*{self.suffix}")

    def prune(
        self,
        *others: "KeyedStore",
        max_bytes: int | None = None,
        max_age_days: float | None = None,
        now: float | None = None,
        dry_run: bool = False,
    ) -> int:
        """Evict old entries of this store and ``others``; returns how many.

        All the stores' entries share one budget.  Entries older than
        ``max_age_days`` (by mtime) go first; then, if the entries still
        total more than ``max_bytes``, the least recently stored
        survivors are evicted until they fit (LRU by mtime — :meth:`get`
        does not bump mtimes, so recency here means recency of *storage*,
        which is the right order for campaign-style usage where whole
        sweeps age out together).  ``now`` is a test hook.

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
        for store in (self, *others):
            for path in store._files():
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
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self._files():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self._files())

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({str(self.directory)!r}, hits={self.hits}, "
            f"misses={self.misses}, stores={self.stores})"
        )


def stats_text(stats: SimStats) -> str:
    """The one JSON text of a :class:`SimStats`: sorted :meth:`~SimStats.to_dict`.

    A :class:`ResultCache` entry's body and the sweep store's ``stats``
    column are this text, so a cache hit reaches the store as it is.
    """
    return json.dumps(stats.to_dict(), sort_keys=True)


def _utf8(body: memoryview) -> str | None:
    try:
        return str(body, "utf-8")
    except UnicodeDecodeError:
        return None


class ResultCache(KeyedStore):
    """Directory of ``<key>.json`` entries, one :class:`SimStats` each.

    The body is :func:`stats_text`; the ``hits``/``misses``/``stores``
    counters let tests assert that repeated experiments trigger zero new
    simulations.
    """

    suffix = ".json"
    default_directory = staticmethod(default_cache_dir)

    def get(self, key: str, *, text: bool = False):
        """The :class:`SimStats` under ``key``, or None (see :meth:`KeyedStore.get`).

        With ``text=True`` a hit is the entry's body as a string — its
        :func:`stats_text`, digest-verified but never parsed — which the
        sweep drain commits to the store as it is.
        """
        return self._lookup(key, _utf8 if text else self._decode)

    @staticmethod
    def _encode(stats: SimStats) -> bytes:
        return stats_text(stats).encode()

    @staticmethod
    def _decode(body: memoryview) -> SimStats | None:
        try:
            return SimStats.from_dict(json.loads(bytes(body)))
        except (ValueError, KeyError, TypeError, AttributeError):
            return None
