"""Warmup checkpoint store: cached architectural state, shared across runs.

Functional fast-forward (:meth:`Engine.fast_forward`) skips the warmup
prefix of a trace, touching only *architectural* state — trace position,
branch history, cache/prefetcher contents, branch- and value-predictor
tables.  That state is a pure function of far fewer ingredients than a
full simulation result: the workload and seed, the warmup and measured
lengths (the warm start trains on the whole trace), the
value-predictor recipe, and only the *architecturally relevant* machine
axes (cache geometry and prefetcher parameters — not latencies, ports,
window sizes, selectors or simulation mode, none of which functional
warmup can observe).

So one warmup checkpoint serves every configuration in a sweep that
varies only timing axes: the first run fast-forwards and stores an
``scope="arch"`` engine snapshot under :func:`arch_key`; later runs
restore it and go straight to the timed region.  The store is a directory
of pickle files, a sibling of the result cache
(:func:`default_checkpoint_dir`), with the same hit/miss/store counters
for tests and campaign summaries.  Each file carries a digest of its
pickle, so a damaged file is a miss rather than a crash or a silently
different warmed state.

The same holds for ``warmup=0`` runs, whose warm start (steady-state
cache footprint plus predictor training passes) builds architectural
state too.  When no store is given, :meth:`~repro.harness.runner.RunSpec.run`
uses :data:`MEMORY_CHECKPOINTS`, a store whose digest-framed entries
live in a small in-process LRU, so a process warms each architecture
once: baseline, STVP and MTVP runs of one workload restore instead of
re-training.

The ``repro run --checkpoint/--restore`` CLI uses the single-file helpers
:func:`save_checkpoint` / :func:`load_checkpoint` instead of keyed
storage: an explicit file names its state, so the key ingredients are
recorded inside the file and validated on load.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import threading
from collections import OrderedDict
from pathlib import Path

from repro.harness.cache import (
    _plain,
    atomic_write,
    code_version,
    default_cache_dir,
    describe_factory,
)

#: MachineConfig fields that shape the architectural state a functional
#: fast-forward produces.  ``prefetch_fill_latency`` is here because
#: stream-buffer entries record their fill *times*, which embed it; plain
#: access latencies, MSHR counts, window/issue geometry and the simulation
#: mode are invisible to functional warmup and deliberately excluded so
#: checkpoints are shared across those axes.
ARCH_CONFIG_FIELDS = (
    "l1_size",
    "l1_assoc",
    "l2_size",
    "l2_assoc",
    "l3_size",
    "l3_assoc",
    "line_size",
    "prefetch_enabled",
    "prefetch_entries",
    "prefetch_streams",
    "prefetch_depth",
    "prefetch_fill_latency",
    "warm_caches",
)

#: file format marker for single-file checkpoints (``repro run``); version
#: 2 records the measured length, which version 1 files lack; version 3
#: holds the occupied-slot component encodings (snapshot version 2)
CHECKPOINT_FILE_VERSION = 3

#: bytes of the blake2b digest that opens each keyed ``<key>.ckpt`` file
_DIGEST_SIZE = hashlib.blake2b().digest_size

#: what ``pickle.loads`` raises on bytes that are not a loadable pickle:
#: damaged opcodes or lengths, or classes this code version lacks
_UNPICKLING_ERRORS = (
    pickle.UnpicklingError, EOFError, AttributeError, ImportError,
    IndexError, KeyError, TypeError, ValueError, MemoryError, OverflowError,
)


def default_checkpoint_dir() -> Path:
    """``$REPRO_CHECKPOINT_DIR``, else ``checkpoints/`` inside the cache dir."""
    env = os.environ.get("REPRO_CHECKPOINT_DIR")
    if env:
        return Path(env)
    return default_cache_dir() / "checkpoints"


def arch_key(
    workload_name: str, seed: int, warmup: int, spec, measured: int
) -> str | None:
    """Checkpoint key for one ``(workload, seed, warmup, RunSpec, measured)``.

    Only architectural ingredients participate (see the module
    docstring); two specs that differ in selector, mode or any timing
    axis map to the same key and share a checkpoint.  ``measured`` is the
    timed interval's length: the warm start trains on the whole
    ``warmup + measured`` trace, so the warmed state depends on it.
    ``warmup=0`` still keys the warm start (``config.warm_caches``).
    Returns ``None`` when there is no warmed state to share — no warmup
    and no warm start, or a multi-program mode, which has no single
    warmup stream — or when an ingredient cannot be described stably
    (lambda factories), mirroring :func:`~repro.harness.cache.task_key`.
    """
    from repro.core.modes import resolve_model

    predictor = describe_factory(spec.predictor_factory)
    if predictor is None:
        return None
    try:
        config = spec.config_factory()
    except TypeError:
        return None
    if not (warmup or config.warm_caches) or resolve_model(config.mode).multi_program:
        return None
    fields = dataclasses.asdict(config)
    payload = {
        "workload": workload_name,
        "seed": seed,
        "warmup": warmup,
        "measured": measured,
        "predictor": predictor,
        "config": {name: _plain(fields[name]) for name in ARCH_CONFIG_FIELDS},
        "code": code_version(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _frame(payload: dict) -> bytes:
    """A ``<key>.ckpt`` file's bytes: the pickle's digest, then the pickle."""
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.blake2b(blob).digest() + blob


def _unframe(framed: bytes) -> dict | None:
    """The payload of a :func:`_frame` file, or None if it is damaged."""
    view = memoryview(framed)  # slices without copying the pickle
    digest, blob = view[:_DIGEST_SIZE], view[_DIGEST_SIZE:]
    if len(digest) != _DIGEST_SIZE or hashlib.blake2b(blob).digest() != digest:
        return None
    try:
        return pickle.loads(blob)
    except _UNPICKLING_ERRORS:  # a verified blob from another code version
        return None


class CheckpointStore:
    """Directory of ``<key>.ckpt`` files, one arch snapshot each.

    A file is a blake2b digest of the pickled snapshot followed by the
    pickle; :meth:`get` verifies the digest before unpickling.

    Counters (``hits``/``misses``/``stores``) track this instance's
    traffic; the sweep runner reports them so a campaign shows how many
    points reused a warmup instead of re-running it.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = (
            Path(directory) if directory is not None else default_checkpoint_dir()
        )
        self.directory.mkdir(parents=True, exist_ok=True)
        self._init_counters()

    def _init_counters(self) -> None:
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.ckpt"

    # the three storage primitives; _MemoryCheckpoints keeps frames in an
    # LRU instead of files
    def _read(self, key: str) -> bytes | None:
        try:
            return self._path(key).read_bytes()
        except OSError:
            return None

    def _write(self, key: str, framed: bytes) -> None:
        atomic_write(self._path(key), framed)

    def _discard(self, key: str) -> None:
        try:
            self._path(key).unlink()
        except OSError:
            pass

    def get(self, key: str) -> dict | None:
        """Cached arch snapshot for ``key``, or None (corrupt = miss).

        A concurrently-removed file is an ordinary miss.  A file that
        exists but is short, fails its digest or fails to unpickle
        (truncated by a killed writer, or damaged on disk) is a miss
        *and* is deleted, so the slot re-warms cleanly instead of
        poisoning every later run that keys to it — and no damaged byte
        ever reaches ``pickle.loads`` or a restore.  Every hit unpickles
        a fresh payload, so no two restores share a mutable object.
        """
        framed = self._read(key)
        payload = None if framed is None else _unframe(framed)
        if framed is not None and payload is None:
            self._discard(key)
        with self._lock:
            if payload is None:
                self.misses += 1
            else:
                self.hits += 1
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Store an arch snapshot under ``key``."""
        self._write(key, _frame(payload))
        with self._lock:
            self.stores += 1

    def absorb(self, hits: int, misses: int, stores: int) -> None:
        """Add traffic another handle on this directory saw (a pool
        worker's) to this instance's counters."""
        with self._lock:
            self.hits += hits
            self.misses += misses
            self.stores += stores

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.ckpt"))

    def __repr__(self) -> str:
        return (
            f"CheckpointStore({str(self.directory)!r}, hits={self.hits}, "
            f"misses={self.misses}, stores={self.stores})"
        )


class _MemoryCheckpoints(CheckpointStore):
    """A :class:`CheckpointStore` whose frames live in an in-process LRU.

    The frames are the same digest-plus-pickle bytes a file holds, so a
    hit is verified and unpickled exactly like a file hit, and a damaged
    frame is a discarded miss.  Keeping bytes rather than payload dicts
    keeps an entry at its pickled size (0.2-0.6 MB on the suite, several
    times smaller than the unpickled dict) and makes sharing a mutable
    object between two restores impossible.  Only ``capacity``
    frames are kept; the least recently used one is dropped first.
    """

    def __init__(self, capacity: int) -> None:
        self.directory = None
        self.capacity = capacity
        self._frames: OrderedDict[str, bytes] = OrderedDict()
        self._init_counters()

    def _read(self, key: str) -> bytes | None:
        with self._lock:
            framed = self._frames.get(key)
            if framed is not None:
                self._frames.move_to_end(key)
            return framed

    def _write(self, key: str, framed: bytes) -> None:
        with self._lock:
            self._frames[key] = framed
            self._frames.move_to_end(key)
            while len(self._frames) > self.capacity:
                self._frames.popitem(last=False)

    def _discard(self, key: str) -> None:
        with self._lock:
            self._frames.pop(key, None)

    def __len__(self) -> int:
        # under the lock: _write inserts before it evicts, so an unlocked
        # read could see capacity + 1 frames
        with self._lock:
            return len(self._frames)


#: the store :meth:`~repro.harness.runner.RunSpec.run` uses when its caller
#: gives none: each process warms an architecture once and restores it for
#: every later run with the same :func:`arch_key`.  Two entries hold one
#: workload's baseline recipe and its value-predicting recipes (which
#: share one entry) while :func:`~repro.harness.parallel.run_simulations`
#: runs that workload's tasks back to back.
MEMORY_CHECKPOINTS = _MemoryCheckpoints(capacity=2)


def resolve_checkpoints(checkpoints) -> CheckpointStore | None:
    """Normalize the ``checkpoints`` argument harness entry points accept.

    ``None`` consults ``$REPRO_CHECKPOINT_DIR`` (unset means no store,
    so each run falls back to :data:`MEMORY_CHECKPOINTS`); ``False``
    disables the on-disk store; a string/path opens a
    :class:`CheckpointStore` there; a store passes through.
    """
    if checkpoints is None:
        env = os.environ.get("REPRO_CHECKPOINT_DIR", "").strip()
        return CheckpointStore(env) if env else None
    if checkpoints is False:
        return None
    if isinstance(checkpoints, CheckpointStore):
        return checkpoints
    if isinstance(checkpoints, (str, Path)):
        return CheckpointStore(checkpoints)
    raise TypeError(
        f"checkpoints must be None, False, a path or a CheckpointStore, "
        f"not {checkpoints!r}"
    )


# ----------------------------------------------------------------------
# single-file checkpoints (the `repro run --checkpoint/--restore` format)
# ----------------------------------------------------------------------
def save_checkpoint(
    path: str | Path, arch: dict, *, workload: str, seed: int, length: int
) -> None:
    """Write one arch snapshot plus its identity to an explicit file.

    ``length`` is the measured length; with the warmup it fixes the trace
    the warm start trained on (``warmup + length`` instructions).
    """
    payload = {
        "format": "repro-checkpoint",
        "version": CHECKPOINT_FILE_VERSION,
        "workload": workload,
        "seed": seed,
        "warmup": arch["pos"],
        "length": length,
        "code": code_version(),
        "arch": arch,
    }
    with Path(path).open("wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)


def load_checkpoint(
    path: str | Path,
    *,
    workload: str | None = None,
    seed: int | None = None,
    length: int | None = None,
) -> dict:
    """Read a :func:`save_checkpoint` file, validating its identity.

    A checkpoint is only meaningful on the trace that produced it, so a
    ``workload``/``seed``/measured ``length`` mismatch is an error, not a
    silent cold start (``None`` skips that check).
    A code-version mismatch is allowed (the snapshot schema is versioned
    separately) — the engine's own restore validation has the final say.
    """
    data = Path(path).read_bytes()
    try:
        payload = pickle.loads(data)
    except _UNPICKLING_ERRORS:  # truncated or not a pickle at all
        payload = None
    if (
        not isinstance(payload, dict)
        or payload.get("format") != "repro-checkpoint"
    ):
        raise ValueError(f"{path} is not a repro warmup checkpoint")
    if payload.get("version") != CHECKPOINT_FILE_VERSION:
        raise ValueError(
            f"unsupported checkpoint file version: {payload.get('version')!r}"
        )
    if workload is not None and payload["workload"] != workload:
        raise ValueError(
            f"checkpoint {path} was taken on workload "
            f"{payload['workload']!r}, not {workload!r}"
        )
    if seed is not None and payload["seed"] != seed:
        raise ValueError(
            f"checkpoint {path} was taken with seed {payload['seed']}, "
            f"not {seed}"
        )
    if length is not None and payload["length"] != length:
        raise ValueError(
            f"checkpoint {path} was taken with measured length "
            f"{payload['length']}, not {length}"
        )
    return payload
