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
for tests and campaign summaries.

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
import tempfile
import threading
from pathlib import Path

from repro.harness.cache import (
    _plain,
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
#: 2 records the measured length, which version 1 files lack
CHECKPOINT_FILE_VERSION = 2


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
    Returns ``None`` when an ingredient cannot be described stably
    (lambda factories), mirroring :func:`~repro.harness.cache.task_key`.
    """
    if not warmup:
        return None
    predictor = describe_factory(spec.predictor_factory)
    if predictor is None:
        return None
    try:
        config = spec.config_factory()
    except TypeError:
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


class CheckpointStore:
    """Directory of ``<key>.ckpt`` pickles, one arch snapshot each.

    Counters (``hits``/``misses``/``stores``) track this instance's
    traffic; the sweep runner reports them so a campaign shows how many
    points reused a warmup instead of re-running it.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = (
            Path(directory) if directory is not None else default_checkpoint_dir()
        )
        self.directory.mkdir(parents=True, exist_ok=True)
        self._counter_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.ckpt"

    def get(self, key: str) -> dict | None:
        """Cached arch snapshot for ``key``, or None (corrupt = miss).

        A concurrently-removed file is an ordinary miss; a file that
        exists but fails to unpickle (truncated by a killed writer) is a
        miss *and* is deleted, so the slot re-warms cleanly instead of
        poisoning every later run that keys to it.
        """
        path = self._path(key)
        try:
            with path.open("rb") as handle:
                payload = pickle.load(handle)
        except OSError:
            with self._counter_lock:
                self.misses += 1
            return None
        except (pickle.UnpicklingError, EOFError, AttributeError,
                IndexError, ValueError):
            try:
                path.unlink()
            except OSError:
                pass
            with self._counter_lock:
                self.misses += 1
            return None
        with self._counter_lock:
            self.hits += 1
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Store an arch snapshot under ``key`` (atomic rename).

        Recreates the store directory if a concurrent cleaner removed it.
        """
        for attempt in (0, 1):
            try:
                fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            except FileNotFoundError:
                if attempt:
                    raise
                self.directory.mkdir(parents=True, exist_ok=True)
                continue
            break
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        with self._counter_lock:
            self.stores += 1

    def absorb(self, hits: int, misses: int, stores: int) -> None:
        """Add traffic another handle on this directory saw (a pool
        worker's) to this instance's counters."""
        with self._counter_lock:
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


def resolve_checkpoints(checkpoints) -> CheckpointStore | None:
    """Normalize the ``checkpoints`` argument harness entry points accept.

    ``None`` consults ``$REPRO_CHECKPOINT_DIR`` (unset means no store);
    ``False`` disables checkpointing outright; a string/path opens a
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
    with Path(path).open("rb") as handle:
        payload = pickle.load(handle)
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
