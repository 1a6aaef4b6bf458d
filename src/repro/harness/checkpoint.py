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
restore it and go straight to the timed region.  The store is a
:class:`~repro.harness.cache.KeyedStore` of pickles, inside the result
cache by default (:func:`default_checkpoint_dir`): the same
digest-framed entries, counters and damaged-entry-is-a-miss rule.

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

import os
import pickle
from collections import OrderedDict
from pathlib import Path

from repro.harness.cache import (
    KeyedStore,
    canonical_hash,
    code_version,
    default_cache_dir,
    describe_factory,
    render_config,
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
    fields = render_config(config)
    payload = {
        "workload": workload_name,
        "seed": seed,
        "warmup": warmup,
        "measured": measured,
        "predictor": predictor,
        "config": {name: fields[name] for name in ARCH_CONFIG_FIELDS},
        "code": code_version(),
    }
    return canonical_hash(payload)


class CheckpointStore(KeyedStore):
    """Directory of ``<key>.ckpt`` entries, one pickled arch snapshot each.

    The sweep runner reports the ``hits``/``misses``/``stores`` counters,
    so a campaign shows how many points reused a warmup instead of
    re-running it.
    """

    suffix = ".ckpt"
    default_directory = staticmethod(default_checkpoint_dir)

    @staticmethod
    def _encode(payload: dict) -> bytes:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def _decode(body: memoryview) -> dict | None:
        try:
            return pickle.loads(body)
        except _UNPICKLING_ERRORS:  # a verified blob from another code version
            return None


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
    """The ``checkpoints`` argument harness entry points accept.

    :meth:`~repro.harness.cache.KeyedStore.resolve` on
    ``$REPRO_CHECKPOINT_DIR``: unset means no store, so each run falls
    back to :data:`MEMORY_CHECKPOINTS`.
    """
    return CheckpointStore.resolve(checkpoints, "REPRO_CHECKPOINT_DIR")


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
