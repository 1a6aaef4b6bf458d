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
varies only timing axes: the first run fast-forwards and stores its
engine snapshot under :func:`arch_key`; later runs
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

This is the one on-disk format for warmed state: ``repro run`` keeps
it across invocations under ``$REPRO_CHECKPOINT_DIR`` exactly as
campaigns do under ``--checkpoint-dir``, so a damaged checkpoint is a
miss that re-warms, never a crash.

A hit is a warm template: the entry's payload with its cache sets
built once and shared copy-on-write by every restore of that entry.
Every store, in memory or on disk, holds the template of the entry it
last returned, so the next hits of that entry neither unpickle it nor
rebuild its sets.  A hit still reads the entry and checks its digest,
and gets the held template only when the digest is the template's; see
:class:`CheckpointStore`.
"""

from __future__ import annotations

import os
import pickle
from collections import OrderedDict
from pathlib import Path

from repro.core.engine.snapshot import shared
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
    """Directory of ``<key>.ckpt`` entries, one pickled arch snapshot each,
    plus one warm template in memory.

    :meth:`get` returns a warm template: the entry's payload with its
    caches' flat tags built into sets (:func:`~repro.core.engine.snapshot.shared`),
    which a restore adopts in O(sets) and copies set by set only where
    its run writes.  The store holds the template of the last entry it
    returned, keyed by that entry's verified digest, so later hits of the
    entry neither unpickle it nor build its sets.  :meth:`get` still
    reads the entry and verifies its digest first, so a damaged entry is
    a miss either way; any other lookup drops the held template before
    building another, so at most one architecture beyond the running one
    is resident.  :meth:`put` stores the flat payload and holds nothing.

    The sweep runner reports the ``hits``/``misses``/``stores`` counters,
    so a campaign shows how many points reused a warmup instead of
    re-running it.
    """

    suffix = ".ckpt"
    default_directory = staticmethod(default_checkpoint_dir)

    #: ``(digest, template)``: the warm template built from the entry
    #: with that verified digest
    _template: tuple[bytes, dict] | None = None

    def get(self, key: str) -> dict | None:
        """The warm template of the entry under ``key``, or None (a
        damaged entry is a discarded miss; see
        :class:`~repro.harness.cache.KeyedStore`).

        Hits of one entry return one template: callers share it and must
        only restore from it.  A payload that does not convert is a
        discarded miss, like one that does not unpickle.
        """
        found = self._verified(key)
        with self._lock:
            held, self._template = self._template, None
        template = None
        if found is not None:
            digest, body = found
            if held is not None and held[0] == digest:
                template = held[1]
            else:
                held = None  # freed before the next template is built
                template = self._decode(body)
                if template is None:
                    self._discard(key)
            if template is not None:
                with self._lock:
                    self._template = (digest, template)
        self._tally(template is not None)
        return template

    @staticmethod
    def _encode(payload: dict) -> bytes:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def _decode(body: memoryview) -> dict | None:
        """The warm template of a verified body, or None."""
        try:
            return shared(pickle.loads(body))
        except _UNPICKLING_ERRORS:  # a verified blob from another code version
            return None


class _MemoryCheckpoints(CheckpointStore):
    """A :class:`CheckpointStore` whose frames live in an in-process LRU.

    The frames are the same digest-plus-pickle bytes a file holds, so a
    hit is verified exactly like a file hit, and a damaged frame is a
    discarded miss.  Frames keep an entry at its pickled size (0.2-0.6 MB
    on the suite, several times smaller than the unpickled dict); only
    the store's one warm template is held live.  Only ``capacity``
    frames are kept; the least recently used one is dropped first, and a
    restore of an evicted entry is a miss even while its template is
    held.
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

