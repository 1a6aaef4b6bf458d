"""Engine checkpointing: the architectural warmup checkpoint.

A snapshot captures only long-lived *architectural* state (DESIGN.md
§5f): the root thread's trace position and branch history plus the cache
contents and the prefetcher, branch predictor and value predictor
tables.  It deliberately excludes all timing state — spawned threads,
spawn records, store-buffer contents, slot bookings, MSHR and in-flight
fills, component counters and the load selector, whose episodes are
timing measurements — which the timed run creates, so one checkpoint is
shared by every configuration that differs only in timing-state axes.

Payloads are versioned dicts of plain picklable types.  A snapshot is
taken before the timed run starts (after the warm start and any
``fast_forward``); restoring it into a fresh engine and running equals
running the engine it was taken from.
"""

from __future__ import annotations

from repro.memory import MemoryHierarchy

#: schema version for engine-level snapshot payloads; version 2 dropped
#: the ``scope`` tag and every component's counters and timing state
SNAPSHOT_VERSION = 2


def shared(payload: dict) -> dict:
    """An engine :meth:`~SnapshotMixin.snapshot` payload as a warm template.

    Its caches are in the :meth:`Cache.shared <repro.memory.Cache.shared>`
    form: one tuple of sets per cache, which every engine restoring the
    template adopts and copies a set of before its first write to it, so
    one template serves any number of restores.  Its branch,
    value-predictor and prefetcher entries are the payload's, which their
    restores copy.  It is never pickled.
    """
    return {**payload, "hierarchy": MemoryHierarchy.shared(payload["hierarchy"])}


class SnapshotMixin:
    """Serializes and restores the engine's architectural state."""

    def snapshot(self) -> dict:
        """Serialize the architectural state to a versioned picklable dict.

        The payload holds ``version``, the root's ``pos`` and ``bhist``,
        ``warmup_instructions`` and the ``hierarchy``, ``branch`` and
        ``predictor`` snapshots: tables and contents only, no counters.
        """
        if self._started:
            raise RuntimeError(
                "snapshot() requires an engine whose timed run has not "
                "started"
            )
        if len(self._alive_contexts()) != 1:
            raise RuntimeError("snapshots require a single-program engine")
        root = self._contexts[0]
        return {
            "version": SNAPSHOT_VERSION,
            "pos": root.pos,
            "bhist": root.bhist,
            "warmup_instructions": self.stats.warmup_instructions,
            "hierarchy": self.hierarchy.snapshot(),
            "branch": self.branch_predictor.snapshot(),
            "predictor": self.predictor.snapshot(),
        }

    def restore(self, data: dict) -> None:
        """Load a :meth:`snapshot` payload, or its :func:`shared` form,
        into this (freshly built) engine.

        The engine must have been constructed with the same trace and
        component classes as the one that produced the snapshot (timing
        axes may differ), and must not have run yet, so every component
        counter keeps the value the constructor gave it.  The cache sets
        are adopted in O(sets), copy-on-write.  A malformed payload raises
        :class:`ValueError`.
        """
        if self._started:
            raise RuntimeError("restore() requires a freshly built engine")
        if data.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported engine snapshot version: {data.get('version')!r}"
            )
        try:
            pos = data["pos"]
            if type(pos) is not int or not 0 <= pos < len(self.trace):
                raise ValueError(
                    f"snapshot position {pos!r} lies outside this engine's "
                    f"{len(self.trace)}-instruction trace"
                )
            root = self._contexts[0]
            root.pos = pos
            root.start_pos = pos
            root.bhist = data["bhist"]
            self.hierarchy.restore(data["hierarchy"])
            self.branch_predictor.restore(data["branch"])
            self.predictor.restore(data["predictor"])
            self.stats.warmup_instructions = data["warmup_instructions"]
        except (KeyError, TypeError, AttributeError, IndexError) as exc:
            # components name themselves; this catches the engine's own
            # fields and the components without a validating restore
            raise ValueError(f"malformed engine snapshot: {exc!r}") from None
