"""Engine checkpointing: full-state and architectural-only snapshots.

Two scopes, matching the architectural/timing state boundary the engine
package is organized around (DESIGN.md §5f):

* ``scope="full"`` captures *everything* — the whole context graph with
  its speculative threads and spawn records, every component's tables and
  contents, allocator bookings, pending measures, stats.  Restoring into a
  freshly built engine and resuming produces bit-identical results to the
  uninterrupted run; determinism tests rely on this.
* ``scope="arch"`` captures only long-lived *architectural* state — the
  root thread's trace position and branch history plus the cache
  hierarchy, branch predictor and value predictor tables.  This is the
  warmup-checkpoint format: it deliberately excludes all timing state
  (and the load selector, whose episodes are timing measurements), so one
  checkpoint is shared by every configuration that differs only in
  timing-state axes.

Payloads are versioned dicts of plain picklable types.  Snapshots are
taken between run segments (``run(max_steps=...)`` pauses between
instructions), never mid-step.
"""

from __future__ import annotations

from repro.core.config import SimMode
from repro.core.context import ThreadContext
from repro.core.engine.records import SpawnRecord
from repro.core.stats import SimStats

#: schema version for engine-level snapshot payloads
SNAPSHOT_VERSION = 1


class SnapshotMixin:
    """Serializes and restores engine state at the two supported scopes."""

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------
    def snapshot(self, scope: str = "full") -> dict:
        """Serialize engine state to a versioned picklable dict.

        Args:
            scope: ``"full"`` for an exact resumable checkpoint of the
                whole engine, ``"arch"`` for an architectural-only warmup
                checkpoint (see the module docstring for the contract).
        """
        if self._obs is not None:
            raise RuntimeError(
                "snapshot() does not support instrumented runs: the "
                "observability probe holds unserializable stream state"
            )
        if scope == "arch":
            return self._snapshot_arch()
        if scope == "full":
            return self._snapshot_full()
        raise ValueError(f"unknown snapshot scope: {scope!r}")

    def _snapshot_arch(self) -> dict:
        root = self._contexts[0]
        if root is None or root.speculative or len(self._alive_contexts()) != 1:
            raise RuntimeError(
                "arch snapshots require exactly the one non-speculative "
                "root context (take them before the timed run starts)"
            )
        if self._pending:
            raise RuntimeError("arch snapshots cannot carry pending spawns")
        return {
            "version": SNAPSHOT_VERSION,
            "scope": "arch",
            "pos": root.pos,
            "bhist": root.bhist,
            "warmup_instructions": self.stats.warmup_instructions,
            "hierarchy": self.hierarchy.snapshot(),
            "branch": self.branch_predictor.snapshot(),
            "predictor": self.predictor.snapshot(),
        }

    def _snapshot_full(self) -> dict:
        ctx_by_order = self._collect_context_graph()
        orders = sorted(ctx_by_order)
        # enumerate spawn records deterministically: records reachable from
        # contexts (in order-id order), then any still only on the heap
        rec_index: dict[int, int] = {}
        records: list[SpawnRecord] = []

        def note(rec: SpawnRecord | None) -> None:
            if rec is not None and id(rec) not in rec_index:
                rec_index[id(rec)] = len(records)
                records.append(rec)

        for order in orders:
            ctx = ctx_by_order[order]
            note(ctx.spawn_record_as_parent)
            note(ctx.spawn_record_as_child)
        for _t, _s, rec in self._pending:
            note(rec)

        contexts_payload = []
        for order in orders:
            ctx = ctx_by_order[order]
            entry = ctx.snapshot()
            entry["parent"] = None if ctx.parent is None else ctx.parent.order
            entry["children"] = [c.order for c in ctx.children]
            entry["rec_as_parent"] = (
                None
                if ctx.spawn_record_as_parent is None
                else rec_index[id(ctx.spawn_record_as_parent)]
            )
            entry["rec_as_child"] = (
                None
                if ctx.spawn_record_as_child is None
                else rec_index[id(ctx.spawn_record_as_child)]
            )
            contexts_payload.append(entry)

        records_payload = [
            {
                "resolve_time": rec.resolve_time,
                "parent": rec.parent.order,
                "children": [[c.order, v] for c, v in rec.children],
                "actual": rec.actual,
                "pc": rec.pc,
                "start_time": rec.start_time,
                "start_global": rec.start_global,
                "load_commit_time": rec.load_commit_time,
                "kind": rec.kind.value,
                "void": rec.void,
                "resolve_pos": rec.resolve_pos,
            }
            for rec in records
        ]

        return {
            "version": SNAPSHOT_VERSION,
            "scope": "full",
            # sanity anchors checked on restore
            "mode": self.config.mode.value,
            "trace_len": self._trace_len,
            "num_contexts": len(self._contexts),
            # run lifecycle
            "started": self._started,
            "finished": self._finished,
            "global_fetched": self._global_fetched,
            "next_order": self._next_order,
            "heap_seq": self._heap_seq,
            "finish_time": self._finish_time,
            "max_runnable_observed": self.max_runnable_observed,
            # context graph (serialized in heap order, which is preserved)
            "contexts": contexts_payload,
            "records": records_payload,
            "slots": [
                None if c is None else c.order for c in self._contexts
            ],
            "pending": [
                [t, seq, rec_index[id(rec)]] for t, seq, rec in self._pending
            ],
            "sb_waiters": [c.order for c in self._sb_waiters],
            "stats": self.stats.to_dict(),
            # components
            "hierarchy": self.hierarchy.snapshot(),
            "branch": self.branch_predictor.snapshot(),
            "store_buffer": self.store_buffer.snapshot(),
            "predictor": self.predictor.snapshot(),
            "selector": self.selector.snapshot(),
            # shared structural allocators
            "issue_groups": [g.snapshot() for g in self._issue_groups],
            "fetch_groups": [g.snapshot() for g in self._fetch_groups],
            "iq_groups": [
                {q: list(heap) for q, heap in group.items()}
                for group in self._iq_groups
            ],
            "rename_groups": [list(h) for h in self._rename_groups],
        }

    def _collect_context_graph(self) -> dict[int, ThreadContext]:
        """Every context reachable from the engine, keyed by unique order.

        Live contexts sit in the slot table, but retired parents stay
        reachable through spawn records on the pending heap and through
        parent/child links; a full checkpoint must carry them all.
        """
        found: dict[int, ThreadContext] = {}
        stack: list[ThreadContext] = [
            c for c in self._contexts if c is not None
        ]
        stack.extend(self._sb_waiters)
        for _t, _s, rec in self._pending:
            stack.append(rec.parent)
            stack.extend(c for c, _v in rec.children)
        while stack:
            ctx = stack.pop()
            if ctx.order in found:
                continue
            found[ctx.order] = ctx
            if ctx.parent is not None:
                stack.append(ctx.parent)
            stack.extend(ctx.children)
            for rec in (ctx.spawn_record_as_parent, ctx.spawn_record_as_child):
                if rec is not None:
                    stack.append(rec.parent)
                    stack.extend(c for c, _v in rec.children)
        return found

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------
    def restore(self, data: dict) -> None:
        """Load a :meth:`snapshot` payload into this (freshly built) engine.

        The engine must have been constructed with the same trace, config
        and component classes as the one that produced the snapshot, and
        must not have run yet.  A malformed payload raises
        :class:`ValueError`.
        """
        if self._started:
            raise RuntimeError("restore() requires a freshly built engine")
        if self._obs is not None:
            raise RuntimeError("restore() does not support instrumented runs")
        if data.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported engine snapshot version: {data.get('version')!r}"
            )
        scope = data.get("scope")
        if scope not in ("arch", "full"):
            raise ValueError(f"unknown snapshot scope: {scope!r}")
        try:
            if scope == "arch":
                self._restore_arch(data)
            else:
                self._restore_full(data)
        except (KeyError, TypeError, AttributeError, IndexError) as exc:
            # components name themselves; this catches the engine's own
            # fields and the components without a validating restore
            raise ValueError(f"malformed engine snapshot: {exc!r}") from None

    def _restore_arch(self, data: dict) -> None:
        if data["pos"] >= self._trace_len:
            raise ValueError(
                "arch snapshot position lies beyond this engine's trace"
            )
        root = self._contexts[0]
        root.pos = data["pos"]
        root.start_pos = data["pos"]
        root.bhist = data["bhist"]
        self.hierarchy.restore(data["hierarchy"])
        self.branch_predictor.restore(data["branch"])
        self.predictor.restore(data["predictor"])
        self.stats.warmup_instructions = data["warmup_instructions"]

    def _restore_full(self, data: dict) -> None:
        if data["trace_len"] != self._trace_len:
            raise ValueError("engine snapshot trace length mismatch")
        if data["mode"] != self.config.mode.value:
            raise ValueError("engine snapshot simulation mode mismatch")
        if data["num_contexts"] != len(self._contexts):
            raise ValueError("engine snapshot context count mismatch")

        # components first: a failure here leaves the engine unstarted
        self.hierarchy.restore(data["hierarchy"])
        self.branch_predictor.restore(data["branch"])
        self.store_buffer.restore(data["store_buffer"])
        self.predictor.restore(data["predictor"])
        self.selector.restore(data["selector"])
        for group, payload in zip(self._issue_groups, data["issue_groups"]):
            group.restore(payload)
        for group, payload in zip(self._fetch_groups, data["fetch_groups"]):
            group.restore(payload)
        self._iq_groups = [
            {q: list(heap) for q, heap in group.items()}
            for group in data["iq_groups"]
        ]
        self._rename_groups = [list(h) for h in data["rename_groups"]]

        # rebuild the context graph: shells first, then links
        ctx_by_order: dict[int, ThreadContext] = {}
        for entry in data["contexts"]:
            ctx = ThreadContext.from_snapshot(entry)
            # contexts persist their stream index, not the trace itself;
            # re-bind against this engine's (identical) trace list
            ctx.trace = self._traces[ctx.stream]
            ctx.trace_len = len(ctx.trace)
            ctx_by_order[ctx.order] = ctx
        records: list[SpawnRecord] = []
        for rd in data["records"]:
            rec = SpawnRecord.__new__(SpawnRecord)
            rec.resolve_time = rd["resolve_time"]
            rec.parent = ctx_by_order[rd["parent"]]
            rec.children = [
                (ctx_by_order[order], value) for order, value in rd["children"]
            ]
            rec.actual = rd["actual"]
            rec.pc = rd["pc"]
            rec.start_time = rd["start_time"]
            rec.start_global = rd["start_global"]
            rec.load_commit_time = rd["load_commit_time"]
            rec.kind = SimMode(rd["kind"])
            rec.void = rd["void"]
            rec.resolve_pos = rd.get("resolve_pos", 0)
            records.append(rec)
        for entry in data["contexts"]:
            ctx = ctx_by_order[entry["order"]]
            if entry["parent"] is not None:
                ctx.parent = ctx_by_order[entry["parent"]]
            ctx.children = [ctx_by_order[o] for o in entry["children"]]
            if entry["rec_as_parent"] is not None:
                ctx.spawn_record_as_parent = records[entry["rec_as_parent"]]
            if entry["rec_as_child"] is not None:
                ctx.spawn_record_as_child = records[entry["rec_as_child"]]

        self._contexts = [
            None if order is None else ctx_by_order[order]
            for order in data["slots"]
        ]
        # serialized in heap order, so the list is a valid heap as-is
        self._pending = [
            (t, seq, records[idx]) for t, seq, idx in data["pending"]
        ]
        self._sb_waiters = [ctx_by_order[o] for o in data["sb_waiters"]]

        self.stats = SimStats.from_dict(data["stats"])
        self._global_fetched = data["global_fetched"]
        self._next_order = data["next_order"]
        self._heap_seq = data["heap_seq"]
        self._finish_time = data["finish_time"]
        self.max_runnable_observed = data["max_runnable_observed"]
        self._started = data["started"]
        self._finished = data["finished"]
