"""The layer map and the wrapping tracer behind ``bench/run.py --trace 1``.

Each entry of :data:`LAYERS` names one public function of the simulator
and the layer it belongs to.  The tracer wraps those functions from the
outside, in the traced process only: methods are replaced on the class
that the benchmark's objects are instances of, module functions at the
attribute their caller resolves (``run_simulations`` looks ``task_key`` up
in ``repro.harness.parallel``, not in ``repro.harness.cache``).  No source
file changes.

A layer's self time is the time its calls took minus the time of the
wrapped calls they made.  The benchmark opens one root span per
simulation, campaign pass or set-up; per-layer self times and call counts
are aggregated inside each span rather than kept per call, because the
hot layers are called millions of times.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from pathlib import Path

#: (layer, module, attribute path).  A layer may list several targets:
#: the value predictors and selectors are wrapped on every class the
#: benchmark's recipes instantiate.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("workloads.trace", "repro.workloads.generator", "Workload.trace"),
    ("core.engine.construct", "repro.core.engine.core", "Engine.__init__"),
    ("core.engine.run", "repro.core.engine.core", "Engine.run"),
    ("core.engine.fast_forward", "repro.core.engine.core", "Engine.fast_forward"),
    ("core.engine.snapshot", "repro.core.engine.core", "Engine.snapshot"),
    ("core.engine.restore", "repro.core.engine.core", "Engine.restore"),
    ("memory.hierarchy.load", "repro.memory.hierarchy", "MemoryHierarchy.load"),
    ("memory.hierarchy.probe_level", "repro.memory.hierarchy",
     "MemoryHierarchy.probe_level"),
    ("memory.hierarchy.store", "repro.memory.hierarchy", "MemoryHierarchy.store"),
    ("memory.prefetcher.lookup", "repro.memory.prefetcher", "StridePrefetcher.lookup"),
    ("memory.prefetcher.train", "repro.memory.prefetcher", "StridePrefetcher.train"),
    ("memory.store_buffer.search", "repro.memory.store_buffer", "StoreBuffer.search"),
    ("memory.store_buffer.allocate", "repro.memory.store_buffer",
     "StoreBuffer.allocate"),
    ("memory.store_buffer.drain_upto", "repro.memory.store_buffer",
     "StoreBuffer.drain_upto"),
    ("memory.store_buffer.squash_thread", "repro.memory.store_buffer",
     "StoreBuffer.squash_thread"),
    ("branch.predict_and_update", "repro.branch.predictors",
     "TwoBcGskewPredictor.predict_and_update"),
    ("branch.update", "repro.branch.predictors", "TwoBcGskewPredictor.update"),
    ("vp.predict", "repro.vp.wang_franklin", "WangFranklinPredictor.predict"),
    ("vp.predict", "repro.vp.oracle", "OraclePredictor.predict"),
    ("vp.predict_all", "repro.vp.wang_franklin", "WangFranklinPredictor.predict_all"),
    ("vp.train", "repro.vp.wang_franklin", "WangFranklinPredictor.train"),
    ("vp.train", "repro.vp.oracle", "OraclePredictor.train"),
    ("select.choose", "repro.select.selectors", "IlpPredSelector.choose"),
    ("select.choose", "repro.select.selectors", "AlwaysSelector.choose"),
    ("select.record", "repro.select.selectors", "IlpPredSelector.record"),
    ("select.record", "repro.select.selectors", "AlwaysSelector.record"),
    ("harness.cache.task_key", "repro.harness.parallel", "task_key"),
    ("harness.cache.get", "repro.harness.cache", "ResultCache.get"),
    ("harness.cache.put", "repro.harness.cache", "ResultCache.put"),
    ("harness.checkpoint.get", "repro.harness.checkpoint", "CheckpointStore.get"),
    ("harness.checkpoint.put", "repro.harness.checkpoint", "CheckpointStore.put"),
    ("sweep.store.ensure", "repro.sweep.store", "ResultStore.ensure"),
    ("sweep.store.claim", "repro.sweep.store", "ResultStore.claim"),
    ("sweep.store.mark_done", "repro.sweep.store", "ResultStore.mark_done"),
    ("sweep.run_sweep", "repro.sweep", "run_sweep"),
)

_MISSING = object()


class LayerMapError(RuntimeError):
    """A :data:`LAYERS` entry names a module or function that is gone."""


def resolve(layers=LAYERS) -> list[tuple[str, object, str]]:
    """``(layer, owner, attribute)`` for every entry, or :class:`LayerMapError`.

    Run before anything is traced, so that a refactor which renames or
    moves a wrapped function stops the traced run instead of silently
    dropping the layer from the ledger.
    """
    targets = []
    for layer, module_name, path in layers:
        where = f"layer {layer!r}: {module_name}:{path}"
        try:
            owner = importlib.import_module(module_name)
        except ImportError as exc:
            raise LayerMapError(f"{where}: module not importable ({exc})") from None
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                raise LayerMapError(f"{where}: {part!r} does not exist")
        if not callable(getattr(owner, attr, None)):
            raise LayerMapError(f"{where}: {attr!r} is not a function")
        targets.append((layer, owner, attr))
    return targets


class Tracer:
    """Wraps the layer map's functions and aggregates spans in memory.

    Use as a context manager: entering installs the wrappers, leaving
    restores the originals.  ``clock`` exists so tests can drive the
    self-time arithmetic with scripted timestamps.
    """

    def __init__(self, layers=LAYERS, clock=time.perf_counter) -> None:
        self._targets = resolve(layers)
        self.layers = sorted({layer for layer, _, _ in self._targets})
        self._index = {layer: i for i, layer in enumerate(self.layers)}
        self._clock = clock
        self.self_s = [0.0] * len(self.layers)
        self.calls = [0] * len(self.layers)
        #: child-time accumulators of the open calls; the bottom entry
        #: absorbs calls made outside any span
        self._stack = [0.0]
        self._saved: list[tuple[object, str, object]] = []
        #: one record per root span: name, start, dur, self and the
        #: per-layer self time and calls made inside it
        self.spans: list[dict] = []

    def __enter__(self) -> "Tracer":
        for layer, owner, attr in self._targets:
            self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, self._wrap(getattr(owner, attr), self._index[layer]))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _wrap(self, fn, idx: int):
        clock = self._clock
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_s[idx] += dur - stack.pop()
                calls[idx] += 1
                stack[-1] += dur

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A root span: everything the block calls is charged inside it."""
        self_before = list(self.self_s)
        calls_before = list(self.calls)
        self._stack.append(0.0)
        t0 = self._clock()
        try:
            yield
        finally:
            dur = self._clock() - t0
            child = self._stack.pop()
            self._stack[-1] += dur
            layers = {}
            for i, layer in enumerate(self.layers):
                n = self.calls[i] - calls_before[i]
                if n:
                    layers[layer] = (self.self_s[i] - self_before[i], n)
            self.spans.append({
                "name": name, "start": t0, "dur": dur, "self": dur - child,
                "layers": layers,
            })

    # ------------------------------------------------------------------
    def totals(self) -> dict[str, tuple[float, int]]:
        """Per layer: (self seconds, calls) summed over the spans."""
        out = {layer: (0.0, 0) for layer in self.layers}
        for span in self.spans:
            for layer, (seconds, n) in span["layers"].items():
                out[layer] = (out[layer][0] + seconds, out[layer][1] + n)
        return out

    def wall(self) -> float:
        return sum(span["dur"] for span in self.spans)

    def attributed_frac(self) -> float:
        """Share of span time that some layer's self time accounts for."""
        wall = self.wall()
        return (wall - sum(span["self"] for span in self.spans)) / wall

    def table(self) -> str:
        wall = self.wall()
        lines = [f"{'layer':34s} {'self_s':>9s} {'share':>7s} {'calls':>10s} {'us/call':>8s}"]
        rows = sorted(self.totals().items(), key=lambda kv: -kv[1][0])
        rows.append(("(unattributed)", (wall - sum(s for s, _ in self.totals().values()), 0)))
        for layer, (seconds, n) in rows:
            per = f"{seconds / n * 1e6:8.2f}" if n else f"{'-':>8s}"
            lines.append(
                f"{layer:34s} {seconds:9.3f} {seconds / wall:7.1%} {n:10d} {per}"
            )
        return "\n".join(lines)

    def write_chrome(self, path: str | Path) -> Path:
        """The root spans as a Chrome trace-event file (about://tracing)."""
        origin = min((span["start"] for span in self.spans), default=0.0)
        events = [
            {
                "name": span["name"], "cat": "span", "ph": "X", "pid": 0, "tid": 0,
                "ts": (span["start"] - origin) * 1e6, "dur": span["dur"] * 1e6,
                "args": {
                    "self_ms": span["self"] * 1e3,
                    **{
                        f"{layer}.self_ms": seconds * 1e3
                        for layer, (seconds, _) in span["layers"].items()
                    },
                    **{
                        f"{layer}.calls": n
                        for layer, (_, n) in span["layers"].items()
                    },
                },
            }
            for span in self.spans
        ]
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
        return path
