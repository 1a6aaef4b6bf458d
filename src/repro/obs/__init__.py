"""Cycle-level observability: structured tracing and occupancy metrics.

The paper's analyses (prefetcher mistraining in §5.1, store-buffer
tail-off in §5.3, the spawn-latency knees of Figure 2) all hinge on
*internal* pipeline state — spawn trees, queue occupancy, speculation
depth — that the headline :class:`~repro.core.SimStats` counters cannot
show.  This package is the measurement substrate for those questions:

* :class:`Tracer` — a bounded ring buffer of cycle-stamped structured
  events (see :mod:`repro.obs.events` for the taxonomy) with JSONL and
  Chrome ``chrome://tracing`` trace-event exporters.  Spawned contexts
  render as separate thread lanes, so an MTVP spawn chain is visually
  inspectable.
* :class:`MetricsRegistry` — counters and cycle-weighted histograms
  (in-flight ROB/rename/IQ and store-buffer occupancy, speculation
  distance, live context count, per-level cache residency) aggregated
  into ``SimStats.extended`` at the end of a run.
* :class:`Probe` — the single object every hook site calls.  The engine
  holds it and reports what its components decide (loads served below
  the L1, mispredicted branches, value-prediction outcomes) with the
  cycle and context in hand; the stride prefetcher alone holds it too,
  from the start of the timed run, so only the timed run reports and an
  observed engine warms and restores like any other.  When
  observability is off the probe is ``None``, so every instrumentation
  site costs one ``is not None`` test (the overhead contract in
  DESIGN.md §5d, guarded by the golden-identity tests and the suite
  benchmark under ``bench/``).
"""

from repro.obs.events import EVENT_NAMES, EventKind
from repro.obs.metrics import CycleWeightedHistogram, MetricsRegistry, format_metrics
from repro.obs.probe import Probe
from repro.obs.tracer import Tracer

__all__ = [
    "CycleWeightedHistogram",
    "EVENT_NAMES",
    "EventKind",
    "MetricsRegistry",
    "Probe",
    "Tracer",
    "format_metrics",
]
