"""Counters and cycle-weighted histograms for pipeline occupancy metrics.

A timestamp-based simulator has no per-cycle loop to sample from, so
occupancy metrics are *interval-weighted*: each :meth:`observe` closes the
interval since the previous observation and charges its length (in
cycles) to the value that held during it.  The resulting distribution
answers "what fraction of time did the ROB hold ~N entries", which is the
quantity the paper's occupancy arguments (store-buffer tail-off, context
pressure) are actually about — a per-event unweighted mean would
over-count bursts of short intervals.
"""

from __future__ import annotations


def _bucket(value: int) -> int:
    """Power-of-two bucket upper bound: 0, 1, 2, 4, 8, ... .

    Occupancies span 0..8192 across configurations; power-of-two buckets
    keep every histogram at ~15 keys with deterministic labels.
    """
    if value <= 0:
        return 0
    return 1 << (value - 1).bit_length()


class CycleWeightedHistogram:
    """A value-over-time distribution with cycle weights.

    Two feeding styles, freely mixable:

    * :meth:`observe` — time-series style; the histogram tracks the last
      observed value and weights it by elapsed cycles at the next
      observation (out-of-order timestamps contribute zero weight rather
      than corrupting the distribution — contexts run on slightly skewed
      local clocks).
    * :meth:`add` — episode style; directly account ``value`` with an
      explicit ``weight`` (e.g. one confirmed-speculation episode).
    """

    __slots__ = (
        "_last_time",
        "_last_value",
        "total_weight",
        "weighted_sum",
        "min_value",
        "max_value",
        "buckets",
    )

    def __init__(self) -> None:
        self._last_time: int | None = None
        self._last_value: int | None = None
        self.total_weight = 0
        self.weighted_sum = 0
        self.min_value: int | None = None
        self.max_value: int | None = None
        self.buckets: dict[int, int] = {}

    # ------------------------------------------------------------------
    def add(self, value: int, weight: int = 1) -> None:
        """Account ``value`` for ``weight`` cycles (or episodes)."""
        if weight <= 0:
            return
        self.total_weight += weight
        self.weighted_sum += value * weight
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value
        key = _bucket(value)
        self.buckets[key] = self.buckets.get(key, 0) + weight

    def observe(self, now: int, value: int) -> None:
        """Record that the tracked quantity is ``value`` as of ``now``."""
        last_t = self._last_time
        if last_t is not None and now > last_t:
            self.add(self._last_value, now - last_t)
            self._last_time = now
        elif last_t is None:
            self._last_time = now
        self._last_value = value

    def close(self, now: int) -> None:
        """Flush the open interval at the end of a run."""
        if self._last_time is not None and now > self._last_time:
            self.add(self._last_value, now - self._last_time)
            self._last_time = now

    # ------------------------------------------------------------------
    @property
    def weighted_mean(self) -> float:
        """Cycle-weighted average of the tracked value."""
        if not self.total_weight:
            return 0.0
        return self.weighted_sum / self.total_weight

    def to_dict(self) -> dict:
        """Canonical JSON form (bucket keys stringified, sorted)."""
        return {
            "weighted_mean": round(self.weighted_mean, 4),
            "min": self.min_value if self.min_value is not None else 0,
            "max": self.max_value if self.max_value is not None else 0,
            "total_weight": self.total_weight,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """Named counters and histograms, aggregated into ``SimStats.extended``.

    The registry is create-on-touch: instrumentation sites ask for a
    histogram or bump a counter by name, and only names actually exercised
    by the run appear in the output — a baseline run carries no spawn
    metrics, for example.
    """

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.histograms: dict[str, CycleWeightedHistogram] = {}

    def count(self, name: str, delta: int = 1) -> None:
        """Increment counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + delta

    def histogram(self, name: str) -> CycleWeightedHistogram:
        """The histogram registered under ``name`` (created on first use)."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = CycleWeightedHistogram()
        return hist

    def close(self, now: int) -> None:
        """Flush every histogram's open interval at end of run."""
        for hist in self.histograms.values():
            hist.close(now)

    def to_dict(self) -> dict:
        """Canonical JSON form, keys sorted for stable digests."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: hist.to_dict()
                for name, hist in sorted(self.histograms.items())
            },
        }


def format_metrics(extended: dict) -> str:
    """Render ``SimStats.extended`` as the ``repro report`` summary table.

    Accepts the dict produced by :meth:`Probe.finalize` (schema-tagged,
    with ``metrics`` and optional ``trace`` sections) and degrades
    gracefully on partial input.
    """
    metrics = extended.get("metrics", {})
    counters = metrics.get("counters", {})
    histograms = metrics.get("histograms", {})
    lines: list[str] = []
    if histograms:
        lines.append("occupancy / speculation (cycle-weighted)")
        lines.append(f"{'metric':<26s} {'mean':>9s} {'min':>6s} {'max':>6s}  busiest buckets")
        for name, h in histograms.items():
            buckets = sorted(
                h.get("buckets", {}).items(), key=lambda kv: -kv[1]
            )[:3]
            total = h.get("total_weight", 0) or 1
            tops = ", ".join(
                f"<={k}: {100.0 * v / total:.0f}%" for k, v in buckets
            )
            lines.append(
                f"{name:<26s} {h.get('weighted_mean', 0.0):>9.2f} "
                f"{h.get('min', 0):>6d} {h.get('max', 0):>6d}  {tops}"
            )
    if counters:
        lines.append("")
        lines.append("event counters")
        for name, value in counters.items():
            lines.append(f"{name:<26s} {value:>9d}")
    trace = extended.get("trace")
    if trace:
        lines.append("")
        lines.append(
            f"trace: {trace.get('retained', 0)} events retained "
            f"({trace.get('dropped', 0)} dropped) across "
            f"{trace.get('threads', 0)} context lanes"
        )
    if not lines:
        return "no extended metrics recorded (run with observability enabled)"
    return "\n".join(lines)
