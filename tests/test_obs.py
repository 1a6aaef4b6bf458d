"""Tests for the observability layer (repro.obs).

Four contracts from DESIGN.md §5d:

* the ring buffer is bounded — it evicts oldest-first and counts drops;
* exported Chrome traces are structurally valid trace-event JSON, with
  each spawned context on its own thread lane;
* cycle-weighted histograms charge elapsed cycles to the *previous*
  value and ignore out-of-order timestamps;
* instrumentation is read-only — a traced run's SimStats is bit-identical
  to its untraced twin (the golden-identity test).
"""

from __future__ import annotations

import json

import pytest

from repro import simulate
from repro.core import MachineConfig
from repro.core.engine import Engine
from repro.harness.bench import stats_digest
from repro.memory import MemLevel
from repro.obs import (
    EVENT_NAMES,
    CycleWeightedHistogram,
    EventKind,
    MetricsRegistry,
    Probe,
    Tracer,
    format_metrics,
)
from repro.workloads import get_workload


def _mtvp_engine(tracer=None, metrics=None, length=4000):
    trace = get_workload("mcf").trace(length=length, seed=0)
    from repro.select import AlwaysSelector
    from repro.vp import WangFranklinPredictor

    return Engine(
        trace,
        MachineConfig.mtvp(8),
        predictor=WangFranklinPredictor(),
        selector=AlwaysSelector(),
        tracer=tracer,
        metrics=metrics,
    )


class TestRingBuffer:
    def test_bounded_eviction_oldest_first(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.emit(i, int(EventKind.KILL), 0, {"wasted": i})
        assert len(tracer) == 4
        assert tracer.emitted == 10
        assert tracer.dropped == 6
        # the surviving window is the newest 4 events, oldest first
        assert [e[0] for e in tracer.events] == [6, 7, 8, 9]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_no_eviction_below_capacity(self):
        tracer = Tracer(capacity=16)
        for i in range(5):
            tracer.emit(i, int(EventKind.SPAWN), 1)
        assert tracer.dropped == 0
        assert len(tracer) == 5

    def test_register_thread_first_wins(self):
        tracer = Tracer()
        tracer.register_thread(3, "ctx3", parent=0, cycle=10)
        tracer.register_thread(3, "other", parent=1, cycle=99)
        assert tracer.threads[3] == ("ctx3", 0, 10)

    def test_summary_counts_by_kind(self):
        tracer = Tracer()
        tracer.register_thread(0, "ctx0")
        tracer.emit(0, int(EventKind.SPAWN), 0)
        tracer.emit(1, int(EventKind.SPAWN), 0)
        tracer.emit(2, int(EventKind.KILL), 0)
        summary = tracer.summary()
        assert summary["emitted"] == summary["retained"] == 3
        assert summary["threads"] == 1
        assert summary["by_kind"] == {"spawn": 2, "kill": 1}


class TestChromeExport:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        tracer = Tracer()
        stats = _mtvp_engine(tracer=tracer).run()
        path = tmp_path_factory.mktemp("trace") / "trace.json"
        tracer.export_chrome(path)
        return tracer, stats, json.loads(path.read_text())

    def test_valid_trace_event_json(self, traced):
        _tracer, _stats, payload = traced
        events = payload["traceEvents"]
        assert events, "empty trace"
        for ev in events:
            assert ev["ph"] in ("M", "X", "i")
            assert isinstance(ev["pid"], int)
            assert isinstance(ev["tid"], int)
            if ev["ph"] != "M":
                assert isinstance(ev["ts"], int)
            if ev["ph"] == "X":
                assert ev["dur"] >= 1

    def test_spawned_context_gets_own_lane(self, traced):
        tracer, _stats, payload = traced
        # at least one context beyond ctx0 was spawned and registered
        spawned = {
            tid for tid, (_n, parent, _c) in tracer.threads.items()
            if parent is not None
        }
        assert spawned, "MTVP run spawned no contexts"
        lanes = {
            ev["tid"] for ev in payload["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        assert spawned <= lanes
        # spawned lanes carry events of their own
        event_tids = {
            ev["tid"] for ev in payload["traceEvents"] if ev["ph"] != "M"
        }
        assert spawned & event_tids

    def test_spawn_join_kill_events_present(self, traced):
        _tracer, stats, payload = traced
        names = {ev["name"] for ev in payload["traceEvents"] if ev["ph"] == "i"}
        assert "spawn" in names
        assert stats.confirms == 0 or "join" in names
        assert stats.kills == 0 or "kill" in names
        # the fixture run is known to exercise both outcomes
        assert stats.confirms > 0 and stats.kills > 0

    def test_jsonl_export_self_describing(self, traced, tmp_path):
        tracer, _stats, _payload = traced
        path = tmp_path / "trace.jsonl"
        tracer.export_jsonl(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        threads = [rec for rec in lines if rec["event"] == "thread"]
        assert len(threads) == len(tracer.threads)
        body = [rec for rec in lines if rec["event"] != "thread"]
        assert len(body) == len(tracer)
        assert all(rec["event"] in EVENT_NAMES for rec in body)


class TestCycleWeightedHistogram:
    def test_weights_charge_previous_value(self):
        h = CycleWeightedHistogram()
        h.observe(0, 1)     # value 1 holds from cycle 0
        h.observe(10, 4)    # ... for 10 cycles; value 4 holds from 10
        h.close(30)         # ... for 20 cycles
        assert h.total_weight == 30
        assert h.weighted_mean == pytest.approx((1 * 10 + 4 * 20) / 30)
        assert h.min_value == 1 and h.max_value == 4
        assert h.buckets == {1: 10, 4: 20}

    def test_out_of_order_observation_contributes_zero(self):
        h = CycleWeightedHistogram()
        h.observe(100, 2)
        h.observe(50, 9)    # skewed context clock: no negative weight
        h.close(110)
        assert h.total_weight == 10
        assert h.min_value == h.max_value  # only one value got weight

    def test_add_and_nonpositive_weight(self):
        h = CycleWeightedHistogram()
        h.add(5, weight=3)
        h.add(5, weight=0)
        h.add(5, weight=-2)
        assert h.total_weight == 3
        assert h.buckets == {8: 3}  # power-of-two bucket: 5 -> 8

    def test_close_idempotent(self):
        h = CycleWeightedHistogram()
        h.observe(0, 7)
        h.close(10)
        h.close(10)
        assert h.total_weight == 10

    def test_to_dict_stable_keys(self):
        h = CycleWeightedHistogram()
        h.add(0, 2)
        h.add(100, 1)
        d = h.to_dict()
        assert d["min"] == 0 and d["max"] == 100
        assert list(d["buckets"]) == sorted(d["buckets"], key=int)


class TestMetricsRegistry:
    def test_create_on_touch(self):
        reg = MetricsRegistry()
        reg.count("kills_observed")
        reg.count("kills_observed", 2)
        assert reg.counters == {"kills_observed": 3}
        assert reg.histogram("rob") is reg.histogram("rob")
        assert "rob" in reg.histograms

    def test_format_metrics_roundtrip(self):
        reg = MetricsRegistry()
        reg.count("predict_mtvp", 4)
        reg.histogram("rob_occupancy").observe(0, 10)
        reg.histogram("rob_occupancy").close(100)
        text = format_metrics({"schema": 1, "metrics": reg.to_dict()})
        assert "rob_occupancy" in text
        assert "predict_mtvp" in text

    def test_format_metrics_empty(self):
        assert "no extended metrics" in format_metrics({})


class TestProbe:
    def test_enabled_probe_requires_a_sink(self):
        with pytest.raises(ValueError):
            Probe()


class TestOccupancy:
    """The ROB, rename and IQ/FQ/MQ occupancies count what is in flight
    at fetch, each queue from its own entries."""

    QUEUES = {"int": "iq_occupancy", "fp": "fq_occupancy", "mem": "mq_occupancy"}

    @pytest.mark.parametrize("workload", ["gzip g", "mcf", "swim"])
    def test_counts_match_the_traced_schedule(self, workload):
        trace = get_workload(workload).trace(length=1500, seed=0)
        tracer = Tracer()
        stats = Engine(
            trace, MachineConfig.hpca05_baseline(), tracer=tracer,
            metrics=MetricsRegistry(),
        ).run()
        steps = [
            args for _c, kind, _t, args in tracer.events
            if kind == EventKind.INSTRUCTION
        ]
        # one context, so the i-th event is trace[i]
        assert tracer.dropped == 0 and len(steps) == len(trace)
        names = ("rob_occupancy", "rename_occupancy", *self.QUEUES.values())
        expected = {name: CycleWeightedHistogram() for name in names}
        commits: list[int] = []
        writers: list[int] = []
        issues: dict[str, list[int]] = {queue: [] for queue in self.QUEUES}
        for inst, step in zip(trace, steps):
            # each count covers the instructions up to this one whose
            # commit (or, for a queue, issue) comes after this fetch
            fetch = step["fetch"]
            commits.append(step["commit"])
            if inst.dst is not None:
                writers.append(step["commit"])
            op = inst.op
            issues["mem" if op.is_memory else "fp" if op.is_fp else "int"].append(
                step["issue"]
            )
            counts = (commits, writers, *issues.values())
            for name, times in zip(names, counts):
                expected[name].observe(fetch, sum(1 for t in times if t > fetch))
        histograms = stats.extended["metrics"]["histograms"]
        for name, hist in expected.items():
            hist.close(stats.cycles)
            assert histograms[name] == hist.to_dict(), name
        # an empty FQ would match trivially; swim's FP code fills it
        if workload == "swim":
            assert histograms["fq_occupancy"]["max"] > 0


class TestOnlyTheTimedRunReports:
    """The warm start and the fast-forward train the prefetcher, but only
    the timed run reports: the observed stream hits are the run's own, and
    no prefetcher event predates the first timed load."""

    @pytest.mark.parametrize("machine", ["baseline", "mtvp8"])
    @pytest.mark.parametrize("workload", ["swim", "mcf"])
    def test_observed_prefetcher_events_are_the_timed_runs(self, workload, machine):
        config = (
            MachineConfig.hpca05_baseline() if machine == "baseline"
            else MachineConfig.mtvp(8)
        )
        tracer = Tracer()
        stats = simulate(
            workload, config, length=4000, warmup=4000, tracer=tracer,
            metrics=MetricsRegistry(),
        )
        counters = stats.extended["metrics"]["counters"]
        assert stats.prefetch_stream_hits > 0
        assert (
            counters["prefetch_hits_observed"]
            == stats.prefetch_stream_hits
            == stats.level_counts[MemLevel.STREAM]
        )
        for level in (MemLevel.STREAM, MemLevel.L2, MemLevel.L3, MemLevel.MEMORY):
            name = f"load_{level.name.lower()}"
            assert counters.get(name, 0) == stats.level_counts[level], name
        # a timed load issues no earlier than the end of the front end
        assert tracer.dropped == 0
        early = [
            (cycle, EVENT_NAMES[kind]) for cycle, kind, _tid, _args in tracer.events
            if kind in (EventKind.PREFETCH_ISSUE, EventKind.PREFETCH_HIT)
            and cycle < config.front_latency
        ]
        assert not early


class TestGoldenIdentity:
    """Instrumentation is read-only: traced stats == untraced stats."""

    def test_traced_run_bit_identical(self):
        plain = _mtvp_engine().run()
        observed = _mtvp_engine(tracer=Tracer(), metrics=MetricsRegistry()).run()
        # dataclass equality excludes wall_seconds/extended by design
        assert observed == plain
        assert stats_digest(observed) == stats_digest(plain)
        # and the observed run actually recorded something
        assert observed.extended["metrics"]["histograms"]
        assert observed.extended["trace"]["retained"] > 0
        assert not plain.extended

    def test_value_prediction_outcomes_match_the_stats(self):
        # the paper modes report each resolved prediction where they count
        # it: STVP uses, and MTVP confirms and kills
        stats = _mtvp_engine(metrics=MetricsRegistry()).run()
        counters = stats.extended["metrics"]["counters"]
        assert stats.stvp_correct and stats.mtvp_correct and stats.mtvp_incorrect
        assert counters["vp_verified"] == stats.stvp_correct + stats.mtvp_correct
        assert counters["vp_squashed"] == stats.stvp_incorrect + stats.mtvp_incorrect

    def test_extended_serialization_gated_on_content(self):
        plain = _mtvp_engine(length=1500).run()
        d = plain.to_dict()
        assert "extended" not in d and "schema_version" not in d
        observed = _mtvp_engine(metrics=MetricsRegistry(), length=1500).run()
        d = observed.to_dict()
        assert d["schema_version"] == 2
        assert d["extended"]["metrics"]["histograms"]
