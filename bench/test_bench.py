"""Tests of the benchmark itself: ``python -m pytest bench -q``.

They stay out of the tier-1 suite (pyproject's testpaths); the traced and
campaign cases run a handful of short simulations.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import layers
import run


class Toy:
    def outer(self):
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        return None


TOY_LAYERS = (
    ("toy.outer", __name__, "Toy.outer"),
    ("toy.inner", __name__, "Toy.inner"),
)


def test_self_time_subtracts_child_spans():
    # clock reads: span start, outer enter, inner enter/exit twice,
    # outer exit, span end
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 10.0, 12.0])
    tracer = layers.Tracer(TOY_LAYERS, clock=lambda: next(ticks))
    with tracer:
        with tracer.span("op"):
            assert Toy().outer() == "done"
    assert tracer.totals() == {"toy.inner": (4.0, 2), "toy.outer": (5.0, 1)}
    (span,) = tracer.spans
    assert (span["dur"], span["self"]) == (12.0, 3.0)
    assert tracer.attributed_frac() == pytest.approx(0.75)
    # leaving the tracer restores the original functions
    assert "traced" not in Toy.outer.__qualname__


def test_host_speed_scales_by_the_samples_nearest_an_op():
    host = run.HostSpeed()
    host.ms = [1.0] * 20 + [2.0] * 20
    assert host.scale(0) == run.REF_NOMINAL_MS
    assert host.scale(39) == run.REF_NOMINAL_MS / 2.0
    host.ms[5] = 9.0  # one slow sample moves no median
    assert host.scale(5) == run.REF_NOMINAL_MS
    assert host.sample() == 40 and host.ms[40] > 0


def test_layer_map_resolves_and_names_a_stale_entry():
    assert {layer for layer, _, _ in layers.resolve()} >= set(run.TIMED_LAYERS)
    stale = (("memory.hierarchy.gone", "repro.memory.hierarchy", "MemoryHierarchy.gone"),)
    with pytest.raises(layers.LayerMapError, match="memory.hierarchy.gone"):
        layers.resolve(stale)
    with pytest.raises(layers.LayerMapError, match="not importable"):
        layers.resolve((("x", "repro.no_such_module", "f"),))


def test_checker_rejects_tampered_digest_and_broken_invariant():
    stats = run.BASELINE.run("mcf", 2000, 0)
    good = run.digest(stats)
    assert run.check_stats(stats, 2000, good) == []
    assert "golden" in run.check_stats(stats, 2000, "0" * 16)[0]
    assert "measured length" in run.check_stats(stats, 1999)[0]
    broken = dataclasses.replace(stats, wasted_instructions=stats.wasted_instructions + 1)
    assert "instructions_stepped" in run.check_stats(broken, 2000)[0]

    tally = run.Tally()
    golden = {"tiny": {"0": [good]}}
    assert run.expected_digests(golden, "tiny", 0, 1, tally) == [good]
    assert run.expected_digests(golden, "tiny", 1, 1, tally) == [None]
    assert tally.problems == []
    run.expected_digests(golden, "tiny", 0, 2, tally)
    assert "regenerate" in tally.problems[0]


def test_traced_simulation_per_machine_matches_untraced_twin():
    recipes = (run.BASELINE, run.STVP, run.MTVP8, run.MTVP8_ALWAYS)
    bench = run.SimWorkload("tiny", ("mcf",), recipes, 2000, 0, {})
    tracer = layers.Tracer()
    tally, metrics = run.traced_run(bench, tracer)
    assert tally.failed == 0 and tally.problems == []
    assert "traced digests identical" in bench.checks[-1]
    ops = [span for span in tracer.spans if span["name"] != "setup"]
    assert len(ops) == len(recipes)
    for span in ops:
        assert (span["dur"] - span["self"]) / span["dur"] >= 0.90, span["name"]
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}


def test_campaign_cold_and_cached_passes_agree(tmp_path):
    bench = run.CampaignWorkload(0, {}, tmp_path)
    bench.spec = dataclasses.replace(bench.spec, workloads=("mcf",), seeds=(0,))
    tally, metrics = run.timed_run(bench, 0.1)
    assert tally.failed == 0 and tally.problems == []
    assert any("4 checkpoints restored, 1 stored" in c for c in bench.checks)
    assert len(tally.op_ms) >= run.MIN_SAMPLES
    assert [name for name, _ in run.END_TO_END] == list(metrics)
    assert all(value > 0 for value, _ in metrics.values())


def test_benchmark_json_declares_the_end_to_end_metrics():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
