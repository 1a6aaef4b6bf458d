"""Regression guards for the optimized simulation kernel.

The kernel optimizations rewrote the scheduler, the step kernel and the
memory path for throughput under a bit-identity contract: every timing
decision must match the straightforward pre-optimization engine.  These
tests pin that contract down from five directions:

* golden digests — full SimStats dicts captured from the pre-optimization
  engine on fixed (workload, config, seed) points, one per SimMode;
* mode pins — SimStats digests of SPMT, CMP, the wide window, the SMT
  co-schedule and no-stall multi-value MTVP, which no golden fixture
  runs, plus the exported event streams of the two spawn-heaviest ones
  (``tests/data/golden_modes.json``; see :func:`render_mode_pins`);
* a scheduler A/B test — the incremental scheduler against the reference
  ``min()``-over-runnable scheduler on a spawn-heavy multi-context run,
  the SMT co-schedule, the modes no golden fixture covers and the
  warm-started MTVP run that gets slower when memory gets faster;
* segmented runs — ``run(max_steps=k)`` to completion equals the one-shot
  run in every registered mode;
* unit guards for the O(1)/amortized bookkeeping (cache occupancy,
  in-flight pruning) and the throughput layer (--profile, wall time).
"""

from __future__ import annotations

import hashlib
import json
import pstats
import tempfile
from pathlib import Path

import pytest

from repro import _steady_state_footprint
from repro.core import FetchPolicy, MachineConfig, check_conservation
from repro.core.engine import Engine
from repro.core.modes import names, resolve_model
from repro.harness.bench import stats_digest
from repro.memory import Cache, MemoryHierarchy
from repro.obs import Tracer
from repro.select import AlwaysSelector, IlpPredSelector
from repro.vp import OraclePredictor, WangFranklinPredictor
from repro.workloads import get_workload

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_stats.json"
_FIXTURES = json.loads(GOLDEN_PATH.read_text())
#: one full stats dict per fixture
GOLDEN = {name: fx for name, fx in _FIXTURES.items() if "lanes" not in fx}
#: seed-replicate fixtures: one digest per seed ``seed .. seed+lanes-1``
#: (the ``batched_*`` entries, recorded when lane batching existed)
REPLICATES = {name: fx for name, fx in _FIXTURES.items() if "lanes" in fx}

PREDICTORS = {"wang_franklin": WangFranklinPredictor, "oracle": OraclePredictor}
SELECTORS = {"ilp_pred": IlpPredSelector, "always": AlwaysSelector}


def _canonical_stats(stats) -> dict:
    d = stats.to_dict()
    # not part of the captured goldens: the field postdates them, and the
    # digest must stay comparable across future additive stats changes
    d.pop("instructions_stepped", None)
    return d


def _digest(d: dict) -> str:
    blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _run_fixture(fx: dict, reference_scheduler: bool = False, tracer=None):
    """Replay a fixture exactly as :func:`repro.simulate` would run it
    (including steady-state cache warmup and, for the SMT co-schedule,
    one stream per context at seeds ``seed, seed+1, ...``), with
    scheduler choice exposed."""
    name, kwargs = fx["config"]
    config = getattr(MachineConfig, name)(**kwargs)
    workload = get_workload(fx["workload"])
    programs = config.num_contexts if resolve_model(config.mode).multi_program else 1
    traces = [
        workload.trace(length=fx["length"], seed=fx["seed"] + i)
        for i in range(programs)
    ]
    warm = _steady_state_footprint(workload, config) if config.warm_caches else None
    engine = Engine(
        traces[0],
        config,
        predictor=PREDICTORS[fx["predictor"]](),
        selector=SELECTORS[fx["selector"]](),
        warm_addresses=warm,
        reference_scheduler=reference_scheduler,
        tracer=tracer,
        traces=traces if programs > 1 else None,
    )
    return engine, engine.run()


MODE_PINS_PATH = Path(__file__).parent / "data" / "golden_modes.json"
#: the configs no golden fixture runs, each pinned on every MODE_PIN_WORKLOADS
MODE_PIN_CONFIGS = {
    "spmt8": ["spmt", {"threads": 8}],
    "spmt4_skip16": ["spmt", {"threads": 4, "spmt_skip": 16}],
    "cmp8": ["cmp", {"cores": 8}],
    "wide_window": ["wide_window", {}],
    "smt2": ["smt", {"programs": 2}],
    "mtvp8_no_stall_mv2": ["mtvp", {"threads": 8,
                                    "fetch_policy": FetchPolicy.NO_STALL,
                                    "multi_value": 2}],
    # 448 rename registers outlast the 256-entry ROB, so the ROB gates
    # fetch: the Table 1 machine's 256 registers fill first
    "baseline_rename448": ["hpca05_baseline", {"rename_regs": 448}],
    "stvp_rename448": ["stvp", {"rename_regs": 448}],
}
MODE_PIN_WORKLOADS = ("mcf", "gcc 1", "twolf")
#: the configs whose exported JSONL event stream is pinned as well
MODE_PIN_TRACED = ("spmt8", "mtvp8_no_stall_mv2")


def _mode_pin_fixture(config: str, workload: str) -> dict:
    return {
        "workload": workload,
        "length": 3000,
        "seed": 1,
        "config": MODE_PIN_CONFIGS[config],
        "predictor": "wang_franklin",
        "selector": "always",
    }


def _mode_pin(config: str, workload: str, traced: bool) -> tuple[str, str | None]:
    """``(stats digest, JSONL event-stream digest or None)`` of one pin.

    A traced pin runs twice; the traced run must report the untraced
    run's stats, apart from the ``extended`` section the tracer adds.
    """
    fx = _mode_pin_fixture(config, workload)
    stats = _canonical_stats(_run_fixture(fx)[1])
    if not traced:
        return _digest(stats), None
    tracer = Tracer(capacity=1 << 20)
    traced_stats = _canonical_stats(_run_fixture(fx, tracer=tracer)[1])
    del traced_stats["extended"], traced_stats["schema_version"]
    assert traced_stats == stats
    assert tracer.dropped == 0
    with tempfile.TemporaryDirectory() as tmp:
        path = tracer.export_jsonl(Path(tmp) / "events.jsonl")
        return _digest(stats), hashlib.sha256(path.read_bytes()).hexdigest()


def render_mode_pins() -> dict:
    """Every mode pin's digests, as ``tests/data/golden_modes.json`` holds
    them.  Regenerate the file only when results change on purpose::

        PYTHONPATH=src:. python -c "import json; from tests.test_perf_kernel \\
            import render_mode_pins; print(json.dumps(render_mode_pins(), \\
            indent=1, sort_keys=True))" > tests/data/golden_modes.json
    """
    pins: dict[str, dict] = {"stats": {}, "events": {}}
    for config in MODE_PIN_CONFIGS:
        for workload in MODE_PIN_WORKLOADS:
            key = f"{config}/{workload}"
            stats, events = _mode_pin(config, workload, config in MODE_PIN_TRACED)
            pins["stats"][key] = stats
            if events is not None:
                pins["events"][key] = events
    return pins


class TestGoldenDigests:
    """The optimized engine reproduces pre-optimization stats bit for bit."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_stats_match_golden(self, name):
        fx = GOLDEN[name]
        _engine, stats = _run_fixture(fx)
        got = _canonical_stats(stats)
        assert got == fx["stats"], f"stats diverged from golden {name!r}"
        assert _digest(got) == fx["digest"]
        check_conservation(stats, fx["length"])

    def test_goldens_cover_every_mode(self):
        # one fixture per simulated mode family, so a regression in any
        # mode-specific path cannot slip through unexercised
        families = {fx["config"][0] for fx in GOLDEN.values()}
        assert {"hpca05_baseline", "stvp", "mtvp", "spawn_only"} <= families


class TestModePins:
    """SPMT, CMP, the wide window, the SMT co-schedule and no-stall
    multi-value MTVP reproduce their pinned stats, and the traced ones
    their exported event streams, byte for byte."""

    @pytest.fixture(scope="class")
    def pins(self):
        return json.loads(MODE_PINS_PATH.read_text())

    @pytest.mark.parametrize("workload", MODE_PIN_WORKLOADS)
    @pytest.mark.parametrize("config", sorted(MODE_PIN_CONFIGS))
    def test_mode_matches_pin(self, pins, config, workload):
        key = f"{config}/{workload}"
        stats, events = _mode_pin(config, workload, config in MODE_PIN_TRACED)
        assert stats == pins["stats"][key], f"stats diverged from pin {key!r}"
        assert events == pins["events"].get(key), (
            f"exported events diverged from pin {key!r}"
        )

    def test_pins_cover_every_config(self, pins):
        assert set(pins["stats"]) == {
            f"{c}/{w}" for c in MODE_PIN_CONFIGS for w in MODE_PIN_WORKLOADS
        }
        assert set(pins["events"]) == {
            f"{c}/{w}" for c in MODE_PIN_TRACED for w in MODE_PIN_WORKLOADS
        }


class TestGoldenReplicates:
    """Every seed of a replicate fixture reproduces its recorded digest."""

    @pytest.mark.parametrize("name", sorted(REPLICATES))
    def test_replicates_match_golden(self, name):
        fx = REPLICATES[name]
        runs = [
            _run_fixture(dict(fx, seed=seed))[1]
            for seed in range(fx["seed"], fx["seed"] + fx["lanes"])
        ]
        assert [_digest(_canonical_stats(stats)) for stats in runs] == fx["digests"]
        for stats in runs:
            check_conservation(stats, fx["length"])

    def test_replicate_goldens_cover_every_mode(self):
        families = {fx["config"][0] for fx in REPLICATES.values()}
        assert {"hpca05_baseline", "stvp", "mtvp", "spawn_only"} <= families


class TestSchedulerEquivalence:
    """Incremental scheduler == reference min()-scheduler, decision for
    decision, including with several simultaneously runnable contexts."""

    # NO_STALL keeps the spawning parent fetching alongside its children,
    # which is what actually populates the runnable set; gcc's branchy
    # trace spawns eagerly enough to stack contexts four deep
    MULTI_FX = {
        "workload": "gcc 1",
        "length": 3000,
        "seed": 7,
        "config": ["mtvp", {"threads": 8,
                            "fetch_policy": FetchPolicy.NO_STALL,
                            "multi_value": 2}],
        "predictor": "oracle",
        "selector": "always",
    }

    def test_multi_context_run_is_genuinely_multi(self):
        engine, stats = _run_fixture(self.MULTI_FX, reference_scheduler=True)
        assert engine.max_runnable_observed >= 3
        assert stats.spawns > 100

    @pytest.mark.parametrize("fx", [MULTI_FX] + [GOLDEN[n] for n in sorted(GOLDEN)],
                             ids=["multi_context"] + sorted(GOLDEN))
    def test_fast_scheduler_matches_reference(self, fx):
        _eng_ref, ref_stats = _run_fixture(fx, reference_scheduler=True)
        _eng_fast, fast_stats = _run_fixture(fx, reference_scheduler=False)
        assert _canonical_stats(fast_stats) == _canonical_stats(ref_stats)

    # modes no golden fixture runs: SPMT's position-triggered resolution
    # fires inside a burst, CMP keeps per-core allocator groups, the wide
    # window never hits a ROB/IQ/rename limit, SMT breaks ties by ICOUNT
    # and no-stall MTVP keeps the parent fetching beside its children
    @pytest.mark.parametrize("workload", ["mcf", "gcc 1", "twolf", "art 1"])
    @pytest.mark.parametrize("config", sorted(MODE_PIN_CONFIGS))
    def test_uncovered_modes_match_reference(self, config, workload):
        fx = dict(_mode_pin_fixture(config, workload), seed=0)
        _eng_ref, ref_stats = _run_fixture(fx, reference_scheduler=True)
        _eng_fast, fast_stats = _run_fixture(fx, reference_scheduler=False)
        assert _canonical_stats(fast_stats) == _canonical_stats(ref_stats)

    @pytest.mark.parametrize(
        "pair",
        [
            ("mcf", "gzip g"),
            ("gcc 1", "art 1"),
            ("twolf", "vpr r"),
            ("mcf", "gzip g", "gcc 1", "art 1"),
        ],
    )
    def test_smt_co_schedule_matches_reference(self, pair):
        # the SMT model breaks hint ties by its ICOUNT priority; the
        # optimized scan and the reference scheduler must apply the same
        # tie-break, with two programs and with four
        traces = [get_workload(w).trace(length=3000, seed=0) for w in pair]
        runs = [
            Engine(
                traces[0], MachineConfig.smt(len(pair)), traces=traces,
                reference_scheduler=reference,
            ).run()
            for reference in (True, False)
        ]
        assert _canonical_stats(runs[1]) == _canonical_stats(runs[0])

    def test_faster_memory_slowdown_matches_reference(self):
        # warm-started MTVP-8 with the oracle predictor and the always
        # selector: halving the memory latency turns most STVP fallbacks
        # (spawns denied for want of a context) into spawns, and the run
        # takes 3.5x the cycles.  Both schedulers measure the same, so the
        # non-monotonicity is the model's, not the scheduler's (DESIGN.md
        # §6)
        measured = {}
        for mem_latency in (1000, 500):
            fx = {
                "workload": "gcc 2",
                "length": 2000,
                "seed": 1,
                "config": ["mtvp", {"threads": 8, "mem_latency": mem_latency}],
                "predictor": "oracle",
                "selector": "always",
            }
            _eng_ref, ref_stats = _run_fixture(fx, reference_scheduler=True)
            _eng_fast, fast_stats = _run_fixture(fx, reference_scheduler=False)
            assert _canonical_stats(fast_stats) == _canonical_stats(ref_stats)
            measured[mem_latency] = (
                fast_stats.cycles,
                fast_stats.spawns,
                fast_stats.spawn_denied_no_context,
            )
        assert measured == {1000: (1445, 37, 186), 500: (5053, 215, 8)}


#: one config per registered execution model; spawning modes use an
#: always-select Wang-Franklin predictor so spawns, kills and
#: store-buffer stalls all happen inside the segmented run
MODE_CONFIGS = {
    "baseline": MachineConfig.hpca05_baseline,
    "stvp": MachineConfig.stvp,
    "spawn_only": lambda: MachineConfig.spawn_only(4),
    "mtvp": lambda: MachineConfig.mtvp(4, store_buffer_entries=4, multi_value=2),
    "smt": lambda: MachineConfig.smt(2),
    "spmt": lambda: MachineConfig.spmt(4),
}


def _mode_engine(mode: str) -> Engine:
    config = MODE_CONFIGS[mode]()
    multi_program = resolve_model(mode).multi_program
    traces = [
        get_workload("mcf").trace(length=1500, seed=seed)
        for seed in range(config.num_contexts if multi_program else 1)
    ]
    return Engine(
        traces[0],
        config,
        predictor=WangFranklinPredictor(),
        selector=AlwaysSelector(),
        traces=traces if multi_program else None,
    )


class TestSegmentedRuns:
    """``run(max_steps=k)`` pauses a burst exactly at its budget, and the
    resumed segments add up to the one-shot run, in every mode."""

    def test_every_registered_mode_has_a_config(self):
        assert set(names()) == set(MODE_CONFIGS)

    @pytest.mark.parametrize("k", [1, 7, 97])
    @pytest.mark.parametrize("mode", sorted(MODE_CONFIGS))
    def test_segmented_run_equals_one_shot(self, mode, k):
        one_shot = _mode_engine(mode).run()
        engine = _mode_engine(mode)
        segments = 0
        stats = None
        while stats is None:
            stats = engine.run(max_steps=k)
            segments += 1
            if stats is None:
                # paused: the last burst stopped exactly at the budget
                assert engine._global_fetched == segments * k
        assert stats_digest(stats) == stats_digest(one_shot)
        assert stats.instructions_stepped == one_shot.instructions_stepped


class TestBookkeeping:
    def test_cache_occupancy_tracks_actual_lines(self):
        cache = Cache(size_bytes=4096, assoc=2, line_size=64)
        assert cache.occupancy == 0
        # fill past capacity so insert exercises all three branches
        # (new line, re-reference, eviction)
        for i in range(200):
            cache.insert((i * 64) % (8192))
        cache.insert(0)  # re-reference a resident line
        assert cache.occupancy == sum(len(s) for s in cache._view())
        assert 0 < cache.occupancy <= cache.num_sets * cache.assoc

    def test_inflight_prune_is_amortized(self):
        h = MemoryHierarchy()
        # below the threshold nothing is scanned, regardless of staleness
        h._inflight = {line: 0 for line in range(100)}
        h._prune_inflight(now=10**9)
        assert len(h._inflight) == 100

        # past the threshold, stale records go and the threshold re-arms
        # to twice the survivors (floored), so the next sweep is again
        # amortized against new growth rather than every access
        h._inflight = {line: 0 for line in range(5000)}
        h._inflight.update({line: 10**9 for line in range(5000, 5100)})
        h._prune_inflight(now=10**9)
        assert len(h._inflight) == 100
        assert h._prune_threshold == 4096

        h._inflight = {line: 10**9 for line in range(5000)}
        h._prune_inflight(now=10**9)
        assert len(h._inflight) == 5000
        assert h._prune_threshold == 10000


class TestThroughputLayer:
    def test_cli_profile_writes_loadable_profile(self, tmp_path, capsys):
        from repro.__main__ import main

        prof = tmp_path / "run.prof"
        rc = main(["run", "mcf", "--machine", "baseline",
                   "--length", "400", "--profile", str(prof)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sim throughput" in out and "kips" in out
        stats = pstats.Stats(str(prof))
        functions = {fn for _, _, fn in stats.stats}
        assert "run" in functions or "_run_scheduler" in functions

    def test_engine_reports_wall_time_and_kips(self):
        trace = get_workload("mcf").trace(length=500, seed=0)
        engine = Engine(trace, MachineConfig.hpca05_baseline())
        stats = engine.run()
        assert stats.wall_seconds > 0
        assert stats.sim_kips > 0
        assert "wall_seconds" not in stats.to_dict()
