"""The step kernel does only the per-instruction work something reads.

``StepMixin._steps`` and the execution models skip five kinds of
per-load work when nothing consumes their result:

* the cache-level probe (``MemoryHierarchy.probe_level``) feeds only the
  load selector, so it runs only for selectors with ``reads_level``;
* deferred ILP-pred measures and predictor training feed only value
  prediction, so modes without it (baseline, SMT, SpMT) do neither;
* deferred measures and spawn resolutions feed only the selector's
  ``record``, so selectors without ``learns`` (always, miss-oracle) get
  no measures and no ``record`` calls;
* the store-buffer search runs only while the buffer holds a store, which
  baseline and STVP never do.

These tests count calls by wrapping the methods on their classes, so a
regression that brings the dead work back fails here even though results
(which the golden digests pin) would not change.

Wang–Franklin's ``train`` settles the acting prediction its ``predict``
recorded for the same load, so it walks its tables again only when
another predictor call came in between.  The kernel trains each load
right after predicting it, so ``TestActingRecord`` checks that no timed
train walks the tables: a predictor call slipped in between would undo
that saving without changing a result.

The kernel does not count loads either: every timed load is a
store-buffer forward or one ``MemoryHierarchy.load``, so ``loads`` is
their sum.  ``TestLoadCount`` checks that sum against the loads of the
measured trace, a count that does not come from the formula.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import _steady_state_footprint
from repro.core import MachineConfig
from repro.core.engine import Engine
from repro.core.modes import names, resolve_model
from repro.isa import OpClass
from repro.memory import MemLevel, MemoryHierarchy, StoreBuffer
from repro.select import (
    AlwaysSelector,
    IlpCommitSelector,
    IlpPredSelector,
    LoadSelector,
    MissOracleSelector,
)
from repro.vp import OraclePredictor, WangFranklinPredictor
from repro.workloads import get_workload

#: ``(class, method)`` pairs whose calls the tests count
COUNTED = (
    (MemoryHierarchy, "probe_level"),
    (StoreBuffer, "search"),
    (Engine, "_defer_measure"),
    (IlpPredSelector, "record"),
    (LoadSelector, "record"),
    (IlpPredSelector, "choose"),
    (OraclePredictor, "train"),
    (OraclePredictor, "predict"),
)

#: the models without value prediction, one preset each
NON_PREDICTING = {
    "baseline": MachineConfig.hpca05_baseline,
    "smt": lambda: MachineConfig.smt(2),
    "spmt": lambda: MachineConfig.spmt(8),
}


#: one preset per registered execution model
EVERY_MODE = {
    "baseline": MachineConfig.hpca05_baseline,
    "stvp": MachineConfig.stvp,
    "spawn_only": lambda: MachineConfig.spawn_only(8),
    "mtvp": lambda: MachineConfig.mtvp(8),
    "smt": lambda: MachineConfig.smt(2),
    "spmt": lambda: MachineConfig.spmt(8),
}


def _engine(config, selector, workload="mcf", length=3000, predictor=None):
    programs = config.num_contexts if resolve_model(config.mode).multi_program else 1
    wl = get_workload(workload)
    traces = [wl.trace(length=length, seed=seed) for seed in range(programs)]
    warm = None
    if config.warm_caches and programs == 1:
        warm = _steady_state_footprint(wl, config)
    return Engine(
        traces[0],
        config,
        predictor=predictor or OraclePredictor(),
        selector=selector,
        warm_addresses=warm,
        traces=traces if programs > 1 else None,
    )


def _counted_run(monkeypatch, engine):
    """Run ``engine`` and return its stats and the calls made by the run."""
    calls: Counter[str] = Counter()

    def counting(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return wrapper

    for cls, attr in COUNTED:
        name = f"{cls.__name__}.{attr}"
        monkeypatch.setattr(cls, attr, counting(name, getattr(cls, attr)))
    stats = engine.run()
    return stats, calls


def _loads_with_values(trace) -> int:
    return sum(
        1 for inst in trace if inst.op is OpClass.LOAD and inst.value is not None
    )


class TestNonPredictingModes:
    def test_presets_cover_every_non_predicting_mode(self):
        expected = {
            n for n in names() if not resolve_model(n).uses_value_prediction
        }
        assert set(NON_PREDICTING) == expected

    def test_baseline_does_no_load_side_work(self, monkeypatch):
        engine = _engine(MachineConfig.hpca05_baseline(), IlpPredSelector())
        stats, calls = _counted_run(monkeypatch, engine)
        # the run has loads, and loads missing past the L1 (the ones the
        # kernel used to measure for ILP-pred)
        assert stats.loads > 0
        assert sum(
            n for level, n in stats.level_counts.items() if level >= MemLevel.L2
        ) > 0
        for name in (
            "MemoryHierarchy.probe_level",
            "Engine._defer_measure",
            "IlpPredSelector.record",
            "OraclePredictor.train",
            "StoreBuffer.search",
        ):
            assert calls[name] == 0, name

    @pytest.mark.parametrize("mode", sorted(NON_PREDICTING))
    def test_no_selector_or_predictor_calls(self, monkeypatch, mode):
        engine = _engine(NON_PREDICTING[mode](), IlpPredSelector())
        stats, calls = _counted_run(monkeypatch, engine)
        assert stats.loads > 0
        for name in (
            "MemoryHierarchy.probe_level",
            "Engine._defer_measure",
            "IlpPredSelector.record",
            "IlpPredSelector.choose",
            "OraclePredictor.train",
            "OraclePredictor.predict",
        ):
            assert calls[name] == 0, (mode, name)


class TestPredictingModes:
    def test_stvp_ilp_pred_neither_probes_nor_searches(self, monkeypatch):
        engine = _engine(MachineConfig.stvp(), IlpPredSelector())
        stats, calls = _counted_run(monkeypatch, engine)
        assert calls["MemoryHierarchy.probe_level"] == 0
        assert calls["StoreBuffer.search"] == 0
        # the work that is read still runs: every load trains at commit,
        # and the selector is consulted and learns
        assert calls["OraclePredictor.train"] == _loads_with_values(engine.trace)
        assert calls["IlpPredSelector.choose"] > 0
        assert calls["IlpPredSelector.record"] > 0
        assert stats.stvp_predictions > 0

    def test_miss_oracle_probes_each_unforwarded_load(self, monkeypatch):
        engine = _engine(MachineConfig.mtvp(8), MissOracleSelector())
        stats, calls = _counted_run(monkeypatch, engine)
        # speculative stores reach the buffer and forward to some loads
        assert calls["StoreBuffer.search"] > 0
        assert stats.store_forwards > 0
        assert (
            calls["MemoryHierarchy.probe_level"]
            == stats.loads - stats.store_forwards
        )
        assert stats.mtvp_predictions > 0

    def test_reads_level_flags(self):
        # True on the base class, so a custom selector gets the level
        assert LoadSelector.reads_level
        assert MissOracleSelector.reads_level
        for cls in (AlwaysSelector, IlpPredSelector, IlpCommitSelector):
            assert not cls.reads_level, cls

    def test_custom_selector_gets_the_level(self, monkeypatch):
        seen: list[MemLevel | None] = []

        class Recording(LoadSelector):
            def choose(self, inst, spawn_available, expected_level=None):
                seen.append(expected_level)
                return MissOracleSelector().choose(
                    inst, spawn_available, expected_level
                )

        engine = _engine(MachineConfig.mtvp(8), Recording())
        _stats, calls = _counted_run(monkeypatch, engine)
        assert seen and None not in seen
        assert calls["MemoryHierarchy.probe_level"] > 0


class TestMeasures:
    @pytest.mark.parametrize(
        "selector",
        [AlwaysSelector, MissOracleSelector],
        ids=["always", "miss-oracle"],
    )
    def test_selectors_that_learn_nothing_get_no_measures(
        self, monkeypatch, selector
    ):
        engine = _engine(MachineConfig.mtvp(8), selector())
        stats, calls = _counted_run(monkeypatch, engine)
        # the run spawns, and has non-MTVP loads (STVP or unpredicted):
        # the episodes a learning selector is measured on
        assert stats.mtvp_predictions > 0
        assert stats.loads > stats.mtvp_predictions
        assert calls["Engine._defer_measure"] == 0

    @pytest.mark.parametrize(
        "selector",
        [AlwaysSelector, MissOracleSelector],
        ids=["always", "miss-oracle"],
    )
    def test_resolutions_do_not_record_for_selectors_that_learn_nothing(
        self, monkeypatch, selector
    ):
        # both selectors inherit the base class's no-op ``record``
        assert "record" not in vars(selector)
        engine = _engine(MachineConfig.mtvp(8), selector())
        stats, calls = _counted_run(monkeypatch, engine)
        assert stats.mtvp_correct + stats.mtvp_incorrect > 0
        assert calls["LoadSelector.record"] == 0

    def test_a_learning_selector_gets_measures(self, monkeypatch):
        engine = _engine(MachineConfig.mtvp(8), IlpPredSelector())
        _stats, calls = _counted_run(monkeypatch, engine)
        assert calls["Engine._defer_measure"] > 0
        assert calls["IlpPredSelector.record"] > 0

    def test_learns_flags(self):
        # True on the base class, so a custom selector's record is called
        assert LoadSelector.learns
        for cls in (IlpPredSelector, IlpCommitSelector):
            assert cls.learns, cls
        for cls in (AlwaysSelector, MissOracleSelector):
            assert not cls.learns, cls


class TestActingRecord:
    @pytest.mark.parametrize("machine", ["stvp", "mtvp"])
    def test_timed_trains_settle_the_prediction(self, monkeypatch, machine):
        engine = _engine(
            EVERY_MODE[machine](), IlpPredSelector(), predictor=WangFranklinPredictor()
        )
        walks: Counter[str] = Counter()
        walk, train = WangFranklinPredictor._walk, WangFranklinPredictor.train

        def counting_walk(self, inst, allocate):
            walks["train" if allocate else "predict"] += 1
            return walk(self, inst, allocate)

        def counting_train(self, inst, actual):
            walks["trains"] += 1
            return train(self, inst, actual)

        monkeypatch.setattr(WangFranklinPredictor, "_walk", counting_walk)
        monkeypatch.setattr(WangFranklinPredictor, "train", counting_train)
        # the fast-forward trains with nothing predicted: every train walks
        engine.fast_forward(1000)
        assert walks["train"] == walks["trains"] == _loads_with_values(
            engine.trace[:1000]
        )
        walks.clear()
        stats = engine.run()
        assert walks["trains"] >= _loads_with_values(engine.trace[1000:])
        assert walks["predict"] >= walks["trains"]
        assert walks["train"] == 0
        assert stats.stvp_predictions + stats.mtvp_predictions > 0


class TestLoadCount:
    @pytest.mark.parametrize("warmup", [0, 1500])
    @pytest.mark.parametrize("machine", ["baseline", "stvp"])
    def test_loads_are_the_measured_trace_loads(self, machine, warmup):
        engine = _engine(EVERY_MODE[machine](), IlpPredSelector())
        engine.fast_forward(warmup)
        start = engine._contexts[0].pos
        assert start == warmup
        stats = engine.run()
        measured = engine.trace[start:]
        assert stats.loads == sum(1 for inst in measured if inst.op is OpClass.LOAD)
        assert stats.loads > 0

    def test_every_mode_is_covered(self):
        assert {resolve_model(EVERY_MODE[m]().mode).key for m in EVERY_MODE} == set(
            names()
        )

    @pytest.mark.parametrize("machine", sorted(EVERY_MODE))
    def test_loads_are_forwards_plus_hierarchy_loads(self, machine):
        engine = _engine(EVERY_MODE[machine](), AlwaysSelector())
        stats = engine.run()
        assert stats.loads > 0
        assert stats.loads == stats.store_forwards + sum(stats.level_counts.values())
