"""Engine checkpointing: the warmup-checkpoint contract.

``fast_forward`` then run must equal restore-the-snapshot then run, and
one snapshot must serve every machine that differs only in timing axes.
Restores refuse a payload with a bad position, version or scope, and an
engine whose run has started; ``snapshot()`` refuses an engine whose
timed run has started (paused or finished), since the payload would
silently skip the instructions already stepped.
"""

from __future__ import annotations

import hashlib
import json
import pickle

import pytest

from repro.core import Engine, MachineConfig, SimMode
from repro.select import AlwaysSelector, IlpPredSelector
from repro.vp import WangFranklinPredictor
from repro.workloads import get_workload

TRACE = get_workload("mcf").trace(3000, seed=0)

#: a config factory per simulation mode, all sharing the trace above
MODES = {
    "baseline": lambda: MachineConfig.hpca05_baseline(),
    "stvp": lambda: MachineConfig.stvp(),
    "mtvp": lambda: MachineConfig.mtvp(4),
    "spawn_only": lambda: MachineConfig.spawn_only(4),
}


def digest(stats) -> str:
    """Canonical byte-level identity of a stats object."""
    blob = json.dumps(stats.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def build(config, trace=TRACE) -> Engine:
    return Engine(
        trace,
        config,
        predictor=WangFranklinPredictor(),
        selector=IlpPredSelector(),
    )


class TestPausableRun:
    def test_run_with_budget_pauses_and_resumes(self):
        engine = build(MODES["mtvp"]())
        assert engine.run(max_steps=500) is None
        stats = engine.run()  # finish
        assert stats is not None
        assert stats.instructions_stepped >= len(TRACE)

    def test_segmented_run_equals_uninterrupted(self):
        ref = build(MODES["mtvp"]()).run()
        engine = build(MODES["mtvp"]())
        while engine.run(max_steps=97) is None:
            pass
        # the final successful segment returned the stats; rerun to fetch
        engine2 = build(MODES["mtvp"]())
        out = None
        while out is None:
            out = engine2.run(max_steps=97)
        assert digest(out) == digest(ref)

    def test_finished_engine_rejects_rerun(self):
        engine = build(MODES["baseline"]())
        engine.run()
        with pytest.raises(RuntimeError, match="once"):
            engine.run()


class TestFastForward:
    def test_fast_forward_advances_position_without_cycles(self):
        engine = build(MODES["mtvp"](), trace=TRACE)
        engine.fast_forward(1000)
        assert engine._contexts[0].pos == 1000
        assert engine.stats.warmup_instructions == 1000
        assert engine.stats.cycles == 0
        stats = engine.run()
        # only the measured interval is timed
        assert stats.instructions_stepped == len(TRACE) - 1000
        assert stats.warmup_instructions == 1000

    def test_fast_forward_rejects_started_engine(self):
        engine = build(MODES["baseline"]())
        engine.run(max_steps=10)
        with pytest.raises(RuntimeError):
            engine.fast_forward(100)

    def test_fast_forward_must_leave_a_measured_region(self):
        engine = build(MODES["baseline"]())
        with pytest.raises(ValueError):
            engine.fast_forward(len(TRACE))

    def test_warmup_key_only_serialized_when_nonzero(self):
        plain = build(MODES["baseline"]()).run()
        assert "warmup_instructions" not in plain.to_dict()
        warmed = build(MODES["baseline"]())
        warmed.fast_forward(500)
        assert warmed.run().to_dict()["warmup_instructions"] == 500


class TestArchSnapshot:
    def test_arch_restore_equals_fast_forward(self):
        warm = build(MODES["mtvp"]())
        warm.fast_forward(1500)
        payload = pickle.loads(pickle.dumps(warm.snapshot()))
        ref = warm.run()

        restored = build(MODES["mtvp"]())
        restored.restore(payload)
        assert digest(restored.run()) == digest(ref)

    def test_arch_checkpoint_shared_across_timing_axes(self):
        # a spawn-latency change is timing-only: the warmed architectural
        # state is identical, so one checkpoint must serve both machines
        warm = build(MachineConfig.mtvp(4))
        warm.fast_forward(1500)
        payload = warm.snapshot()

        direct = build(MachineConfig.mtvp(4, spawn_latency=32))
        direct.fast_forward(1500)
        ref = direct.run()

        restored = build(MachineConfig.mtvp(4, spawn_latency=32))
        restored.restore(payload)
        assert digest(restored.run()) == digest(ref)

    def test_arch_snapshot_rejects_speculative_state(self):
        engine = Engine(
            TRACE,
            MachineConfig.mtvp(8),
            predictor=WangFranklinPredictor(),
            selector=AlwaysSelector(),
        )
        while engine.run(max_steps=40) is None:
            if engine._pending:
                break
        assert engine._pending, "no spawn in flight; adjust the trace"
        with pytest.raises(RuntimeError):
            engine.snapshot()

    @pytest.mark.parametrize("max_steps", [100, None], ids=["paused", "finished"])
    def test_snapshot_refuses_a_started_engine(self, max_steps):
        engine = build(MODES["baseline"]())
        engine.run(max_steps=max_steps)
        with pytest.raises(RuntimeError, match="started"):
            engine.snapshot()

    def test_arch_restore_rejects_position_beyond_trace(self):
        warm = build(MODES["baseline"]())
        warm.fast_forward(2500)
        payload = warm.snapshot()
        short = build(MODES["baseline"](), trace=TRACE[:2000])
        with pytest.raises(ValueError, match="position"):
            short.restore(payload)
        for pos in (-1, 1000.0, "1000", True):
            with pytest.raises(ValueError, match="position"):
                build(MODES["baseline"]()).restore(dict(payload, pos=pos))

    def test_unknown_scope_rejected(self):
        payload = build(MODES["baseline"]()).snapshot()
        for scope in ("full", "partial", None):
            with pytest.raises(ValueError, match="scope"):
                build(MODES["baseline"]()).restore(dict(payload, scope=scope))

    def test_restore_requires_fresh_engine(self):
        payload = build(MODES["baseline"]()).snapshot()
        used = build(MODES["baseline"]())
        used.run(max_steps=10)
        with pytest.raises(RuntimeError, match="fresh"):
            used.restore(payload)

    def test_restore_validates_version(self):
        payload = build(MODES["baseline"]()).snapshot()
        payload["version"] = 999
        with pytest.raises(ValueError, match="version"):
            build(MODES["baseline"]()).restore(payload)
