"""Tests for machine configuration presets and statistics."""

import pytest

from repro.core import FetchPolicy, MachineConfig, SimMode, SimStats
from repro.memory import MemLevel


class TestTable1Defaults:
    """The defaults must reproduce Table 1 of the paper exactly."""

    def test_pipeline(self):
        cfg = MachineConfig()
        assert cfg.front_latency == 15  # the part of the 30-stage pipe modelled
        assert cfg.fetch_width == 16

    def test_windows(self):
        cfg = MachineConfig()
        assert cfg.rob_size == 256
        assert cfg.rename_regs == 224
        assert cfg.iq_size == 64

    def test_issue(self):
        cfg = MachineConfig()
        assert cfg.issue_width == 8
        assert cfg.int_issue == 6
        assert cfg.fp_issue == 2
        assert cfg.mem_issue == 4

    def test_memory_hierarchy(self):
        cfg = MachineConfig()
        assert (cfg.l1_size, cfg.l1_assoc, cfg.l1_latency) == (64 * 1024, 2, 2)
        assert (cfg.l2_size, cfg.l2_assoc, cfg.l2_latency) == (512 * 1024, 8, 20)
        assert (cfg.l3_size, cfg.l3_assoc, cfg.l3_latency) == (4 * 1024 * 1024, 16, 50)
        assert cfg.mem_latency == 1000

    def test_prefetcher(self):
        cfg = MachineConfig()
        assert cfg.prefetch_enabled
        assert cfg.prefetch_entries == 256
        assert cfg.prefetch_streams == 8


class TestPresets:
    def test_baseline_is_single_context_no_vp(self):
        cfg = MachineConfig.hpca05_baseline()
        assert cfg.mode is SimMode.BASELINE
        assert cfg.num_contexts == 1

    def test_stvp_single_context(self):
        cfg = MachineConfig.stvp()
        assert cfg.mode is SimMode.STVP
        assert cfg.num_contexts == 1

    def test_mtvp_thread_count(self):
        assert MachineConfig.mtvp(4).num_contexts == 4
        assert MachineConfig.mtvp(4).mode is SimMode.MTVP

    def test_mtvp_defaults_match_paper_realistic_setup(self):
        cfg = MachineConfig.mtvp(8)
        assert cfg.spawn_latency == 8
        assert cfg.store_buffer_entries == 128
        assert cfg.fetch_policy is FetchPolicy.SINGLE_FETCH_PATH

    def test_wide_window_preset(self):
        cfg = MachineConfig.wide_window()
        assert cfg.rob_size == 8192
        assert cfg.iq_size == 8192
        assert cfg.rename_regs >= 1 << 20
        assert cfg.mode is SimMode.BASELINE

    def test_spawn_only_preset(self):
        cfg = MachineConfig.spawn_only(8)
        assert cfg.mode is SimMode.SPAWN_ONLY
        assert cfg.num_contexts == 8

    def test_overrides_flow_through(self):
        cfg = MachineConfig.mtvp(8, spawn_latency=16, store_buffer_entries=None)
        assert cfg.spawn_latency == 16
        assert cfg.store_buffer_entries is None


class TestValidation:
    def test_rejects_zero_contexts(self):
        with pytest.raises(ValueError):
            MachineConfig(num_contexts=0)

    def test_rejects_zero_multi_value(self):
        with pytest.raises(ValueError):
            MachineConfig(multi_value=0)

    def test_rejects_negative_spawn_latency(self):
        with pytest.raises(ValueError):
            MachineConfig(spawn_latency=-1)


class TestSimStats:
    def test_ipc(self):
        s = SimStats(cycles=100, useful_instructions=250)
        assert s.useful_ipc == 2.5

    def test_ipc_zero_cycles(self):
        assert SimStats().useful_ipc == 0.0

    def test_prediction_accuracy(self):
        s = SimStats(
            stvp_predictions=4, stvp_correct=3, mtvp_predictions=6, mtvp_correct=3
        )
        assert s.total_predictions == 10
        assert s.prediction_accuracy == 0.6

    def test_branch_accuracy(self):
        s = SimStats(branches=100, branch_mispredicts=8)
        assert s.branch_accuracy == pytest.approx(0.92)
        assert SimStats().branch_accuracy == 1.0

    def test_memory_miss_fraction(self):
        s = SimStats(loads=50)
        s.level_counts[MemLevel.MEMORY] = 5
        assert s.memory_miss_fraction == pytest.approx(0.1)

    def test_multivalue_fraction(self):
        s = SimStats(followed_predictions=20, primary_wrong_candidate_present=5)
        assert s.multivalue_fraction == 0.25
        assert SimStats().multivalue_fraction == 0.0

    def test_summary_is_readable(self):
        s = SimStats(cycles=10, useful_instructions=20, spawns=2)
        text = s.summary()
        assert "useful IPC" in text
        assert "2.000" in text
