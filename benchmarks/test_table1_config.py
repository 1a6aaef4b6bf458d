"""E0 — Table 1: the simulated machine configuration.

Table 1 is the paper's parameter table rather than a measurement; this
benchmark asserts the encoded configuration matches it field by field and
times a baseline simulation of the machine as the suite's reference run.
"""

from repro import MachineConfig, simulate
from repro.select import IlpPredSelector

from benchmarks.conftest import BENCH_LENGTH


def test_table1_parameters_match_paper(benchmark):
    def build():
        return MachineConfig.hpca05_baseline()

    cfg = benchmark.pedantic(build, rounds=1, iterations=1)
    assert cfg.front_latency == 15  # the part of the 30-stage pipe modelled
    assert cfg.fetch_width == 16
    assert cfg.rob_size == 256
    assert cfg.rename_regs == 224
    assert cfg.iq_size == 64
    assert cfg.issue_width == 8
    assert (cfg.int_issue, cfg.fp_issue, cfg.mem_issue) == (6, 2, 4)
    assert (cfg.l1_size, cfg.l1_assoc, cfg.l1_latency) == (64 << 10, 2, 2)
    assert (cfg.l2_size, cfg.l2_assoc, cfg.l2_latency) == (512 << 10, 8, 20)
    assert (cfg.l3_size, cfg.l3_assoc, cfg.l3_latency) == (4 << 20, 16, 50)
    assert cfg.mem_latency == 1000
    assert cfg.prefetch_entries == 256
    assert cfg.prefetch_streams == 8


def test_baseline_reference_run(benchmark):
    def run():
        return simulate(
            "mcf",
            MachineConfig.hpca05_baseline(),
            selector=IlpPredSelector(),
            length=BENCH_LENGTH,
        )

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert stats.useful_instructions == BENCH_LENGTH
    assert 0.0 < stats.useful_ipc < 8.0
