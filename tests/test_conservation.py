"""The conservation checker every fresh result passes before it is stored.

``check_conservation`` holds two equalities: useful instructions equal the
measured length (once per program of a multi-program run), and useful plus
wasted instructions equal ``instructions_stepped``.  ``run_simulations``
runs it on every fresh result before the result cache sees it, so a
result that breaks it fails its task — a sweep row ends ``failed`` with
the checker's message — and is never cached.  Because every entry was
checked when it was written, a cache hit can be committed unread.
"""

from __future__ import annotations

import pytest

from repro.core import ConservationError, MachineConfig, SimStats, check_conservation
from repro.harness import (
    ExecutionPolicy,
    ResultCache,
    RunSpec,
    SimulationError,
    run_simulations,
)
from repro.harness import parallel
from repro.sweep import ResultStore, SweepSpec, run_sweep

LENGTH = 1200


class TestChecker:
    def test_useful_must_equal_the_measured_length(self):
        stats = SimStats(useful_instructions=LENGTH - 1, instructions_stepped=LENGTH - 1)
        with pytest.raises(
            ConservationError,
            match=f"useful_instructions {LENGTH - 1} != measured length {LENGTH}",
        ):
            check_conservation(stats, LENGTH)

    def test_useful_plus_wasted_must_equal_stepped(self):
        stats = SimStats(
            useful_instructions=LENGTH, wasted_instructions=7, instructions_stepped=LENGTH
        )
        with pytest.raises(
            ConservationError,
            match=rf"useful {LENGTH} \+ wasted 7 = {LENGTH + 7} "
            rf"!= instructions_stepped {LENGTH}",
        ):
            check_conservation(stats, LENGTH)

    def test_a_multi_program_run_counts_one_length_per_program(self):
        rows = [{"stream": 0}, {"stream": 1}]
        check_conservation(
            SimStats(useful_instructions=2 * LENGTH, instructions_stepped=2 * LENGTH,
                     per_context=rows),
            LENGTH,
        )
        with pytest.raises(ConservationError, match=f"!= measured length {2 * LENGTH}"):
            check_conservation(
                SimStats(useful_instructions=LENGTH, instructions_stepped=LENGTH,
                         per_context=rows),
                LENGTH,
            )


class TestModesConserve:
    """The modes the golden fixtures leave out (their digests are checked,
    with the checker, in ``test_perf_kernel``) and the sampled protocol."""

    @pytest.mark.parametrize("spec, workload", [
        (RunSpec("smt", lambda: MachineConfig.smt(programs=2)), "mcf"),
        (RunSpec("spmt", MachineConfig.spmt), "gcc 1"),
        (RunSpec("cmp", lambda: MachineConfig.cmp(2), "wang-franklin"), "mcf"),
    ], ids=["smt", "spmt", "cmp"])
    def test_a_run_passes_the_checker(self, spec, workload):
        check_conservation(spec.run(workload, LENGTH), LENGTH)

    def test_run_simulations_checks_the_sampled_length(self):
        # warm 500, measure 700: the trace length the task names is not
        # what the run measures
        spec = RunSpec("w", MachineConfig.mtvp, "wang-franklin", warmup=500, sample=700)
        (stats,) = run_simulations(
            [("mcf", spec, 5000, 0)], policy=ExecutionPolicy(cache=False)
        )
        assert stats.useful_instructions == 700


#: synthetic results, one per broken equality, and the message each gives
BROKEN = {
    "useful": (
        SimStats(cycles=9, useful_instructions=LENGTH - 1, instructions_stepped=LENGTH - 1),
        f"useful_instructions {LENGTH - 1} != measured length {LENGTH}",
    ),
    "stepped": (
        SimStats(cycles=9, useful_instructions=LENGTH, wasted_instructions=3,
                 instructions_stepped=LENGTH),
        f"useful {LENGTH} + wasted 3 = {LENGTH + 3} != instructions_stepped {LENGTH}",
    ),
}


@pytest.fixture(params=sorted(BROKEN))
def broken(request, monkeypatch):
    """Every simulation returns the synthetic result; yields its message."""
    stats, message = BROKEN[request.param]
    monkeypatch.setattr(parallel, "_run_task", lambda *_args, **_kwargs: stats)
    return message


class TestViolationsAreFailures:
    def test_a_violating_result_fails_its_task_uncached(self, broken, tmp_path):
        cache = ResultCache(tmp_path)
        task = ("mcf", RunSpec("b", MachineConfig.hpca05_baseline), LENGTH, 0)
        with pytest.raises(SimulationError, match="ConservationError") as exc:
            run_simulations([task], policy=ExecutionPolicy(cache=cache))
        assert broken in str(exc.value)
        assert isinstance(exc.value.cause, ConservationError)
        (collected,) = run_simulations(
            [task], policy=ExecutionPolicy(cache=cache), on_error="collect"
        )
        assert isinstance(collected, SimulationError)
        assert (cache.stores, len(cache)) == (0, 0)

    def test_a_violating_row_is_failed_with_the_message(self, broken, tmp_path):
        spec = SweepSpec(
            name="conserve",
            base={"machine": "mtvp", "threads": 2},
            workloads=("mcf",),
            lengths=(LENGTH,),
            seeds=(0,),
            retries=0,
        )
        store = ResultStore(tmp_path / "s.db")
        cache = ResultCache(tmp_path / "cache")
        summary = run_sweep(spec, store, policy=ExecutionPolicy(jobs=1, cache=cache))
        rows = store.rows("conserve")
        assert summary.failed == summary.total == len(rows) == 2
        for row in rows:
            assert row["status"] == "failed" and row["stats"] is None
            assert "ConservationError: " + broken in row["error"]
        assert (cache.stores, len(cache)) == (0, 0)
