"""The in-process warm-state memo: ``RunSpec.run`` without a store.

A ``warmup=0`` run's warm start builds architectural state (caches,
branch and value-predictor tables) that every timing configuration on the
same trace shares, so :data:`~repro.harness.checkpoint.MEMORY_CHECKPOINTS`
keeps it as digest-framed bytes in a small LRU.  Contracts:

* a restored run is byte-identical to a fresh ``checkpoints=False`` run,
  and a restore never changes the entry it came from;
* instrumented, multi-program, explicit-trace and lambda-factory runs,
  and ``checkpoints=False``, never touch the memo;
* a damaged frame is a discarded miss, and the LRU stays within capacity;
* serial, pooled and cached ``run_simulations`` agree byte for byte.
"""

from __future__ import annotations

import functools

import pytest

from repro import simulate
from repro.core import MachineConfig
from repro.harness import ExecutionPolicy, ResultCache, RunSpec, compare_modes
from repro.harness.bench import stats_digest
from repro.harness.checkpoint import MEMORY_CHECKPOINTS, _MemoryCheckpoints
from repro.harness.parallel import _pool_batches
from repro.obs import MetricsRegistry, Tracer
from repro.workloads import get_workload

LENGTH = 2000
BASELINE = RunSpec("baseline", MachineConfig.hpca05_baseline)
STVP = RunSpec("stvp", MachineConfig.stvp, predictor_factory="wang-franklin")
MTVP8 = RunSpec(
    "mtvp8", functools.partial(MachineConfig.mtvp, 8),
    predictor_factory="wang-franklin",
)


def traffic(store=MEMORY_CHECKPOINTS) -> tuple[int, int, int]:
    return store.hits, store.misses, store.stores


class TestRestoredRunsMatchFreshOnes:
    @pytest.mark.parametrize("workload", ["mcf", "gzip g", "swim"])
    def test_one_entry_serves_every_mode(self, workload):
        fresh = {
            spec.name: stats_digest(spec.run(workload, LENGTH, checkpoints=False))
            for spec in (BASELINE, STVP, MTVP8)
        }
        store = _MemoryCheckpoints(capacity=2)
        order = (BASELINE, STVP, MTVP8, BASELINE, STVP)
        got = [
            (spec.name, stats_digest(spec.run(workload, LENGTH, checkpoints=store)))
            for spec in order
        ]
        assert got == [(spec.name, fresh[spec.name]) for spec in order]
        # baseline and stvp warm; mtvp8 restores stvp's entry (same
        # architecture), then both recipes restore their own
        assert traffic(store) == (3, 2, 2)

    def test_restores_leave_the_entry_unchanged(self):
        store = _MemoryCheckpoints(capacity=2)
        STVP.run("mcf", LENGTH, checkpoints=store)
        (key,) = store._frames
        frame = bytes(store._frames[key])
        first, second = store.get(key), store.get(key)
        assert first == second and first is not second
        assert first["predictor"] is not second["predictor"]
        a = MTVP8.run("mcf", LENGTH, checkpoints=store)
        b = MTVP8.run("mcf", LENGTH, checkpoints=store)
        assert stats_digest(a) == stats_digest(b)
        assert store._frames[key] == frame

    def test_serial_runs_restore_within_each_workload(self):
        # compare_modes lists every baseline task before the spec tasks;
        # run in that order, a 2-entry LRU would evict each workload's
        # entry before its next recipe came back to it
        names = ("mcf", "gzip g", "swim")
        before = traffic()
        compare_modes(
            names, [STVP, MTVP8], length=LENGTH,
            policy=ExecutionPolicy(jobs=1, cache=False, checkpoints=False),
        )
        hits, misses, stores = (
            now - then for now, then in zip(traffic(), before)
        )
        assert hits >= len(names)  # every mtvp8 restores stvp's entry
        assert hits + misses == 3 * len(names)


class TestMemoBypass:
    @pytest.mark.parametrize(
        "run",
        [
            pytest.param(lambda: STVP.run("mcf", LENGTH, tracer=Tracer()), id="tracer"),
            pytest.param(
                lambda: STVP.run("mcf", LENGTH, metrics=MetricsRegistry()), id="metrics"
            ),
            pytest.param(
                lambda: RunSpec("o", MachineConfig.stvp, observe=True).run("mcf", LENGTH),
                id="observe",
            ),
            pytest.param(
                lambda: RunSpec("smt", MachineConfig.smt).run("mcf", LENGTH), id="smt"
            ),
            pytest.param(
                lambda: simulate(
                    get_workload("mcf").trace(LENGTH, 0), MachineConfig.stvp()
                ),
                id="trace-list",
            ),
            pytest.param(
                lambda: RunSpec(
                    "lambda", MachineConfig.stvp, predictor_factory=lambda: None
                ).run("mcf", LENGTH),
                id="lambda-factory",
            ),
            pytest.param(
                lambda: STVP.run("mcf", LENGTH, checkpoints=False), id="checkpoints-off"
            ),
        ],
    )
    def test_run_never_touches_the_memo(self, run):
        before = traffic()
        run()
        assert traffic() == before

    def test_store_without_a_key_is_an_error(self):
        with pytest.raises(ValueError, match="checkpoint_key"):
            simulate(
                get_workload("mcf"), MachineConfig.stvp(), length=LENGTH,
                warmup=1000, checkpoints=_MemoryCheckpoints(capacity=2),
            )

    def test_unkeyable_spec_leaves_a_given_store_alone(self, tmp_path):
        from repro.harness import CheckpointStore

        store = CheckpointStore(tmp_path)
        spec = RunSpec(
            "lambda", MachineConfig.stvp, predictor_factory=lambda: None, warmup=500
        )
        spec.run("mcf", LENGTH, checkpoints=store)
        assert traffic(store) == (0, 0, 0) and len(store) == 0


class TestMemoryFrames:
    def test_damaged_frame_is_a_discarded_miss(self):
        store = _MemoryCheckpoints(capacity=2)
        store.put("k", {"pos": 3})
        frame = bytearray(store._frames["k"])
        for pos in (0, len(frame) - 1):
            damaged = bytearray(frame)
            damaged[pos] ^= 1
            store._frames["k"] = bytes(damaged)
            assert store.get("k") is None
            assert "k" not in store._frames
            store._frames["k"] = bytes(frame)
        store._frames["k"] = bytes(frame[:10])
        assert store.get("k") is None
        assert traffic(store) == (0, 3, 1)

    def test_lru_never_exceeds_its_capacity(self):
        store = _MemoryCheckpoints(capacity=2)
        for i in range(5):
            store.put(f"k{i}", {"pos": i})
            assert len(store) <= 2
        assert list(store._frames) == ["k3", "k4"]
        assert store.get("k3") == {"pos": 3}  # now the most recent
        store.put("k5", {"pos": 5})
        assert list(store._frames) == ["k3", "k5"]
        assert store.get("k4") is None

    def test_concurrent_traffic_keeps_the_lru_consistent(self):
        import sys
        import threading

        store = _MemoryCheckpoints(capacity=2)
        errors = []

        def worker(seed: int) -> None:
            try:
                for i in range(300):
                    key = f"k{(seed + i) % 5}"
                    store.put(key, {"key": key})
                    got = store.get(key)
                    if got is not None and got != {"key": key}:
                        errors.append((key, got))
                    if len(store) > 2:
                        errors.append(("size", len(store)))
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert store.stores == 6 * 300
        assert store.hits + store.misses == 6 * 300

    def test_default_store_is_bounded(self):
        assert MEMORY_CHECKPOINTS.capacity == 2
        assert len(MEMORY_CHECKPOINTS) <= 2


class TestFamilies:
    def test_serial_pooled_and_cached_runs_agree(self, tmp_path):
        names = ["mcf", "gzip g"]

        def digests(**kwargs):
            results = compare_modes(names, [STVP, MTVP8], length=LENGTH, **kwargs)
            return {
                mode: [stats_digest(r.stats) for r in rows]
                for mode, rows in results.items()
            }

        serial = digests(policy=ExecutionPolicy(cache=False))
        assert digests(policy=ExecutionPolicy(jobs=2, cache=False)) == serial
        cache = ResultCache(tmp_path)
        assert digests(policy=ExecutionPolicy(jobs=2, cache=cache)) == serial
        assert digests(policy=ExecutionPolicy(jobs=1, cache=cache)) == serial
        assert cache.hits == 3 * len(names)

    def test_families_split_only_while_workers_would_idle(self):
        families = [[1, 2, 3], [4]]
        assert _pool_batches(families, 2) == [[1, 2, 3], [4]]
        assert _pool_batches(families, 3) == [[1], [2, 3], [4]]
        assert _pool_batches([[1], [2]], 8) == [[1], [2]]
        assert _pool_batches([], 4) == []
