"""The in-process warm-state memo: ``RunSpec.run`` without a store.

A ``warmup=0`` run's warm start builds architectural state (caches,
branch and value-predictor tables) that every timing configuration on the
same trace shares, so :data:`~repro.harness.checkpoint.MEMORY_CHECKPOINTS`
keeps it as digest-framed bytes in a small LRU.  Contracts:

* a restored run is byte-identical to a fresh ``checkpoints=False`` run,
  and a restore never changes the entry or the warm template it came
  from;
* an observed run (tracer, metrics) warms and restores like any other:
  restored, its stats, ``extended`` and exported events equal a fresh
  run's;
* multi-program, explicit-trace and lambda-factory runs, and
  ``checkpoints=False``, never touch the memo;
* a damaged frame is a discarded miss, and the LRU stays within capacity;
* serial, pooled and cached ``run_simulations`` agree byte for byte.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest

from repro import simulate
from repro.core import MachineConfig
from repro.core.engine.snapshot import shared
from repro.harness import (
    CheckpointStore,
    ExecutionPolicy,
    ResultCache,
    RunSpec,
    compare_modes,
)
from repro.harness.bench import stats_digest
from repro.harness.checkpoint import MEMORY_CHECKPOINTS, _MemoryCheckpoints
from repro.harness.parallel import _pool_batches
from repro.obs import MetricsRegistry, Tracer
from repro.workloads import get_workload
from tests.conftest import arch_payload

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
        import pickle

        store = _MemoryCheckpoints(capacity=2)
        STVP.run("mcf", LENGTH, checkpoints=store)
        (key,) = store._frames
        frame = bytes(store._frames[key])
        # a hit is the store's warm template of the decoded frame, shared
        # by every restore
        first, second = store.get(key), store.get(key)
        assert first is second
        assert first == shared(pickle.loads(frame[store._DIGEST_SIZE:]))
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


class TestObservedRunsRestore:
    """An observed run restored from a :class:`CheckpointStore` or from
    the in-process memo equals a fresh one: no component reports before
    the timed run, so the warmed state carries no probe state."""

    MTVP8_WARMED = dataclasses.replace(MTVP8, name="mtvp8-warmed", warmup=2000)
    SPMT8 = RunSpec("spmt8", functools.partial(MachineConfig.spmt, 8))
    CASES = [
        pytest.param(BASELINE, "mcf", 0, id="baseline-mcf"),
        pytest.param(STVP, "gcc 1", 1, id="stvp-gcc1"),
        pytest.param(MTVP8_WARMED, "mcf", 1, id="mtvp8-warmup-mcf"),
        pytest.param(SPMT8, "gcc 1", 1, id="spmt8-gcc1"),
    ]

    @staticmethod
    def observed(spec, workload, seed, checkpoints, path):
        """Digest, ``extended`` and JSONL bytes of one observed run."""
        tracer = Tracer()
        stats = spec.run(
            workload, LENGTH, seed, tracer=tracer, metrics=MetricsRegistry(),
            checkpoints=checkpoints,
        )
        assert tracer.dropped == 0
        return stats_digest(stats), stats.extended, tracer.export_jsonl(path).read_bytes()

    @pytest.mark.parametrize("kind", ["directory", "memory"])
    @pytest.mark.parametrize("spec, workload, seed", CASES)
    def test_a_restored_observed_run_equals_a_fresh_one(
        self, spec, workload, seed, kind, tmp_path
    ):
        fresh = self.observed(spec, workload, seed, False, tmp_path / "fresh.jsonl")
        store = (
            CheckpointStore(tmp_path / "ckpt") if kind == "directory"
            else _MemoryCheckpoints(capacity=2)
        )
        for i in range(2):
            got = self.observed(spec, workload, seed, store, tmp_path / f"{i}.jsonl")
            assert got == fresh
        # the first run warmed and stored, the second restored
        assert traffic(store) == (1, 1, 1)
        assert fresh[1]["metrics"]["counters"] and fresh[2]

    def test_observed_runs_use_the_memo(self):
        before = traffic()
        dataclasses.replace(STVP, name="o", observe=True).run("mcf", LENGTH)
        STVP.run("mcf", LENGTH, tracer=Tracer())
        hits, misses, _stores = (now - then for now, then in zip(traffic(), before))
        # both consult the memo, and the second restores at the latest
        assert hits >= 1 and hits + misses == 2


class TestMemoBypass:
    @pytest.mark.parametrize(
        "run",
        [
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
        store.put("k", arch_payload(pos=3))
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
        store._frames["k"] = bytes(frame)
        assert store.get("k")["pos"] == 3

    def test_lru_never_exceeds_its_capacity(self):
        store = _MemoryCheckpoints(capacity=2)
        for i in range(5):
            store.put(f"k{i}", arch_payload(pos=i))
            assert len(store) <= 2
        assert list(store._frames) == ["k3", "k4"]
        assert store.get("k3")["pos"] == 3  # now the most recent
        store.put("k5", arch_payload(pos=5))
        assert list(store._frames) == ["k3", "k5"]
        assert store.get("k4") is None

    def test_concurrent_traffic_keeps_the_lru_consistent(self):
        import sys
        import threading

        store = _MemoryCheckpoints(capacity=2)
        payloads = {f"k{n}": arch_payload(key=f"k{n}") for n in range(5)}
        errors = []

        def worker(seed: int) -> None:
            try:
                for i in range(300):
                    key = f"k{(seed + i) % 5}"
                    store.put(key, payloads[key])
                    got = store.get(key)
                    if got is not None and got != shared(payloads[key]):
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
        assert store.hits

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


class TestWarmTemplate:
    """A store's warm template: the first hit of an entry builds it.

    A miss holds no template.  The first hit decodes the entry and builds
    its cache sets once; later hits of that entry return the same object,
    whose engines adopt the sets copy-on-write.  Every restore must still
    give the fresh digest, the shared sets must not change, and a damaged
    entry must stay a discarded miss while its template is held.
    """

    SAMPLED = RunSpec(
        "mtvp8-sampled", functools.partial(MachineConfig.mtvp, 8),
        predictor_factory="wang-franklin", warmup=1000, sample=1000,
    )

    @staticmethod
    def fingerprint(store) -> bytes:
        """The held template's state, LRU order included."""
        import pickle

        digest, template = store._template
        return digest + pickle.dumps(template)

    @pytest.mark.parametrize(
        "spec", [BASELINE, STVP, MTVP8, SAMPLED], ids=lambda s: s.name
    )
    def test_two_restores_from_one_template_match_a_fresh_run(self, spec):
        fresh = stats_digest(spec.run("mcf", LENGTH, checkpoints=False))
        store = _MemoryCheckpoints(capacity=2)
        # warm and store; the first restore builds the template
        assert stats_digest(spec.run("mcf", LENGTH, checkpoints=store)) == fresh
        assert store._template is None
        assert stats_digest(spec.run("mcf", LENGTH, checkpoints=store)) == fresh
        template, held = store._template[1], self.fingerprint(store)
        for _ in range(2):
            assert stats_digest(spec.run("mcf", LENGTH, checkpoints=store)) == fresh
        assert store._template[1] is template
        assert self.fingerprint(store) == held
        assert traffic(store) == (3, 1, 1)

    def test_a_restore_shares_the_first_restores_sets(self):
        import pickle

        store = _MemoryCheckpoints(capacity=2)
        STVP.run("mcf", LENGTH, checkpoints=store)
        (key,) = store._frames
        stored = pickle.loads(store._frames[key][store._DIGEST_SIZE:])
        assert "tags" in stored["hierarchy"]["l3"]  # the payload put() stored
        template = store.get(key)
        assert template is store._template[1]
        for level in ("l1", "l2", "l3"):
            sets = template["hierarchy"][level]["sets"]
            assert type(sets) is tuple and any(sets)
        assert template == shared(stored)
        STVP.run("mcf", LENGTH, checkpoints=store)
        assert store.get(key) is template
        assert traffic(store) == (3, 1, 1)

    def test_a_miss_holds_no_template(self):
        store = _MemoryCheckpoints(capacity=2)
        store.put("k", arch_payload(pos=1))
        assert store._template is None
        assert store.get("k") is not None and store._template is not None
        assert store.get("absent") is None
        assert store._template is None

    def test_each_entry_gets_its_own_template(self):
        store = _MemoryCheckpoints(capacity=2)
        store.put("a", arch_payload(pos=1))
        store.put("b", arch_payload(pos=2))
        first = store.get("a")
        assert store.get("a") is first
        assert store.get("b")["pos"] == 2
        again = store.get("a")
        assert again["pos"] == 1 and again is not first

    @pytest.mark.parametrize("kind", ["memory", "directory"])
    def test_damaged_entry_is_a_discarded_miss_while_its_template_is_held(
        self, kind, tmp_path
    ):
        from repro.harness import CheckpointStore

        store = (
            _MemoryCheckpoints(capacity=2) if kind == "memory"
            else CheckpointStore(tmp_path)
        )
        fresh = stats_digest(MTVP8.run("mcf", LENGTH, checkpoints=False))
        for _ in range(2):
            MTVP8.run("mcf", LENGTH, checkpoints=store)
        (key,) = store._frames if kind == "memory" else [
            p.stem for p in tmp_path.glob("*.ckpt")
        ]
        assert store._template is not None
        if kind == "memory":
            frame = bytearray(store._frames[key])
            frame[-1] ^= 1
            store._frames[key] = bytes(frame)
        else:
            path = store._path(key)
            blob = bytearray(path.read_bytes())
            blob[-1] ^= 1
            path.write_bytes(bytes(blob))
        misses = store.misses
        assert store.get(key) is None
        assert store.misses == misses + 1
        assert store._template is None
        present = key in store._frames if kind == "memory" else store._path(key).exists()
        assert not present, "a damaged entry must be discarded"
        # the next run re-warms and stores a sound entry
        assert stats_digest(MTVP8.run("mcf", LENGTH, checkpoints=store)) == fresh
        assert store.stores == 2
