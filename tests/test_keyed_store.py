"""The keyed-store entry format: a damaged entry is a miss, never a wrong value.

``ResultCache`` and ``CheckpointStore`` (files) and the in-process
``MEMORY_CHECKPOINTS`` LRU (frames) share one entry format, a blake2b
digest followed by the encoded body.  A byte-mutation property checks
every store: whatever a flip, a truncation or appended bytes do to a
stored entry, ``get`` returns what was stored (for a checkpoint store,
its warm template) or misses and discards the entry.  Also here: the one-digit edit that a result cache without a
digest served as a hit, and ``cache prune`` bounding checkpoints too.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MachineConfig, SimStats
from repro.core.engine.snapshot import shared
from repro.harness import (
    CheckpointStore,
    ExecutionPolicy,
    ResultCache,
    RunSpec,
    run_simulations,
    task_key,
)
from repro.harness.bench import stats_digest
from repro.harness.checkpoint import _MemoryCheckpoints

LENGTH = 2000
BASELINE = RunSpec("baseline", MachineConfig.hpca05_baseline)


class _Entry:
    """One stored entry and how to read, replace and find its raw bytes."""

    def __init__(self, store, key: str, value, same) -> None:
        self.store, self.key, self.value, self.same = store, key, value, same
        self.stored = self.raw()

    def raw(self) -> bytes:
        if isinstance(self.store, _MemoryCheckpoints):
            return self.store._frames[self.key]
        return self.store._path(self.key).read_bytes()

    def plant(self, blob: bytes) -> None:
        if isinstance(self.store, _MemoryCheckpoints):
            self.store._frames[self.key] = blob
        else:
            self.store._path(self.key).write_bytes(blob)

    def present(self) -> bool:
        if isinstance(self.store, _MemoryCheckpoints):
            return self.key in self.store._frames
        return self.store._path(self.key).exists()


@pytest.fixture(scope="module")
def entries(tmp_path_factory) -> dict[str, _Entry]:
    """A real mcf baseline result and warmup checkpoint in each store."""
    root = tmp_path_factory.mktemp("stores")
    files = CheckpointStore(root / "checkpoints")
    stats = BASELINE.run("mcf", LENGTH, 0, checkpoints=files)
    ((key, template),) = [(p.stem, files.get(p.stem)) for p in files.directory.glob("*.ckpt")]
    cache = ResultCache(root / "cache")
    cache.put(key, stats)
    memory = _MemoryCheckpoints(capacity=2)  # the class of MEMORY_CHECKPOINTS
    memory.put(key, pickle.loads(files._read(key)[files._DIGEST_SIZE:]))
    return {
        "result": _Entry(cache, key, stats, lambda a, b: stats_digest(a) == stats_digest(b)),
        "checkpoint": _Entry(files, key, template, lambda a, b: a == b),
        "memory": _Entry(memory, key, template, lambda a, b: a == b),
    }


def loads(body: bytes) -> dict:
    """A checkpoint body as ``CheckpointStore.get`` returns it: its warm
    template."""
    return shared(pickle.loads(body))


@st.composite
def mutants(draw, blob: bytes) -> bytes:
    """``blob`` with one byte flipped, cut short, or with bytes appended."""
    kind = draw(st.sampled_from(["flip", "truncate", "append"]))
    if kind == "flip":
        damaged = bytearray(blob)
        damaged[draw(st.integers(0, len(blob) - 1))] ^= draw(st.integers(1, 255))
        return bytes(damaged)
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    return blob + draw(st.binary(min_size=1, max_size=64))


class TestDamagedEntries:
    @pytest.mark.parametrize("kind", ["result", "checkpoint", "memory"])
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_every_mutant_is_a_faithful_hit_or_a_discarding_miss(self, entries, kind, data):
        entry = entries[kind]
        entry.plant(data.draw(mutants(entry.stored)))
        misses = entry.store.misses
        got = entry.store.get(entry.key)
        try:
            if got is None:
                assert entry.store.misses == misses + 1
                assert not entry.present(), "a damaged entry must be discarded"
            else:
                assert entry.same(got, entry.value)
        finally:
            entry.plant(entry.stored)

    @pytest.mark.parametrize("kind, decode", [
        ("result", lambda body: SimStats.from_dict(json.loads(body))),
        ("checkpoint", loads),
        ("memory", loads),
    ])
    def test_an_entry_is_a_digest_then_the_body(self, entries, kind, decode):
        entry = entries[kind]
        digest, body = entry.stored[:64], entry.stored[64:]
        assert digest == hashlib.blake2b(body).digest()
        assert entry.same(decode(body), entry.value)
        assert entry.same(entry.store.get(entry.key), entry.value)

    def test_a_checkpoint_file_holds_the_memory_frame(self, entries):
        assert entries["checkpoint"].stored == entries["memory"].stored

    def test_a_one_digit_edit_is_a_miss_that_resimulates(self, tmp_path):
        cache = ResultCache(tmp_path)
        policy = ExecutionPolicy(cache=cache)
        task = ("mcf", BASELINE, LENGTH, 0)
        (first,) = run_simulations([task], policy=policy)
        path = cache._path(task_key(*task))
        cycles = str(first.cycles).encode()
        edited = bytes([ord("0") + (cycles[0] - ord("0") + 1) % 10]) + cycles[1:]
        blob = path.read_bytes()
        assert blob.count(b'"cycles": ' + cycles) == 1
        path.write_bytes(blob.replace(b'"cycles": ' + cycles, b'"cycles": ' + edited))
        assert (cache.hits, cache.misses) == (0, 1)
        assert cache.get(task_key(*task)) is None
        assert not path.exists()
        assert (cache.hits, cache.misses) == (0, 2)
        (again,) = run_simulations([task], policy=policy)
        assert again.cycles == first.cycles
        assert stats_digest(again) == stats_digest(first)
        assert cache.stores == 2


def _entry_bytes(directory) -> int:
    return sum(
        p.stat().st_size
        for pattern in ("*.json", "checkpoints/*.ckpt")
        for p in directory.glob(pattern)
    )


class TestPruneCoversCheckpoints:
    def fill(self, directory):
        """An old 64 KB checkpoint under the cache dir, then a newer result."""
        checkpoints = CheckpointStore(directory / "checkpoints")
        checkpoints.put("c" * 64, {"arch": os.urandom(1 << 16)})
        old = checkpoints._path("c" * 64)
        os.utime(old, (old.stat().st_mtime - 60,) * 2)
        cache = ResultCache(directory)
        cache.put("r" * 64, BASELINE.run("mcf", 300, 0))
        return cache._path("r" * 64), old

    @pytest.mark.parametrize("budget, result_stays", [(100, False), (4096, True)])
    def test_max_bytes_bounds_results_and_checkpoints(
        self, tmp_path, capsys, budget, result_stays
    ):
        from repro.__main__ import main

        result, checkpoint = self.fill(tmp_path)
        assert _entry_bytes(tmp_path) > budget
        assert main(["cache", "prune", "--max-bytes", str(budget),
                     "--cache-dir", str(tmp_path)]) == 0
        assert _entry_bytes(tmp_path) <= budget
        assert not checkpoint.exists()  # the oldest entry goes first
        assert result.exists() == result_stays
        assert "pruned" in capsys.readouterr().out

    def test_dry_run_counts_both_stores(self, tmp_path, capsys):
        from repro.__main__ import main

        self.fill(tmp_path)
        total = _entry_bytes(tmp_path)
        assert main(["cache", "prune", "--max-bytes", "0", "--dry-run",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"would prune 2 entries ({total} bytes)" in out
        assert "(0 would remain)" in out
        assert _entry_bytes(tmp_path) == total
