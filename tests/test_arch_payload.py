"""Warmup-checkpoint payloads: flat occupied-state encodings, validation,
digest framing (DESIGN.md §5f).

* Round trips: for caches, 2bcgskew and the value predictors,
  ``restore(snapshot())`` reproduces the snapshot, and a continuation
  stream behaves identically on the original and the restored copy.
* Validation: every structural check of the new restores raises
  :class:`ValueError` naming the component, through ``Engine(arch=)``.
* Shape: a warmed MTVP-8 mcf arch payload stays small and its container
  count follows the occupied state, not the table sizes.
* Framing: a damaged ``<key>.ckpt`` file is a miss and is deleted.
"""

from __future__ import annotations

import copy
import pickle
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, seed, settings

from repro import _steady_state_footprint
from repro.branch import TwoBcGskewPredictor
from repro.core import Engine, MachineConfig
from repro.core.engine.snapshot import shared
from repro.harness.checkpoint import CheckpointStore
from repro.isa import Instruction, OpClass
from repro.memory import Cache
from repro.memory.cache import SNAPSHOT_VERSION as CACHE_VERSION
from repro.select import IlpPredSelector
from repro.vp import (
    DfcmPredictor,
    LastValuePredictor,
    StridePredictor,
    WangFranklinPredictor,
)
from repro.workloads import get_workload

MASK64 = (1 << 64) - 1
ROUND_TRIP = settings(max_examples=40, deadline=None)


def load(pc: int, value: int) -> Instruction:
    return Instruction(pc, OpClass.LOAD, dst=1, addr=0x1000, value=value)


def round_trip(component, fresh):
    """A fresh copy restored from ``component``'s snapshot, after checking
    that it snapshots back to the same payload."""
    payload = component.snapshot()
    copy_ = fresh()
    copy_.restore(pickle.loads(pickle.dumps(payload)))
    assert copy_.snapshot() == payload
    return copy_


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------
#: Table 1's cache levels, plus a 2-set cache that evicts on nearly
#: every fill
GEOMETRIES = {
    "L1D": (64 * 1024, 2, 64),
    "L2": (512 * 1024, 8, 64),
    "L3": (4 * 1024 * 1024, 16, 64),
    "evicting": (256, 2, 64),
    # past 255 ways the per-set counts take more than a byte
    "fully-associative": (512 * 64, 512, 64),
}

cache_ops = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "insert", "fill"]),
        # a few hundred lines, 1 MiB apart in strides of 4 KiB: enough
        # conflicts to fill and evict sets at every Table 1 level
        st.integers(0, 255).map(lambda i: (i % 16) * 4096 + (i // 16) * (1 << 20)),
    ),
    max_size=300,
)


class TestCacheRoundTrip:
    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @seed(1405)
    @ROUND_TRIP
    @given(before=cache_ops, after=cache_ops)
    def test_round_trip_and_continuation(self, geometry, before, after):
        build = lambda: Cache(*GEOMETRIES[geometry], name=geometry)  # noqa: E731
        original = build()
        for op, addr in before:
            getattr(original, op)(addr)
        restored = round_trip(original, build)
        assert restored.occupancy == original.occupancy
        for op, addr in after:
            assert getattr(restored, op)(addr) == getattr(original, op)(addr)
        assert restored.snapshot() == original.snapshot()
        assert restored.occupancy == original.occupancy

    def test_restore_into_a_used_cache_replaces_its_contents(self):
        donor, used = Cache(256, 2, 64), Cache(256, 2, 64)
        donor.insert(0x40)
        for addr in range(0, 4096, 64):
            used.insert(addr)
        used.restore(donor.snapshot())
        assert used.snapshot() == donor.snapshot()
        assert used.occupancy == 1


branch_ops = st.lists(
    st.tuples(st.integers(0, 63), st.integers(0, (1 << 16) - 1), st.booleans()),
    max_size=300,
)


class TestTwoBcGskewRoundTrip:
    #: full size (few counters leave their initial value) and tiny
    #: (most do)
    SIZES = {"table1": {}, "tiny": dict(bimodal_entries=16, skew_entries=32, meta_entries=32)}

    @pytest.mark.parametrize("size", sorted(SIZES))
    @seed(1405)
    @ROUND_TRIP
    @given(before=branch_ops, after=branch_ops)
    def test_round_trip_and_continuation(self, size, before, after):
        build = lambda: TwoBcGskewPredictor(**self.SIZES[size])  # noqa: E731
        original = build()
        for pc, hist, taken in before:
            original.predict_and_update(0x400 + 4 * pc, hist, taken)
        restored = round_trip(original, build)
        for pc, hist, taken in after:
            pc = 0x400 + 4 * pc
            assert restored.predict_and_update(pc, hist, taken) == (
                original.predict_and_update(pc, hist, taken)
            )
        assert restored.snapshot() == original.snapshot()

    def test_restore_into_a_trained_predictor(self):
        donor, trained = TwoBcGskewPredictor(), TwoBcGskewPredictor()
        rng = random.Random(3)
        for _ in range(500):
            trained.predict_and_update(rng.randrange(1 << 20), rng.randrange(1 << 16), True)
        donor.predict_and_update(0x400, 0, False)
        trained.restore(donor.snapshot())
        assert trained.snapshot() == donor.snapshot()


vp_ops = st.lists(
    st.tuples(
        st.integers(0, 7),
        st.one_of(st.sampled_from([0, 1, 2, MASK64]), st.integers(0, 1 << 65)),
    ),
    max_size=150,
)

#: each predictor at its default size and at a size where eight PCs alias
PREDICTORS = {
    "wang-franklin": lambda: WangFranklinPredictor(),
    "wang-franklin-tiny": lambda: WangFranklinPredictor(vht_entries=4, valpht_entries=8),
    "wang-franklin-wide": lambda: WangFranklinPredictor(max_conf=300, bonus=100),
    "dfcm": lambda: DfcmPredictor(),
    "dfcm-tiny": lambda: DfcmPredictor(l1_entries=4, l2_entries=8),
    "last-value": lambda: LastValuePredictor(entries=4),
    "stride": lambda: StridePredictor(entries=4),
}


def drive(predictor, ops) -> list:
    """Apply a load stream; what the predictor said along the way."""
    said = []
    for pc, value in ops:
        inst = load(0x100 + 4 * pc, value)
        best = predictor.predict(inst)
        said.append(None if best is None else (best.value, best.confidence, best.slot))
        said.append([(p.value, p.confidence) for p in predictor.predict_all(inst)])
        predictor.train(inst, value)
    return said


class TestValuePredictorRoundTrip:
    @pytest.mark.parametrize("name", sorted(PREDICTORS))
    @seed(1405)
    @ROUND_TRIP
    @given(before=vp_ops, after=vp_ops, passes=st.integers(1, 3))
    def test_round_trip_and_continuation(self, name, before, after, passes):
        build = PREDICTORS[name]
        original = build()
        for _ in range(passes):
            drive(original, before)
        restored = round_trip(original, build)
        assert drive(restored, after) == drive(original, after)
        assert restored.snapshot() == original.snapshot()


# ----------------------------------------------------------------------
# warmed MTVP-8 mcf engines: the payload the campaign restores
# ----------------------------------------------------------------------
WARMUP = MEASURED = 2000


def warmed_engine(arch=None) -> Engine:
    workload, config = get_workload("mcf"), MachineConfig.mtvp(8)
    return Engine(
        workload.trace(WARMUP + MEASURED, 0),
        config,
        predictor=WangFranklinPredictor(),
        selector=IlpPredSelector(),
        arch=arch,
        warm_addresses=None if arch else _steady_state_footprint(workload, config),
    )


@pytest.fixture(scope="module")
def mcf_arch() -> dict:
    engine = warmed_engine()
    engine.fast_forward(WARMUP)
    return engine.snapshot()


def containers(obj) -> int:
    """Dicts, lists and tuples reachable from ``obj`` (itself included)."""
    count, stack = 0, [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            count += 1
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            count += 1
            stack.extend(item)
    return count


class TestPayloadShape:
    def test_pickled_size(self, mcf_arch):
        # per-slot lists pickled to 491 KB; the counter blobs are ~208 KB
        assert len(pickle.dumps(mcf_arch, pickle.HIGHEST_PROTOCOL)) <= 300_000

    def test_containers_follow_occupied_state(self, mcf_arch):
        hierarchy = mcf_arch["hierarchy"]
        occupied_sets = sum(
            sum(1 for n in hierarchy[level]["counts"] if n) for level in ("l1", "l2", "l3")
        )
        vp = mcf_arch["predictor"]["state"]
        occupied_entries = len(vp["vht"]["slots"]) + len(vp["valpht"]["slots"])
        assert containers(mcf_arch) <= occupied_sets + occupied_entries + 64
        # and well under one container per set or table slot
        assert containers(mcf_arch) < 200

    def test_restored_engine_runs_identically(self, mcf_arch):
        fresh = warmed_engine()
        fresh.fast_forward(WARMUP)
        restored = warmed_engine(arch=pickle.loads(pickle.dumps(mcf_arch)))
        assert restored.snapshot() == mcf_arch
        assert restored.run().to_dict() == fresh.run().to_dict()


# ----------------------------------------------------------------------
# validation: malformed component payloads name the component
# ----------------------------------------------------------------------
def mutated(arch: dict, edit) -> dict:
    payload = copy.deepcopy(arch)
    edit(payload)
    return payload


def overfill_l2_set(p):
    counts = bytearray(p["hierarchy"]["l2"]["counts"])
    counts[next(i for i, n in enumerate(counts) if n)] = 9  # 8-way
    p["hierarchy"]["l2"]["counts"] = bytes(counts)


def flip_counter(p, value):
    blob = bytearray(p["branch"]["state"]["g0"])
    blob[7] = value
    p["branch"]["state"]["g0"] = bytes(blob)


VALIDATION = {
    "counter blob length": (
        lambda p: p["branch"]["state"].update(g0=p["branch"]["state"]["g0"][:-1]),
        r"TwoBcGskewPredictor g0 table: snapshot is not a 65536-byte counter blob",
    ),
    "counter range": (
        lambda p: flip_counter(p, 4),
        r"TwoBcGskewPredictor g0 table: snapshot counter outside 0-3",
    ),
    "per-set count above assoc": (
        overfill_l2_set,
        r"L2: snapshot set holds more than 8 lines",
    ),
    "set counts against tags": (
        lambda p: p["hierarchy"]["l2"]["tags"].pop(),
        r"L2: snapshot set counts sum to \d+, not the \d+ tags",
    ),
    "count blob length": (
        lambda p: p["hierarchy"]["l3"].update(counts=b"\x00"),
        r"L3: snapshot set counts do not cover 4096 sets",
    ),
    "occupied index in range": (
        lambda p: p["predictor"]["state"]["valpht"]["slots"].__setitem__(-1, 32 * 1024),
        r"WangFranklinPredictor ValPHT: occupied index outside the 32768-entry table",
    ),
    "confidence blob length": (
        lambda p: p["predictor"]["state"]["valpht"].update(
            conf=p["predictor"]["state"]["valpht"]["conf"][:-8]
        ),
        r"WangFranklinPredictor ValPHT: confidence blob does not hold \d+ counters",
    ),
    "column length": (
        lambda p: p["predictor"]["state"]["vht"]["stride"].pop(),
        r"WangFranklinPredictor VHT: snapshot stride column does not match",
    ),
    "missing field": (
        lambda p: p["predictor"]["state"].pop("vht"),
        r"malformed WangFranklinPredictor snapshot: KeyError\('vht'\)",
    ),
    "missing cache field": (
        lambda p: p["hierarchy"]["l1"].pop("tags"),
        r"malformed Cache snapshot for L1D: KeyError\('tags'\)",
    ),
    "old component version": (
        lambda p: p["hierarchy"]["l1"].update(version=1),
        r"unsupported Cache snapshot version: 1",
    ),
}


class TestValidation:
    @pytest.mark.parametrize("check", sorted(VALIDATION))
    def test_malformed_payload_raises_naming_the_component(self, mcf_arch, check):
        edit, message = VALIDATION[check]
        with pytest.raises(ValueError, match=message):
            warmed_engine(arch=mutated(mcf_arch, edit))

    def test_direct_component_restores_raise_value_error(self):
        with pytest.raises(ValueError, match="L1D"):
            Cache(1024, 2, 64, name="L1D").restore({"version": CACHE_VERSION})
        with pytest.raises(ValueError, match="DfcmPredictor level 2"):
            DfcmPredictor().restore(
                mutated(DfcmPredictor().snapshot(), lambda p: p["state"]["l2"]["slots"].append(-1))
            )
        with pytest.raises(ValueError, match="StridePredictor table: confidence blob"):
            StridePredictor().restore(
                mutated(
                    StridePredictor().snapshot(),
                    lambda p: p["state"].update(slots=[0], pc=[0], last_value=[0],
                                                stride=[0]),
                )
            )

    def test_vht_entry_must_index_its_slot(self, mcf_arch):
        def move(p):
            vht = p["predictor"]["state"]["vht"]
            vht["pc"][0] += 4

        with pytest.raises(ValueError, match="does not index slot"):
            warmed_engine(arch=mutated(mcf_arch, move))


# ----------------------------------------------------------------------
# keyed checkpoint files: digest framing
# ----------------------------------------------------------------------
def mutations(data: bytes, count: int, rng: random.Random):
    """Seeded truncations, header byte flips and body byte flips."""
    for i in range(count):
        kind = i % 3
        if kind == 0:
            yield data[: rng.randrange(len(data))]
        else:
            pos = rng.randrange(96) if kind == 1 else rng.randrange(96, len(data))
            flipped = bytearray(data)
            flipped[pos] ^= 1 << rng.randrange(8)
            yield bytes(flipped)


class TestCorruptCheckpointFiles:
    def test_every_mutation_is_a_miss_and_is_deleted(self, tmp_path, mcf_arch):
        store = CheckpointStore(tmp_path)
        store.put("mcf", mcf_arch)
        path = tmp_path / "mcf.ckpt"
        good = path.read_bytes()
        assert store.get("mcf") == shared(mcf_arch)
        for i, damaged in enumerate(mutations(good, 400, random.Random(14))):
            path.write_bytes(damaged)
            assert store.get("mcf") is None, i
            assert not path.exists(), i
        assert (store.hits, store.misses) == (1, 400)

    def test_verified_but_unloadable_pickle_is_a_miss(self, tmp_path):
        import hashlib

        blob = b"\x80\x05cno_such_module\nthing\n."
        path = tmp_path / "k.ckpt"
        path.write_bytes(hashlib.blake2b(blob).digest() + blob)
        store = CheckpointStore(tmp_path)
        assert store.get("k") is None
        assert not path.exists()

