"""The warm start's kernels and its skip under a checkpoint restore.

Bit-identity contracts (DESIGN.md §5c, §5f):

* ``ValuePredictor.train_many(insts, k)`` leaves exactly the state of k
  looped ``train(inst, inst.value)`` calls, for every registered predictor
  (the oracle's is a no-op).  Wang–Franklin's replays recorded events once
  the value history settles, so it is pinned on every workload at the warm
  start's own pass count, on aliasing tables and liberal parameters, and
  on random streams, with passes that settle and passes that do not;
* ``WangFranklinPredictor.train`` — one table walk, no candidate list —
  leaves exactly the state of the training rule as first written, kept
  here, with its own table lookups, as :class:`ReferenceWangFranklin`;
* ``MemoryHierarchy.store`` over ``Cache.fill`` leaves every cache exactly
  as the original lookup-then-insert sequence does;
* ``MemoryHierarchy.install`` (the steady-state footprint, set by set)
  leaves every cache exactly as one original store per address does, and
  refuses the inputs for which that would not hold;
* ``TwoBcGskewPredictor.train_many``, ``update`` and ``predict_and_update``
  leave exactly the tables and history of the 2bcgskew rule as first
  written, kept here with its own index hash and counters as
  :func:`reference_update`, and ``predict_and_update`` returns its
  prediction on every call;
* an engine built with ``arch=`` (the restore in the warm start's place)
  is identical to one that warmed and then restored the same payload.

A reference copy of the warm start's original loops pins the current one
for every predictor.
"""

from __future__ import annotations

import dataclasses
import functools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import _steady_state_footprint
from repro import vp as vp_registry
from repro.branch import TwoBcGskewPredictor, update_history
from repro.core import Engine, MachineConfig
from repro.harness.bench import stats_digest
from repro.isa import Instruction, OpClass
from repro.memory import Cache, MemoryHierarchy
from repro.select import IlpPredSelector
from repro.vp import WangFranklinPredictor
from repro.vp.wang_franklin import NUM_LEARNED, NUM_SLOTS, _VhtEntry
from repro.workloads import get_workload, workload_names

MASK64 = (1 << 64) - 1


def load(pc: int, value: int) -> Instruction:
    return Instruction(pc, OpClass.LOAD, dst=1, addr=0x1000, value=value)


def synthetic_loads(seed: int, n: int = 3000) -> list[Instruction]:
    """Loads whose values exercise every Wang-Franklin slot.

    Per static load: constants, bimodal pairs, strides (wrapping past 2^64
    and negative), 0/1 toggles and small random sets.  PCs 16 KiB apart
    alias in the default 4K-entry VHT, so entries get replaced.
    """
    rng = random.Random(seed)
    pcs = [0x4000 + 4 * i for i in range(24)] + [0x4000 + 0x4000, 0x4004 + 0x8000]
    state = {pc: (rng.randrange(6), rng.randrange(1 << 64)) for pc in pcs}
    out = []
    for i in range(n):
        pc = rng.choice(pcs)
        kind, base = state[pc]
        if kind == 0:
            value = base
        elif kind == 1:
            value = base if rng.random() < 0.8 else base ^ 0xFF
        elif kind == 2:
            value = (base + 8 * i) & MASK64
        elif kind == 3:
            value = rng.randrange(2)
        elif kind == 4:
            value = rng.choice((0, 1, 7, base, MASK64))
        else:
            value = -rng.randrange(1, 50)  # masked by the predictors
        out.append(load(pc, value))
    return out


def workload_loads(name: str, length: int = 4000, seed: int = 0) -> list[Instruction]:
    return [
        inst
        for inst in get_workload(name).trace(length=length, seed=seed)
        if inst.op is OpClass.LOAD and inst.value is not None
    ]


STREAMS = {
    "synthetic0": lambda: synthetic_loads(0),
    "synthetic1": lambda: synthetic_loads(1),
    "mcf": lambda: workload_loads("mcf"),
    "parser": lambda: workload_loads("parser"),
}


def looped(predictor, insts, passes):
    for _ in range(passes):
        for inst in insts:
            predictor.train(inst, inst.value)


def tables(predictor) -> dict:
    """A snapshot without the class name, so a reference subclass compares."""
    return {k: v for k, v in predictor.snapshot().items() if k != "kind"}


class ReferenceWangFranklin(WangFranklinPredictor):
    """Wang-Franklin training as first written: one candidate per slot,
    then a single loop that reinforces matches and penalizes the acting
    prediction."""

    def train(self, inst: Instruction, actual: int) -> None:
        actual &= MASK64
        pc = inst.pc
        idx = (pc >> 2) & self._vht_mask
        entry = self._vht[idx]
        if entry is None or entry.pc != pc:
            entry = self._vht[idx] = _VhtEntry(pc)
        cidx = ((pc >> 2) ^ (entry.pattern * 0x65D)) & self._valpht_mask
        if self._valpht[cidx] is None:
            self._valpht[cidx] = [0] * NUM_SLOTS
        confidences = self._valpht[cidx]
        candidates = entry.values + [None] * (NUM_LEARNED - len(entry.values))
        candidates += [0, 1, (entry.last_value + entry.stride) & MASK64]
        predicted_slot = -1
        best_conf = self.threshold - 1
        for slot in range(NUM_SLOTS):
            if candidates[slot] is not None and confidences[slot] > best_conf:
                best_conf = confidences[slot]
                predicted_slot = slot
        matched_slot = NUM_SLOTS
        for slot in range(NUM_SLOTS):
            value = candidates[slot]
            if value is None:
                continue
            if value == actual:
                if matched_slot == NUM_SLOTS:
                    matched_slot = slot
                confidences[slot] = min(confidences[slot] + self.bonus, self.max_conf)
            elif slot == predicted_slot:
                confidences[slot] = max(confidences[slot] - self.penalty, 0)
        entry.pattern = ((entry.pattern << 4) | matched_slot) & self._pattern_mask
        if actual in entry.values:
            entry.values.remove(actual)
        entry.values.append(actual)
        if len(entry.values) > NUM_LEARNED:
            entry.values.pop(0)
        entry.stride = (actual - entry.last_value) & MASK64
        entry.last_value = actual


def warm_passes(loads: list[Instruction]) -> int:
    """The pass count the warm start hands ``train_many`` for ``loads``."""
    per_pc = len(loads) / max(1, len({i.pc for i in loads}))
    return min(40, max(1, round(800 / per_pc) - 1)) + 1


class TestTrainMany:
    @pytest.mark.parametrize("stream", sorted(STREAMS))
    @pytest.mark.parametrize("name", vp_registry.names())
    def test_matches_looped_train(self, name, stream):
        # each call starts from the tables the calls before it left
        insts = STREAMS[stream]()
        batched, reference = vp_registry.create(name), vp_registry.create(name)
        for passes in (1, 2, 3, 41):
            batched.train_many(insts, passes)
            looped(reference, insts, passes)
            assert batched.snapshot() == reference.snapshot()

    def test_oracle_train_many_is_a_noop(self):
        oracle = vp_registry.create("oracle")
        before = oracle.snapshot()
        oracle.train_many(synthetic_loads(3, 200), 40)
        assert oracle.snapshot() == before

    @pytest.mark.parametrize(
        "params",
        [
            dict(vht_entries=16, valpht_entries=64),
            dict(vht_entries=4, valpht_entries=8),
            dict(threshold=4, penalty=2),
            dict(pattern_depth=1),
            dict(pattern_depth=3),
            dict(bonus=2, max_conf=15),
        ],
        ids=["tables-16-64", "tables-4-8", "liberal", "depth-1", "depth-3", "bonus-2"],
    )
    def test_wang_franklin_variants(self, params):
        for insts in (synthetic_loads(2), workload_loads("mcf")):
            replayed = WangFranklinPredictor(**params)
            reference = WangFranklinPredictor(**params)
            replayed.train_many(insts, 41)
            looped(reference, insts, 41)
            assert replayed.snapshot() == reference.snapshot()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5),
                st.one_of(
                    st.sampled_from([0, 1, MASK64]),
                    st.integers(0, 12).map(lambda k: 4 * k),
                ),
            ),
            min_size=1,
            max_size=60,
        ),
        st.integers(1, 41),
    )
    def test_property(self, steps, passes):
        # six PCs over a four-entry VHT and an eight-vector ValPHT; values
        # 0/1 and multiples of 4, so the hardwired and stride slots match.
        # train_many starts from tables three passes have trained
        insts = [load(0x100 + 4 * pc, value) for pc, value in steps]
        replayed = WangFranklinPredictor(vht_entries=4, valpht_entries=8)
        reference = WangFranklinPredictor(vht_entries=4, valpht_entries=8)
        for predictor in (replayed, reference):
            looped(predictor, insts, 3)
        replayed.train_many(insts, passes)
        looped(reference, insts, passes)
        assert replayed.snapshot() == reference.snapshot()

    @pytest.mark.parametrize("name", workload_names())
    def test_every_workload_at_the_warm_start_pass_count(self, name):
        insts = workload_loads(name, length=2000)
        passes = warm_passes(insts)
        replayed, reference = WangFranklinPredictor(), WangFranklinPredictor()
        replayed.train_many(insts, passes)
        looped(reference, insts, passes)
        assert replayed.snapshot() == reference.snapshot()

    def test_settled_passes_replay_and_unsettled_ones_run_in_full(self, monkeypatch):
        full_passes = []
        vht_pass = WangFranklinPredictor._vht_pass

        def counted(predictor, insts):
            full_passes.append(len(insts))
            return vht_pass(predictor, insts)

        monkeypatch.setattr(WangFranklinPredictor, "_vht_pass", counted)
        # a workload's value history settles within a few passes; the
        # passes after that are replayed
        insts = workload_loads("mcf")
        replayed, reference = WangFranklinPredictor(), WangFranklinPredictor()
        replayed.train_many(insts, 41)
        looped(reference, insts, 41)
        assert replayed.snapshot() == reference.snapshot()
        assert 1 < len(full_passes) < 41
        # one load per pass shifts one outcome into a three-deep pattern:
        # the VHT changes on each of the first four passes, so four passes
        # run in full and the fifth is the first to settle
        insts = [load(0x100, 7)]
        for passes, expected in ((4, 4), (41, 5)):
            full_passes.clear()
            replayed = WangFranklinPredictor(pattern_depth=3)
            reference = WangFranklinPredictor(pattern_depth=3)
            replayed.train_many(insts, passes)
            looped(reference, insts, passes)
            assert replayed.snapshot() == reference.snapshot()
            assert len(full_passes) == expected


class TestWangFranklinTrain:
    @pytest.mark.parametrize("stream", sorted(STREAMS))
    def test_matches_the_reference_rule(self, stream):
        insts = STREAMS[stream]()
        fast, reference = WangFranklinPredictor(), ReferenceWangFranklin()
        looped(fast, insts, 6)
        looped(reference, insts, 6)
        assert tables(fast) == tables(reference)

    @pytest.mark.parametrize(
        "params",
        [
            dict(vht_entries=16, valpht_entries=64),
            dict(threshold=4, penalty=2, bonus=2, max_conf=9),
            dict(pattern_depth=3, threshold=1),
        ],
        ids=["tiny-tables", "liberal", "deep-pattern"],
    )
    def test_parameterizations(self, params):
        insts = synthetic_loads(2)
        fast = WangFranklinPredictor(**params)
        reference = ReferenceWangFranklin(**params)
        looped(fast, insts, 4)
        looped(reference, insts, 4)
        assert tables(fast) == tables(reference)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 7),
                st.one_of(
                    st.sampled_from([0, 1, 2, MASK64]),
                    st.integers(-(1 << 64), 1 << 65),
                ),
            ),
            min_size=1,
            max_size=120,
        ),
        st.integers(1, 4),
    )
    def test_property(self, steps, passes):
        # eight PCs over a four-entry VHT: constant aliasing and eviction
        fast = WangFranklinPredictor(vht_entries=4, valpht_entries=8)
        reference = ReferenceWangFranklin(vht_entries=4, valpht_entries=8)
        for _ in range(passes):
            for pc, value in steps:
                inst = load(0x100 + 4 * pc, value)
                for predictor in (fast, reference):
                    predictor.train(inst, value)
        assert tables(fast) == tables(reference)


# ----------------------------------------------------------------------
# stores: Cache.fill under MemoryHierarchy.store
# ----------------------------------------------------------------------
def reference_store(hierarchy: MemoryHierarchy, addr: int) -> None:
    """``MemoryHierarchy.store`` as first written: probe down, fill up."""
    if not hierarchy.l1.lookup(addr):
        if not hierarchy.l2.lookup(addr):
            hierarchy.l3.lookup(addr)
            hierarchy.l3.insert(addr)
            hierarchy.l2.insert(addr)
        hierarchy.l1.insert(addr)


def table1_hierarchy() -> MemoryHierarchy:
    config = MachineConfig.hpca05_baseline()
    return MemoryHierarchy(
        l1=Cache(config.l1_size, config.l1_assoc, config.line_size, name="L1D"),
        l2=Cache(config.l2_size, config.l2_assoc, config.line_size, name="L2"),
        l3=Cache(config.l3_size, config.l3_assoc, config.line_size, name="L3"),
    )


def tiny_hierarchy() -> MemoryHierarchy:
    # 2 sets x 2 ways over 4 sets x 2 ways over 4 sets x 4 ways, with a
    # wider L3 line: nearly every fill evicts at some level
    return MemoryHierarchy(
        l1=Cache(256, 2, 64, name="L1D"),
        l2=Cache(512, 2, 64, name="L2"),
        l3=Cache(2048, 4, 128, name="L3"),
    )


def eviction_heavy(seed: int, n: int = 4000) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(0, 16 * 1024, 8) for _ in range(n)]


def footprint_addresses(name: str) -> list[int]:
    """A workload's Table 1 footprint as the flat address list it was."""
    ranges = _steady_state_footprint(get_workload(name), MachineConfig.hpca05_baseline())
    return [addr for r in ranges for addr in r]


def same_caches(fast: MemoryHierarchy, reference: MemoryHierarchy) -> None:
    for level in ("l1", "l2", "l3"):
        a, b = getattr(fast, level), getattr(reference, level)
        assert a.snapshot() == b.snapshot(), level
        assert a.occupancy == b.occupancy, level
    assert fast.snapshot() == reference.snapshot()


class TestStore:
    @pytest.mark.parametrize(
        "build, addresses",
        [
            (table1_hierarchy, lambda: footprint_addresses("mcf")),
            (table1_hierarchy, lambda: footprint_addresses("gcc 1") * 2),
            (tiny_hierarchy, lambda: eviction_heavy(0)),
            (tiny_hierarchy, lambda: eviction_heavy(1)),
        ],
        ids=["table1-mcf", "table1-gcc-twice", "tiny-0", "tiny-1"],
    )
    def test_matches_the_reference_store(self, build, addresses):
        addrs = addresses()
        fast, reference = build(), build()
        # start from non-empty contents
        for h in (fast, reference):
            for i, addr in enumerate(eviction_heavy(9, 300)):
                h.load(addr, 0x40, now=i)
        for addr in addrs:
            fast.store(addr, 0)
            reference_store(reference, addr)
        same_caches(fast, reference)

    def test_fill_is_lookup_then_insert_on_a_miss(self):
        fast, reference = Cache(512, 2, 64), Cache(512, 2, 64)
        for addr in eviction_heavy(5, 2000):
            hit = reference.lookup(addr)
            if not hit:
                reference.insert(addr)
            assert fast.fill(addr) is hit
        assert fast.snapshot() == reference.snapshot()
        assert fast.occupancy == reference.occupancy


def stored(build, ranges) -> MemoryHierarchy:
    """A fresh hierarchy after one reference store per address of ``ranges``."""
    hierarchy = build()
    for r in ranges:
        for addr in r:
            reference_store(hierarchy, addr)
    return hierarchy


def small_hierarchy() -> MemoryHierarchy:
    # 2 sets x 2 ways over 4 sets x 2 ways over 8 sets x 4 ways (32 lines),
    # one line size
    return MemoryHierarchy(
        l1=Cache(256, 2, 64, name="L1D"),
        l2=Cache(512, 2, 64, name="L2"),
        l3=Cache(2048, 4, 64, name="L3"),
    )


class TestInstall:
    @pytest.mark.parametrize("name", workload_names())
    def test_every_workload_footprint_on_table1(self, name):
        ranges = _steady_state_footprint(
            get_workload(name), MachineConfig.hpca05_baseline()
        )
        fast = table1_hierarchy()
        fast.install(ranges)
        same_caches(fast, stored(table1_hierarchy, ranges))

    def test_shared_sets_and_a_range_longer_than_the_cache(self):
        # not in address order; the second range is 100 lines against the
        # L3's 32, the fourth ends mid-line, and all of them share sets
        ranges = [
            range(0x1000, 0x1000 + 3 * 64, 64),
            range(0x2040, 0x2040 + 100 * 64, 64),
            range(0x0, 0x0, 64),
            range(0x8000, 0x8000 + 100, 64),
            range(0x0c0, 0x0c0 + 64, 64),
            range(0x9000, 0x9000 + 5 * 64, 64),
        ]
        fast = small_hierarchy()
        fast.install(ranges)
        same_caches(fast, stored(small_hierarchy, ranges))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([1, 2, 3, 4]),
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 40)), max_size=6),
        st.randoms(use_true_random=False),
    )
    def test_property(self, sets, ways, runs, rng):
        # disjoint runs of lines separated by random gaps, installed in a
        # shuffled order, over one cache geometry at every level
        def build():
            return MemoryHierarchy(
                l1=Cache(64 * sets * ways, ways, 64, name="L1D"),
                l2=Cache(64 * 2 * sets * ways, ways, 64, name="L2"),
                l3=Cache(64 * 4 * sets * (ways + 1), ways + 1, 64, name="L3"),
            )

        ranges, line = [], 0
        for gap, length in runs:
            line += gap
            ranges.append(range(64 * line, 64 * (line + length), 64))
            line += length
        rng.shuffle(ranges)
        fast = build()
        fast.install(ranges)
        same_caches(fast, stored(build, ranges))

    @pytest.mark.parametrize(
        "build, ranges, message",
        [
            (small_hierarchy, [range(0, 640, 128)], "does not step by"),
            (small_hierarchy, [range(8, 648, 64)], "does not start on"),
            (small_hierarchy, [range(0, 640, 64), range(576, 700, 64)], "overlaps"),
            (small_hierarchy, [range(576, 700, 64), range(0, 640, 64)], "overlaps"),
            # the warm start's own caches share a line size; these do not
            (tiny_hierarchy, [range(0, 640, 64)], "does not step by"),
        ],
        ids=["step", "unaligned", "overlap", "overlap-reversed", "mixed-lines"],
    )
    def test_rejects_inputs_the_set_by_set_fill_cannot_reproduce(
        self, build, ranges, message
    ):
        hierarchy = build()
        before = hierarchy.snapshot()
        with pytest.raises(ValueError, match=message):
            hierarchy.install(ranges)
        assert hierarchy.snapshot() == before  # nothing installed

    def test_rejects_a_level_that_already_holds_lines(self):
        for level in ("l1", "l2", "l3"):
            hierarchy = small_hierarchy()
            getattr(hierarchy, level).insert(0x40000)
            with pytest.raises(ValueError, match="empty caches"):
                hierarchy.install([range(0, 640, 64)])
            assert hierarchy.l1.occupancy + hierarchy.l2.occupancy + hierarchy.l3.occupancy == 1

    def test_rejects_plain_addresses(self):
        with pytest.raises(TypeError, match="address ranges"):
            small_hierarchy().install([0, 64, 128])

    def test_rejects_a_run_that_is_not_consecutive_lines(self):
        with pytest.raises(ValueError, match="consecutive line numbers"):
            Cache(512, 2, 64).install(range(0, 10, 2))


# ----------------------------------------------------------------------
# 2bcgskew: every entry point against the update rule as first written
# ----------------------------------------------------------------------
#: (history bits, odd multiplier) of the meta, G0 and G1 index hashes
SKEW_BANKS = ((0, 0x9E3779B1), (6, 0x85EBCA77), (12, 0xC2B2AE3D))


def skew_index(pc: int, history: int, bank: int) -> int:
    """The skew hash of ``bank`` (0 meta, 1 G0, 2 G1), before masking."""
    bits, multiplier = SKEW_BANKS[bank]
    key = ((pc >> 2) << 16) | (history & ((1 << bits) - 1))
    return (key * multiplier) >> 13


def counter_taken(table: bytearray, index: int) -> bool:
    return table[index % len(table)] >= 2


def counter_train(table: bytearray, index: int, taken: bool) -> None:
    """Step a 2-bit saturating counter toward ``taken``."""
    i = index % len(table)
    table[i] = min(3, table[i] + 1) if taken else max(0, table[i] - 1)


def reference_update(bp: TwoBcGskewPredictor, pc: int, history: int, taken: bool) -> bool:
    """The 2bcgskew rule as first written, over ``bp``'s tables; returns
    the prediction."""
    banks = (
        (bp._bim, pc >> 2),
        (bp._g0, skew_index(pc, history, 1)),
        (bp._g1, skew_index(pc, history, 2)),
    )
    bim, g0, g1 = votes = [counter_taken(table, i) for table, i in banks]
    majority = (bim + g0 + g1) >= 2
    meta_index = skew_index(pc, history, 0)
    prediction = majority if counter_taken(bp._meta, meta_index) else bim
    if majority != bim:
        counter_train(bp._meta, meta_index, majority == taken)
    for (table, i), vote in zip(banks, votes):
        # total misprediction: every bank; otherwise the ones that agreed
        if prediction != taken or vote == taken:
            counter_train(table, i, taken)
    return prediction


def reference_train(bp: TwoBcGskewPredictor, branches, history: int) -> int:
    for pc, taken in branches:
        reference_update(bp, pc, history, taken)
        history = update_history(history, taken)
    return history


def random_branches(seed: int, n: int = 5000) -> list[tuple[int, bool]]:
    """Biased, patterned and random branches over PCs that alias in
    small tables."""
    rng = random.Random(seed)
    pcs = [0x400 + 4 * rng.randrange(64) for _ in range(12)]
    bias = {pc: rng.random() for pc in pcs}
    return [(pc, rng.random() < bias[pc]) for pc in (rng.choice(pcs) for _ in range(n))]


@functools.cache
def branch_stream(name: str) -> list[tuple[int, bool]]:
    """The ``(pc, taken)`` of each branch of ``name``'s length-16000 trace."""
    return [
        (inst.pc, inst.taken)
        for inst in get_workload(name).trace(length=16000, seed=3)
        if inst.op is OpClass.BRANCH
    ]


#: tables small enough that the random streams' PCs alias in every bank
TINY = dict(bimodal_entries=8, skew_entries=16, meta_entries=8)


def assert_predicts_like_the_reference(branches, sizes, history=0):
    fast, reference = TwoBcGskewPredictor(**sizes), TwoBcGskewPredictor(**sizes)
    for pc, taken in branches:
        assert fast.predict_and_update(pc, history, taken) == (
            reference_update(reference, pc, history, taken)
        )
        history = update_history(history, taken)
    assert fast.snapshot() == reference.snapshot()


class TestBranchTrainMany:
    @pytest.mark.parametrize("name", workload_names())
    def test_every_workload(self, name):
        branches = branch_stream(name)
        fast, reference = TwoBcGskewPredictor(), TwoBcGskewPredictor()
        assert fast.train_many(branches, 0) == reference_train(reference, branches, 0)
        assert fast.snapshot() == reference.snapshot()

    @pytest.mark.parametrize("seed", range(4))
    def test_random_stream_over_small_aliasing_tables(self, seed):
        fast, reference = TwoBcGskewPredictor(**TINY), TwoBcGskewPredictor(**TINY)
        branches = random_branches(seed)
        history = random.Random(seed).randrange(1 << 16)
        for chunk in (branches[:1], branches[1:700], branches[700:]):
            history_fast = fast.train_many(chunk, history)
            history = reference_train(reference, chunk, history)
            assert history_fast == history
            assert fast.snapshot() == reference.snapshot()

    def test_update_is_one_branch_of_train_many(self):
        fast, reference = TwoBcGskewPredictor(64, 64, 64), TwoBcGskewPredictor(64, 64, 64)
        history = 0
        for pc, taken in random_branches(9, 2000):
            fast.update(pc, history, taken)
            reference_update(reference, pc, history, taken)
            history = update_history(history, taken)
        assert fast.snapshot() == reference.snapshot()


class TestBranchPredictAndUpdate:
    """The step kernel's entry point returns the reference rule's
    prediction on every call and leaves its tables."""

    @pytest.mark.parametrize("name", workload_names())
    def test_every_workload(self, name):
        assert_predicts_like_the_reference(branch_stream(name), {})

    @pytest.mark.parametrize("seed", range(4))
    def test_random_stream_over_small_aliasing_tables(self, seed):
        history = random.Random(seed).randrange(1 << 16)
        assert_predicts_like_the_reference(random_branches(seed), TINY, history)


# ----------------------------------------------------------------------
# the warm start as a whole
# ----------------------------------------------------------------------
def reference_warm_state(engine: Engine, addresses) -> None:
    """The warm start's original loops: a store per footprint address, a
    functional pass, then the value-predictor replay passes one ``train``
    at a time."""
    hierarchy = engine.hierarchy
    if addresses is not None:
        for r in addresses:
            for addr in r:
                reference_store(hierarchy, addr)
    bp, vp = engine.branch_predictor, engine.predictor
    root = engine._contexts[0]
    hist = 0
    for inst in root.trace:
        if inst.op is OpClass.BRANCH:
            reference_update(bp, inst.pc, hist, inst.taken)
            hist = update_history(hist, inst.taken)
        elif inst.op is OpClass.LOAD and inst.value is not None:
            vp.train(inst, inst.value)
    loads = [i for i in root.trace if i.op is OpClass.LOAD and i.value is not None]
    per_pc = len(loads) / max(1, len({i.pc for i in loads}))
    for _ in range(min(40, max(1, round(800 / per_pc) - 1))):
        for inst in loads:
            vp.train(inst, inst.value)
    root.bhist = hist


@pytest.mark.parametrize("name", vp_registry.names())
def test_warm_start_matches_the_original_loops(name):
    # mcf has one resident region, bzip p three
    for workload_name in ("mcf", "bzip p"):
        workload = get_workload(workload_name)
        config = MachineConfig.mtvp(8)
        trace = workload.trace(length=3000, seed=4)
        warm = _steady_state_footprint(workload, config)
        current = Engine(trace, config, predictor=vp_registry.create(name),
                         warm_addresses=warm)
        reference = Engine(
            trace, dataclasses.replace(config, warm_caches=False),
            predictor=vp_registry.create(name),
        )
        reference_warm_state(reference, warm)
        assert current.snapshot() == reference.snapshot()
        assert stats_digest(current.run()) == stats_digest(reference.run())


MODES = {
    "baseline": (MachineConfig.hpca05_baseline, "oracle"),
    "stvp": (MachineConfig.stvp, "wang-franklin"),
    "mtvp": (lambda: MachineConfig.mtvp(8), "wang-franklin"),
    "spmt": (lambda: MachineConfig.spmt(8), "wang-franklin"),
}


class TestRestoreSkipsWarmStart:
    WARMUP, MEASURED = 1500, 1500

    def _build(self, mode: str, **kwargs) -> Engine:
        config_factory, predictor = MODES[mode]
        config = config_factory()
        workload = get_workload("mcf")
        return Engine(
            workload.trace(length=self.WARMUP + self.MEASURED, seed=2),
            config,
            predictor=vp_registry.create(predictor),
            selector=IlpPredSelector(),
            warm_addresses=_steady_state_footprint(workload, config),
            **kwargs,
        )

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_identical_to_warming_then_restoring(self, mode):
        donor = self._build(mode)
        donor.fast_forward(self.WARMUP)
        arch = donor.snapshot()
        warmed = self._build(mode)
        warmed.restore(arch)
        skipped = self._build(mode, arch=arch)
        assert skipped.snapshot() == warmed.snapshot() == arch
        assert stats_digest(skipped.run()) == stats_digest(warmed.run())
