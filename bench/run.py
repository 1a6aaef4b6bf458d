#!/usr/bin/env python3
"""Suite-wide host-time benchmark of the MTVP simulator.

Four closed-loop workloads: one client runs one simulation (or one sweep
campaign pass) at a time, in one process, and waits for it to finish
before starting the next.  See bench/README.md for why each workload
exists and which layer each metric follows.

Run from the repository root::

    python3 bench/run.py --workload suite --seed 0 --seconds 8 --trace 0
    python3 bench/run.py --workload suite --seed 0 --trace 1   # per-layer ledger
    python3 bench/run.py --seed 0          # every workload, one subprocess each
    python3 bench/run.py --write-golden    # regenerate bench/golden.json

Metrics print as ``name value unit`` lines; the last line of output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is non-zero when a check failed.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tomllib  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"bench: no simulator sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import repro.sweep  # noqa: E402
import repro.workloads.suite as registry  # noqa: E402
from repro import MachineConfig, SimStats  # noqa: E402
from repro.harness import RunSpec  # noqa: E402
from repro.harness.bench import stats_digest  # noqa: E402
from repro.harness.cache import ResultCache  # noqa: E402
from repro.harness.checkpoint import CheckpointStore  # noqa: E402
from repro.harness.policy import ExecutionPolicy  # noqa: E402
from repro.sweep import ResultStore, SweepSpec, campaign_rows, run_spec_for  # noqa: E402
from repro.workloads import get_workload, workload_names  # noqa: E402
from repro.workloads.spec import AddressPattern  # noqa: E402

import layers  # noqa: E402

IMPORT_S = time.perf_counter() - _STARTED

WORKLOADS = ("suite", "baseline-long", "mtvp-spawn", "campaign")
GOLDEN = BENCH / "golden.json"
#: seeds whose digests golden.json records (--write-golden)
GOLDEN_SEEDS = range(12)
#: set-up runs per invocation; setup_s is their median
SETUP_REPEATS = 3
#: p80 needs at least ten samples beyond it
MIN_SAMPLES = 50
#: passes per run at most: each pass synthesizes fresh traces (untimed)
MAX_PASSES = 8
#: cached campaign passes measured (untraced, then traced) by --trace 1
TRACE_CACHED_PASSES = 5
#: untimed cached campaign passes between the cold pass and the timed ones
WARMUP_PASSES = 5
#: Figure 3's MTVP-8 headline with Wang-Franklin, the only reference
#: number in the repository
PAPER_FIG3_MTVP8_PCT = 40.0
#: reference_loop()'s median time on the host of README's numbers when
#: nothing else loads it; every timing is reported at that speed (HostSpeed)
REF_NOMINAL_MS = 2.25

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p80", "ms"),
    ("kips", "kIPS"),
    ("peak_rss_mb", "MB"),
)
#: layers every workload calls; their self time is never zero
TIMED_LAYERS = (
    "workloads.trace",
    "core.engine.construct",
    "core.engine.run",
    "memory.hierarchy.load",
    "memory.hierarchy.probe_level",
    "memory.hierarchy.store",
    "memory.prefetcher.lookup",
    "memory.prefetcher.train",
    "memory.store_buffer.search",
    "branch.predict_and_update",
    "branch.update",
    "vp.train",
)
#: layers only some workloads call: calls go in the JSON, self time only
#: in the printed table and the Chrome trace (an exact 0.0 s would read
#: the same on every run of a workload that never calls the layer)
COUNTED_LAYERS = (
    "core.engine.fast_forward",
    "core.engine.snapshot",
    "core.engine.restore",
    "memory.store_buffer.allocate",
    "memory.store_buffer.drain_upto",
    "memory.store_buffer.squash_thread",
    "vp.predict",
    "select.choose",
    "select.record",
    "harness.cache.task_key",
    "harness.cache.get",
    "harness.cache.put",
    "harness.checkpoint.get",
    "harness.checkpoint.put",
    "sweep.store.ensure",
    "sweep.store.claim",
    "sweep.store.mark_done",
    "sweep.run_sweep",
)
MEM_LEVELS = ("l1", "stream", "l2", "l3", "memory")


#: compare_modes' baseline spec and Figure 3's realistic recipes.
#: RunSpec.run calls repro.simulate with the named workload, which warms
#: its steady-state footprint (a bare trace list would not).
BASELINE = RunSpec("baseline", MachineConfig.hpca05_baseline)
STVP = RunSpec("stvp", MachineConfig.stvp, predictor_factory="wang-franklin")
MTVP8 = RunSpec(
    "mtvp8", functools.partial(MachineConfig.mtvp, 8), predictor_factory="wang-franklin"
)
MTVP8_ALWAYS = RunSpec(
    "mtvp8-always", functools.partial(MachineConfig.mtvp, 8),
    predictor_factory="wang-franklin", selector_factory="always",
)


def digest(stats: SimStats) -> str:
    return stats_digest(stats)[:16]


def check_stats(stats: SimStats, length: int, expected: str | None = None) -> list[str]:
    """What is wrong with one simulation's stats (empty when nothing is).

    The conservation invariants hold for every mode and seed; the digest
    is compared when golden.json records one for the seed.
    """
    problems = []
    if stats.useful_instructions != length:
        problems.append(
            f"useful_instructions {stats.useful_instructions} != measured length {length}"
        )
    if stats.useful_instructions + stats.wasted_instructions != stats.instructions_stepped:
        problems.append(
            f"useful {stats.useful_instructions} + wasted {stats.wasted_instructions} "
            f"!= instructions_stepped {stats.instructions_stepped}"
        )
    if expected is not None and digest(stats) != expected:
        problems.append(f"digest {digest(stats)} != golden {expected}")
    return problems


_REF_TABLE = {i * 7919 % 65536: i for i in range(512)}


class _RefCell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, x: int) -> None:
        self.value = (self.value + x) & 0xFFFFFF


def reference_loop(n: int = 10000) -> int:
    """A fixed interpreter workload that runs no simulator code.

    Dict lookups, list stores, slot attributes and method calls: the
    operations the engine's hot loop spends its time on.  Its working set
    is a few tens of kilobytes, so one untimed call refills whatever the
    last operation evicted (a megabyte-sized table read 7% slower after
    a simulation than after itself, even so).
    """
    cell = _RefCell()
    acc = 0
    slots = [0] * 256
    for i in range(n):
        acc += _REF_TABLE.get((i * 40503) & 0xFFFF, 1)
        slots[i & 255] = acc & 0xFF
        cell.bump(slots[(i * 13) & 255] ^ i)
    return acc + cell.value


class HostSpeed:
    """Samples reference_loop() before each operation, outside its timing.

    A shared VM's speed drifts by 20% and more over minutes, and slows
    down for bursts of a second or less; every timing drifts with it.  The
    reference loop runs no simulator code, so the median of the samples
    nearest an operation measures the host alone at that moment, and
    ``scale()`` puts the operation's time at the nominal host speed: a
    simulator change moves it, the host mostly does not.
    """

    #: samples on each side of an operation's own in the median that scales it
    WINDOW = 5

    def __init__(self) -> None:
        self.ms: list[float] = []

    def sample(self) -> int:
        """Time reference_loop() once; returns the sample's index."""
        # untimed: refills the caches the last operation evicted, so the
        # timed call does not depend on the simulator's footprint
        reference_loop()
        t0 = time.perf_counter()
        reference_loop()
        self.ms.append((time.perf_counter() - t0) * 1e3)
        return len(self.ms) - 1

    def scale(self, at: int) -> float:
        """Nominal over measured reference time near sample ``at``.

        It multiplies the host time of the operation that followed it.
        """
        near = self.ms[max(0, at - self.WINDOW): at + self.WINDOW + 1]
        return REF_NOMINAL_MS / statistics.median(near)


def fresh_registry() -> None:
    """Drop every compiled workload and its trace memo.

    Each set-up then pays body compilation and trace synthesis as a fresh
    process would, and a pass's traces are freed before the next pass
    synthesizes its own, so peak RSS does not grow with the pass count.
    """
    registry._CACHE.clear()


@dataclasses.dataclass
class Tally:
    """What one measured phase saw: samples, checks and summed counters."""

    #: (host value, index of the host sample taken just before the op)
    op_ms: list[tuple[float, int]] = dataclasses.field(default_factory=list)
    kips: list[tuple[float, int]] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    #: (op key, digest) in the order the ops ran
    digests: list[tuple[str, str]] = dataclasses.field(default_factory=list)
    #: summed integer SimStats fields, plus level.<name> counts
    totals: Counter = dataclasses.field(default_factory=Counter)
    #: useful IPC per (workload name, seed, recipe label)
    ipc: dict = dataclasses.field(default_factory=dict)
    host: HostSpeed = dataclasses.field(default_factory=HostSpeed)

    def add(self, key: str, stats: SimStats, length: int, expected: str | None) -> None:
        self.attempted += 1
        self.fail(key, check_stats(stats, length, expected))
        self.digests.append((key, digest(stats)))
        for field, value in stats.to_dict().items():
            if field == "level_counts":
                self.totals.update({f"level.{k}": v for k, v in value.items()})
            elif isinstance(value, int):
                self.totals[field] += value

    def fail(self, key: str, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(f"{key}: {p}" for p in problems)


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}


def expected_digests(golden: dict, workload: str, seed: int, n: int, tally: Tally):
    """The n golden digests of one pass, or n Nones when the seed is not covered."""
    recorded = golden.get(workload, {}).get(str(seed))
    if recorded is None:
        return [None] * n
    if len(recorded) != n:
        tally.problems.append(
            f"golden.json lists {len(recorded)} digests for {workload} seed {seed}; "
            f"the pass ran {n} (regenerate with --write-golden)"
        )
        return (list(recorded) + [""] * n)[:n]
    return recorded


class SimWorkload:
    """Workloads whose operation is one simulation (``RunSpec.run``).

    A pass runs every (workload name, recipe) pair once at one seed; pass
    k uses seed S+k.  Every trace of a pass is synthesized before the pass
    starts, so synthesis never lands in a timed simulation.
    """

    def __init__(self, key, names, recipes, length, seed, golden) -> None:
        self.key = key
        self.ops = [(name, recipe) for name in names for recipe in recipes]
        self.names = names
        self.length = length
        self.seed = seed
        self.golden = golden
        self.traces: dict[str, list] = {}
        self.checks: list[str] = []

    def prepare(self, seed: int) -> None:
        self.traces = {}
        fresh_registry()
        self.traces = {n: get_workload(n).trace(self.length, seed) for n in self.names}

    def prepare_first(self) -> None:
        self.prepare(self.seed)

    def setup(self) -> None:
        """One set-up: synthesize pass 0 and run one untimed simulation."""
        self.prepare_first()
        name, recipe = self.ops[0]
        recipe.run(name, self.length, self.seed)

    def first_pass(self, tally: Tally, span=contextlib.nullcontext) -> float:
        return self.run_pass(self.seed, tally, span)

    def harness_metrics(self) -> dict:
        return {
            "harness.cache.hit_frac": (0.0, "ratio"),
            "harness.checkpoint.restored": (0, "count"),
            "harness.checkpoint.stored": (0, "count"),
        }

    def run_pass(self, seed: int, tally: Tally, span=contextlib.nullcontext) -> float:
        """Run every op once at ``seed``; returns the summed op seconds."""
        expected = expected_digests(self.golden, self.key, seed, len(self.ops), tally)
        spent = 0.0
        for (name, recipe), want in zip(self.ops, expected):
            key = f"{name}|{recipe.name}|{seed}"
            if get_workload(name).trace(self.length, seed) is not self.traces[name]:
                raise RuntimeError(f"{key}: trace was not synthesized before timing")
            at = tally.host.sample()
            try:
                with span(key):
                    t0 = time.perf_counter()
                    stats = recipe.run(name, self.length, seed)
                    seconds = time.perf_counter() - t0
            except Exception as exc:  # a raising simulation is a failed op
                tally.attempted += 1
                tally.fail(key, [f"raised {type(exc).__name__}: {exc}"])
                continue
            spent += seconds
            tally.op_ms.append((seconds * 1e3, at))
            tally.kips.append((stats.useful_instructions / seconds / 1e3, at))
            tally.ipc[(name, seed, recipe.name)] = stats.useful_ipc
            tally.add(key, stats, self.length, want)
        if expected[0] is not None:
            self.checks.append(f"golden digests: seed {seed}, {len(self.ops)} simulations")
        return spent

    def measure(self, seconds: float, tally: Tally) -> None:
        """Whole passes until ``seconds`` of simulation and MIN_SAMPLES ops."""
        spent = 0.0
        k = 0
        while k == 0 or (
            k < MAX_PASSES and (spent < seconds or len(tally.op_ms) < MIN_SAMPLES)
        ):
            if k:
                self.prepare(self.seed + k)
            spent += self.run_pass(self.seed + k, tally)
            k += 1
        self.checks.append(
            f"invariants: {tally.attempted} simulations over {k} passes "
            f"(seeds {self.seed}..{self.seed + k - 1})"
        )
        self.rerun_first(tally)

    def rerun_first(self, tally: Tally) -> None:
        name, recipe = self.ops[0]
        key = f"{name}|{recipe.name}|{self.seed}"
        first = dict(tally.digests).get(key)
        again = digest(recipe.run(name, self.length, self.seed))
        tally.fail(f"{key} rerun", [] if again == first else [f"{again} != {first}"])
        self.checks.append(f"rerun: {key} digest {'identical' if again == first else 'CHANGED'}")

    def report(self, tally: Tally) -> list[str]:
        """Figure 3's speedups (simulated time) beside the paper, when run."""
        lines = []
        for label in ("stvp", "mtvp8"):
            ratios = [
                ipc / tally.ipc[(name, seed, "baseline")]
                for (name, seed, mode), ipc in tally.ipc.items()
                if mode == label and (name, seed, "baseline") in tally.ipc
            ]
            if not ratios:
                continue
            pct = (statistics.geometric_mean(ratios) - 1.0) * 100.0
            lines.append(
                f"{label}_speedup_pct {pct:.2f} % (simulated useful IPC vs baseline, "
                f"geomean of n={len(ratios)})"
            )
        if lines:
            lines.append(
                f"paper reference: Fig. 3 MTVP-8 with Wang-Franklin "
                f"~{PAPER_FIG3_MTVP8_PCT:.0f}%; the model is otherwise unvalidated"
            )
        return lines


class CampaignWorkload:
    """A checked-in sweep campaign: one cold pass, then cached passes.

    The cold pass simulates every row into a fresh result cache and
    checkpoint store; each cached pass replays the campaign into a fresh
    result store over the warm cache, which it must only read.  The
    operation timed is one cached pass.

    Result stores are in-memory SQLite databases: a file store's commit
    flushes made a cached pass take 1x-2x as long from run to run on
    the same input, which would drown every code change in disk noise.
    The cache and checkpoint files live in the checkout.
    """

    key = "campaign"

    def __init__(self, seed: int, golden: dict, work: Path) -> None:
        data = tomllib.loads((BENCH / "campaign.toml").read_text())
        data["sweep"]["seeds"] = [seed]
        self.spec = SweepSpec.from_dict(data)
        self.golden = golden
        self.work = work
        self.dir: Path | None = None
        self.checks: list[str] = []
        self.cold_rows: dict[tuple[str, int], str] = {}

    def prepare(self) -> None:
        self.traces = {}
        fresh_registry()
        spec = self.spec
        length = spec.warmup + spec.sample
        self.traces = {
            (n, s): get_workload(n).trace(length, s)
            for n in spec.workloads
            for s in spec.seeds
        }
        if self.dir is not None:
            shutil.rmtree(self.dir)
        self.dir = Path(tempfile.mkdtemp(dir=self.work))
        self.cache = ResultCache(self.dir / "cache")
        self.checkpoints = CheckpointStore(self.dir / "checkpoints")
        self.policy = ExecutionPolicy(
            jobs=1, lanes=1, dispatch="local", cache=self.cache, checkpoints=self.checkpoints
        )

    def prepare_first(self) -> None:
        self.prepare()

    def setup(self) -> None:
        """One set-up: synthesize, open fresh stores, one untimed row."""
        self.prepare()
        row = campaign_rows(self.spec)[0]
        run_spec_for(row["params"], warmup=self.spec.warmup, sample=self.spec.sample).run(
            row["workload"], row["length"], row["seed"]
        )

    def _pass(self, span_name: str, span, progress=None):
        """One run_sweep into a fresh store: (seconds, done rows' stats by key)."""
        length = self.spec.warmup + self.spec.sample
        for (name, seed), trace in self.traces.items():
            if get_workload(name).trace(length, seed) is not trace:
                raise RuntimeError(f"{name} seed {seed}: trace was not synthesized before timing")
        with span(span_name):
            t0 = time.perf_counter()
            store = ResultStore(":memory:")
            try:
                repro.sweep.run_sweep(self.spec, store, policy=self.policy, progress=progress)
                seconds = time.perf_counter() - t0
                rows = store.rows(self.spec.name)
            finally:
                store.close()
        stats = {}
        for row in rows:
            if row["status"] == "done":
                stats[(row["point_id"], row["seed"])] = SimStats.from_dict(json.loads(row["stats"]))
        return seconds, stats, len(rows)

    def cold_pass(self, tally: Tally, span=contextlib.nullcontext, sample_rows=False) -> float:
        """Simulate every row; returns the pass's wall seconds.

        A row's time runs from the previous row's end (the first row's:
        from the pass's start) to its own, as run_sweep's per-row progress
        callback sees them; each row is one kips sample.  With
        ``sample_rows``, a host sample follows each row, outside the rows'
        times.
        """
        stored_before = self.checkpoints.stores
        host = tally.host
        at = host.sample()
        start = time.perf_counter()
        row_times = []

        def after_row(_event) -> None:
            nonlocal at, start
            row_times.append((time.perf_counter() - start, at))
            if sample_rows:
                at = host.sample()
            start = time.perf_counter()

        seconds, stats, n_rows = self._pass("cold pass", span, after_row)
        by_seed: dict[int, list] = {}
        for key in sorted(stats):
            by_seed.setdefault(key[1], []).append(key)
        if n_rows > len(stats):
            tally.attempted += n_rows - len(stats)
            tally.failed += n_rows - len(stats)
            tally.problems.append(f"cold pass: {n_rows - len(stats)} rows not done")
        for seed, keys in sorted(by_seed.items()):
            expected = expected_digests(self.golden, self.key, seed, len(keys), tally)
            for key, want in zip(keys, expected):
                tally.add(f"{key[0]}|{seed}", stats[key], self.spec.sample, want)
            if expected[0] is not None:
                self.checks.append(f"golden digests: row seed {seed}, {len(keys)} rows")
        self.cold_rows = {key: digest(s) for key, s in stats.items()}
        tally.kips.extend((self.spec.sample / row_s / 1e3, at) for row_s, at in row_times)
        self.checks.append(
            f"cold pass: {len(stats)}/{n_rows} rows done, invariants checked, "
            f"{self.checkpoints.hits} checkpoints restored, "
            f"{self.checkpoints.stores - stored_before} stored"
        )
        return seconds

    def cached_pass(self, tally: Tally, span=contextlib.nullcontext) -> float:
        stores_before = (self.cache.stores, self.checkpoints.stores)
        hits_before = self.cache.hits
        at = tally.host.sample()
        seconds, stats, n_rows = self._pass("cached pass", span)
        tally.op_ms.append((seconds * 1e3, at))
        tally.attempted += n_rows
        for key, want in self.cold_rows.items():
            got = digest(stats[key]) if key in stats else "missing"
            if got != want:
                tally.failed += 1
                tally.problems.append(f"cached row {key}: {got} != cold pass {want}")
        if (self.cache.stores, self.checkpoints.stores) != stores_before:
            tally.fail("cached pass", ["wrote to the result cache or checkpoint store"])
        if self.cache.hits - hits_before != n_rows:
            tally.fail("cached pass", [f"{self.cache.hits - hits_before} cache hits for {n_rows} rows"])
        return seconds

    def measure(self, seconds: float, tally: Tally) -> None:
        """The cold pass, then cached passes for ``seconds`` and MIN_SAMPLES at least."""
        self.cold_pass(tally, sample_rows=True)
        # the first cached passes after the cold pass run up to 2x slower:
        # checked like the rest, but not timed
        for _ in range(WARMUP_PASSES):
            self.cached_pass(tally)
        tally.op_ms.clear()
        spent = 0.0
        n = 0
        while n < MIN_SAMPLES or (n < 1000 and spent < seconds):
            spent += self.cached_pass(tally)
            n += 1
        self.checks.append(f"cached passes: {n}, every row identical to the cold pass, read-only")
        self.rerun_first(tally)

    def rerun_first(self, tally: Tally) -> None:
        row = campaign_rows(self.spec)[0]
        spec = run_spec_for(row["params"], warmup=self.spec.warmup, sample=self.spec.sample)
        again = digest(spec.run(row["workload"], row["length"], row["seed"]))
        first = self.cold_rows.get((row["point_id"], row["seed"]))
        tally.fail("rerun", [] if again == first else [f"{again} != {first}"])
        self.checks.append(
            f"rerun: first row {'identical' if again == first else 'CHANGED'} outside the harness"
        )

    def first_pass(self, tally: Tally, span=contextlib.nullcontext) -> float:
        return self.cold_pass(tally, span) + sum(
            self.cached_pass(tally, span) for _ in range(TRACE_CACHED_PASSES)
        )

    def harness_metrics(self) -> dict:
        """Store traffic since the last prepare()."""
        lookups = self.cache.hits + self.cache.misses
        return {
            "harness.cache.hit_frac": (self.cache.hits / lookups, "ratio"),
            "harness.checkpoint.restored": (self.checkpoints.hits, "count"),
            "harness.checkpoint.stored": (self.checkpoints.stores, "count"),
        }

    def report(self, tally: Tally) -> list[str]:
        return []


def build(workload: str, seed: int, golden: dict, work: Path):
    if workload == "campaign":
        return CampaignWorkload(seed, golden, work)
    if workload == "suite":
        return SimWorkload(
            "suite", workload_names(), (BASELINE, STVP, MTVP8), 16000, seed, golden
        )
    if workload == "baseline-long":
        return SimWorkload("baseline-long", workload_names(), (BASELINE,), 32000, seed, golden)
    chase = tuple(
        name
        for name in workload_names()
        if any(s.pattern is AddressPattern.CHASE for s in get_workload(name).spec.streams)
    )
    return SimWorkload("mtvp-spawn", chase, (MTVP8_ALWAYS,), 12000, seed, golden)


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------
def timed_run(bench, seconds: float) -> tuple[Tally, dict]:
    """Set up SETUP_REPEATS times, then measure with tracing off.

    Every timing is a host time at the nominal host speed (HostSpeed).
    """
    tally = Tally()
    host = tally.host
    setups = []
    for _ in range(SETUP_REPEATS):
        at = host.sample()
        t0 = time.perf_counter()
        bench.setup()
        setups.append((IMPORT_S + time.perf_counter() - t0, at))
    bench.measure(seconds, tally)
    op_ms = [ms * host.scale(at) for ms, at in tally.op_ms]
    kips = [k / host.scale(at) for k, at in tally.kips]
    metrics = {
        "setup_s": (statistics.median(s * host.scale(at) for s, at in setups), "s"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "op_ms_p80": (statistics.quantiles(op_ms, n=5)[-1], "ms"),
        "kips": (statistics.geometric_mean(kips), "kIPS"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return tally, metrics


def traced_run(bench, tracer: layers.Tracer) -> tuple[Tally, dict]:
    """The first pass twice, untraced then traced, and the layer ledger."""
    bench.setup()
    untraced = Tally()
    tally = Tally()
    base_s = bench.first_pass(untraced)
    with tracer:
        with tracer.span("setup"):
            bench.prepare_first()
        traced_s = bench.first_pass(tally, tracer.span)
    same = [d for _, d in untraced.digests] == [d for _, d in tally.digests]
    tally.fail("traced run", [] if same else ["digests differ from the untraced run"])
    bench.checks.append(
        f"traced digests {'identical to' if same else 'DIFFER from'} the untraced run "
        f"({len(tally.digests)} results)"
    )
    tally.problems.extend(untraced.problems)
    tally.failed += untraced.failed

    totals = tracer.totals()
    metrics = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.self_s"] = (totals[layer][0], "s")
        metrics[f"{layer}.calls"] = (totals[layer][1], "count")
    for layer in COUNTED_LAYERS:
        metrics[f"{layer}.calls"] = (totals[layer][1], "count")
    metrics["core.engine.run.ns_per_inst"] = (
        totals["core.engine.run"][0] / tally.totals["instructions_stepped"] * 1e9, "ns"
    )
    metrics.update(stats_metrics(tally.totals))
    metrics.update(bench.harness_metrics())
    op_spans = [s for s in tracer.spans if s["name"] != "setup"]
    overhead = sum(
        seconds
        for s in op_spans
        for layer, (seconds, _) in s["layers"].items()
        if layer.startswith(("harness.", "sweep."))
    )
    metrics["campaign.overhead_frac"] = (overhead / sum(s["dur"] for s in op_spans), "ratio")
    metrics["trace.attributed_frac"] = (tracer.attributed_frac(), "ratio")
    metrics["trace.overhead_frac"] = (traced_s / base_s - 1.0, "ratio")
    return tally, metrics


def stats_metrics(t: Counter) -> dict:
    """Exact counts and ratios summed over a phase's SimStats."""

    def ratio(num, den):
        return num / den if den else 0.0

    levels = sum(t[f"level.{lv}"] for lv in MEM_LEVELS)
    predictions = t["stvp_predictions"] + t["mtvp_predictions"]
    out = {f"memory.level.{lv}": (ratio(t[f"level.{lv}"], levels), "ratio") for lv in MEM_LEVELS}
    out.update({
        "memory.prefetcher.stream_hits": (t["prefetch_stream_hits"], "count"),
        "memory.prefetcher.mistrains": (t["prefetch_mistrains"], "count"),
        "memory.store_buffer.stalls": (t["store_buffer_stalls"], "count"),
        "memory.store_buffer.forwards": (t["store_forwards"], "count"),
        "branch.mispredict_frac": (ratio(t["branch_mispredicts"], t["branches"]), "ratio"),
        "vp.accuracy": (ratio(t["stvp_correct"] + t["mtvp_correct"], predictions), "ratio"),
        "select.declined_frac": (
            ratio(t["declined_predictions"], predictions + t["declined_predictions"]), "ratio"
        ),
        "core.engine.spawns": (t["spawns"], "count"),
        "core.engine.confirm_frac": (ratio(t["confirms"], t["spawns"]), "ratio"),
        "core.engine.wasted_frac": (
            ratio(t["wasted_instructions"], t["useful_instructions"] + t["wasted_instructions"]),
            "ratio",
        ),
    })
    return out


# ----------------------------------------------------------------------
# golden digests, the all-workloads mode, the CLI
# ----------------------------------------------------------------------
def write_golden(work: Path) -> None:
    """Record every op's digest at GOLDEN_SEEDS (campaign: row seeds)."""
    golden: dict = {}
    for name in WORKLOADS[:3]:
        bench = build(name, 0, {}, work)
        for seed in GOLDEN_SEEDS:
            bench.prepare(seed)
            tally = Tally()
            bench.run_pass(seed, tally)
            golden.setdefault(name, {})[str(seed)] = [d for _, d in tally.digests]
            print(f"{name} seed {seed}: {len(tally.digests)} digests", flush=True)
    # a workload's trace memo holds 8 seeds: simulate the rows in two campaigns
    half = len(GOLDEN_SEEDS) // 2
    for seeds in (GOLDEN_SEEDS[:half], GOLDEN_SEEDS[half:]):
        bench = CampaignWorkload(0, {}, work)
        bench.spec = dataclasses.replace(bench.spec, seeds=tuple(seeds))
        bench.prepare()
        bench.cold_pass(Tally())
        for key, value in sorted(bench.cold_rows.items()):
            golden.setdefault("campaign", {}).setdefault(str(key[1]), []).append(value)
        print(f"campaign seeds {seeds.start}..{seeds.stop - 1}: {len(bench.cold_rows)} digests",
              flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def run_subprocess(workload: str, seed: int, seconds: float, trace: int, echo=True) -> dict:
    """One fresh invocation of this script; returns its final JSON line."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if echo:
        print(f"== {workload} ==\n{proc.stdout}", end="", flush=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):  # it crashed before printing a result
        sys.stderr.write(proc.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload in this process (default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="time to measure, in whole passes (default 8)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer ledger instead of end-to-end metrics")
    parser.add_argument("--trace-dir", type=Path, default=ROOT / ".bench_out",
                        help="where --trace 1 writes <workload>.trace.json")
    parser.add_argument("--write-golden", action="store_true",
                        help=f"regenerate {GOLDEN.name} and exit")
    args = parser.parse_args(argv)
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]  # every execution setting below is explicit

    if args.workload is None and not args.write_golden:
        results = [
            run_subprocess(w, args.seed, args.seconds, args.trace) for w in WORKLOADS
        ]
        return 0 if all(r["correct"] for r in results) else 1

    tracer = None
    if args.trace:
        try:
            tracer = layers.Tracer()
        except layers.LayerMapError as exc:
            print(f"bench: stale layer map in bench/layers.py: {exc}", file=sys.stderr)
            return 2

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        if args.write_golden:
            write_golden(work)
            return 0
        bench = build(args.workload, args.seed, load_golden(), work)
        if tracer is None:
            tally, metrics = timed_run(bench, args.seconds)
            n = f"(n={len(tally.op_ms)})"
        else:
            tally, metrics = traced_run(bench, tracer)
            n = ""
            print(tracer.table())
            path = tracer.write_chrome(args.trace_dir / f"{args.workload}.trace.json")
            print(f"chrome trace: {path}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    for check in bench.checks:
        print(f"check {check}")
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    if tracer is None:
        ref_ms = statistics.median(tally.host.ms)
        print(f"host speed: reference loop median {ref_ms:.3f} ms over {len(tally.host.ms)} "
              f"samples, nominal {REF_NOMINAL_MS} ms (run-wide factor {REF_NOMINAL_MS / ref_ms:.4f}); "
              f"each timing below is scaled by the {2 * HostSpeed.WINDOW + 1} samples nearest it")
    for name, (value, unit) in metrics.items():
        sample = n if name.startswith("op_ms") else ""
        print(f"{name} {value:.6g} {unit} {sample}".rstrip())
    for line in bench.report(tally):
        print(line)
    correct = tally.failed == 0 and not tally.problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
