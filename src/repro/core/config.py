"""Machine configuration (Table 1) and simulation modes."""

from __future__ import annotations

import dataclasses
import enum
import operator


class SimMode(enum.Enum):
    """Which latency-tolerance architecture the engine models."""

    #: no value prediction at all (the speedup denominator everywhere)
    BASELINE = "baseline"
    #: single-threaded value prediction with selective re-issue recovery
    STVP = "stvp"
    #: threaded value prediction (the paper's contribution)
    MTVP = "mtvp"
    #: thread split without value prediction — the "spawn only" comparator
    #: of Section 5.7 (window separation, no dependence breaking)
    SPAWN_ONLY = "spawn_only"
    #: N independent programs co-scheduled over the shared pipeline — the
    #: classic multiprogrammed SMT substrate the paper's machine descends
    #: from; measures inter-program interference, no speculation at all
    SMT = "smt"
    #: Prophet-style speculative multithreading: spawn a thread at a
    #: control-flow boundary ahead of the parent with pre-computed
    #: live-ins; squash when the control speculation was wrong
    SPMT = "spmt"


class FetchPolicy(enum.Enum):
    """Parent-thread fetch behaviour after spawning (Section 5.5)."""

    #: the paper's default: the spawning thread stops fetching until the
    #: prediction is confirmed ("single fetch path MTVP")
    SINGLE_FETCH_PATH = "single_fetch_path"
    #: the aggressive policy: the parent keeps fetching and executing,
    #: competing with the speculative thread (shown to be counterproductive)
    NO_STALL = "no_stall"


#: numeric MachineConfig fields that are sizes, widths or counts: >= 1
_COUNTS = (
    "pipeline_depth", "fetch_width", "rob_size", "rename_regs", "iq_size",
    "issue_width", "int_issue", "fp_issue", "mem_issue", "commit_width",
    "l1_size", "l1_assoc", "l2_size", "l2_assoc", "l3_size", "l3_assoc",
    "line_size", "mshrs", "prefetch_entries", "prefetch_streams",
    "prefetch_depth", "num_contexts", "multi_value", "spmt_skip",
)
#: numeric MachineConfig fields that are latencies or penalties: >= 0
_LATENCIES = (
    "front_latency", "redirect_penalty", "l1_latency", "l2_latency",
    "l3_latency", "mem_latency", "prefetch_fill_latency", "spawn_latency",
    "reissue_penalty",
)
#: the domain table: every numeric MachineConfig field with its least
#: valid value.  ``store_buffer_entries`` is a count that may also be
#: None (an unbounded store buffer).
DOMAIN = {
    **{name: 1 for name in _COUNTS},
    "store_buffer_entries": 1,
    **{name: 0 for name in _LATENCIES},
}
# one C call each, so the check costs little on configs built per run
_count_values = operator.attrgetter(*_COUNTS)
_latency_values = operator.attrgetter(*_LATENCIES)


@dataclasses.dataclass
class MachineConfig:
    """All architectural parameters of the simulated machine.

    Defaults reproduce Table 1 of the paper.  The front end is a 30-stage
    pipe fetching 16 instructions per cycle; ``front_latency`` is the
    fetch-to-queue depth and ``redirect_penalty`` the full refill charged
    on a branch misprediction.
    """

    # pipeline
    pipeline_depth: int = 30
    fetch_width: int = 16
    front_latency: int = 15
    redirect_penalty: int = 30
    # windows
    rob_size: int = 256
    rename_regs: int = 224
    iq_size: int = 64  # each of IQ, FQ and MQ
    # issue
    issue_width: int = 8
    int_issue: int = 6
    fp_issue: int = 2
    mem_issue: int = 4
    commit_width: int = 8
    # memory hierarchy (sizes in bytes, latencies in cycles)
    l1_size: int = 64 * 1024
    l1_assoc: int = 2
    l1_latency: int = 2
    l2_size: int = 512 * 1024
    l2_assoc: int = 8
    l2_latency: int = 20
    l3_size: int = 4 * 1024 * 1024
    l3_assoc: int = 16
    l3_latency: int = 50
    mem_latency: int = 1000
    line_size: int = 64
    #: outstanding memory-miss limit (MSHRs) — the machine's MLP cap
    mshrs: int = 16
    # prefetcher (Table 1: PC based, 256 entry, 8 stream buffers)
    prefetch_enabled: bool = True
    prefetch_entries: int = 256
    prefetch_streams: int = 8
    prefetch_depth: int = 32
    #: time for a prefetched line to arrive in a stream buffer; prefetches
    #: usually target lines far from the core, so this sits between the L3
    #: and main-memory latencies (pipelined, aggressively ahead)
    prefetch_fill_latency: int = 250
    # threading
    num_contexts: int = 8
    #: True models SMT (Section 3.2's default substrate): contexts share
    #: the instruction queues, rename pool, issue ports and fetch
    #: bandwidth.  False models a chip multiprocessor: every context owns
    #: private copies of all four — more aggregate resources, but thread
    #: spawns must copy register state between cores, which is why the
    #: CMP preset uses a far larger spawn latency.
    smt_shared: bool = True
    spawn_latency: int = 8
    store_buffer_entries: int | None = 128
    fetch_policy: FetchPolicy = FetchPolicy.SINGLE_FETCH_PATH
    # prediction behaviour
    mode: SimMode = SimMode.MTVP
    multi_value: int = 1
    reissue_penalty: int = 2
    #: SPMT only: how many instructions past the spawning branch the
    #: speculative thread starts (the skipped region the parent still
    #: executes; Prophet's "future execution region" distance)
    spmt_skip: int = 48
    # instrumentation
    collect_multivalue: bool = False
    #: pre-touch the trace's memory footprint before timing starts, so a
    #: short trace behaves like the steady-state SimPoint window it models
    #: rather than a cold-cache startup transient
    warm_caches: bool = True

    def __post_init__(self) -> None:
        entries = self.store_buffer_entries
        if (
            min(_count_values(self)) < 1
            or min(_latency_values(self)) < 0
            or (entries is not None and entries < 1)
        ):
            for name, least in DOMAIN.items():
                value = getattr(self, name)
                if value is not None and value < least:
                    raise ValueError(f"{name} must be >= {least}, got {value!r}")
        # the execution model owns per-mode normalization (single-threaded
        # modes use exactly one context, so experiment code can vary only
        # `mode`); the import is local because modes imports this module
        from repro.core.modes import resolve_model

        if resolve_model(self.mode).single_context and self.num_contexts != 1:
            self.num_contexts = 1

    # ------------------------------------------------------------------
    @classmethod
    def hpca05_baseline(cls, **overrides) -> "MachineConfig":
        """The Table 1 machine with no value prediction."""
        return cls(mode=SimMode.BASELINE, num_contexts=1, **overrides)

    @classmethod
    def stvp(cls, **overrides) -> "MachineConfig":
        """Single-threaded value prediction on the Table 1 machine."""
        return cls(mode=SimMode.STVP, num_contexts=1, **overrides)

    @classmethod
    def mtvp(cls, threads: int = 8, **overrides) -> "MachineConfig":
        """Threaded value prediction with ``threads`` hardware contexts."""
        return cls(mode=SimMode.MTVP, num_contexts=threads, **overrides)

    @classmethod
    def cmp(cls, cores: int = 8, **overrides) -> "MachineConfig":
        """Threaded value prediction on a chip multiprocessor.

        Section 3.2: on a CMP, replicating register state "would require a
        more expensive mechanism to copy state" than the SMT flash copy —
        the default spawn latency here models an inter-core transfer.
        Each core owns private queues, rename registers, issue ports and
        fetch bandwidth; the cache hierarchy below the L1 stays shared.
        """
        params = dict(
            mode=SimMode.MTVP,
            num_contexts=cores,
            smt_shared=False,
            spawn_latency=32,
        )
        params.update(overrides)
        return cls(**params)

    @classmethod
    def spawn_only(cls, threads: int = 8, **overrides) -> "MachineConfig":
        """The Section 5.7 'spawn only' machine (split window, no VP)."""
        return cls(mode=SimMode.SPAWN_ONLY, num_contexts=threads, **overrides)

    @classmethod
    def smt(cls, programs: int = 2, **overrides) -> "MachineConfig":
        """``programs`` independent workloads co-scheduled over one core.

        The multiprogrammed SMT substrate: every context runs its own
        program, competing for the shared instruction queues, rename pool,
        issue ports, fetch bandwidth and cache hierarchy.  No value
        prediction, no speculation — the measurement is interference.
        """
        return cls(mode=SimMode.SMT, num_contexts=programs, **overrides)

    @classmethod
    def spmt(cls, threads: int = 8, **overrides) -> "MachineConfig":
        """Prophet-style speculative multithreading on the Table 1 machine.

        Threads spawn at control-flow boundaries ``spmt_skip`` instructions
        ahead of the parent with pre-computed live-ins, and are squashed
        when the spawning branch was mispredicted.
        """
        return cls(mode=SimMode.SPMT, num_contexts=threads, **overrides)

    @classmethod
    def wide_window(cls, **overrides) -> "MachineConfig":
        """Section 5.7's idealized checkpoint machine.

        "a machine with similar architectural parameters except for an 8192
        entry ROB, unlimited registers and 8192 entry queues."
        """
        params = dict(
            mode=SimMode.BASELINE,
            num_contexts=1,
            rob_size=8192,
            iq_size=8192,
            rename_regs=1 << 30,
        )
        params.update(overrides)
        return cls(**params)
