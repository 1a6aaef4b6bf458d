"""Simulation statistics."""

from __future__ import annotations

import copy
import dataclasses

from repro.memory import MemLevel

#: serialization schema emitted by :meth:`SimStats.to_dict` alongside the
#: ``extended`` section.  Version 1 is the implicit original layout (no
#: marker); version 2 added ``extended``.  The marker only appears when
#: ``extended`` is non-empty, so version-1 consumers and stored fixtures
#: (caches, golden files) see byte-identical output for ordinary runs.
SCHEMA_VERSION = 2


@dataclasses.dataclass
class SimStats:
    """Counters and derived metrics from one simulation run.

    ``useful_instructions`` counts only instructions whose results became
    architectural — commits by the non-speculative thread plus speculative
    commits that were later confirmed.  ``useful_ipc`` is the paper's
    headline metric ("Change in Useful IPC").
    """

    # headline
    cycles: int = 0
    useful_instructions: int = 0
    wasted_instructions: int = 0
    # value prediction
    stvp_predictions: int = 0
    stvp_correct: int = 0
    stvp_incorrect: int = 0
    mtvp_predictions: int = 0
    mtvp_correct: int = 0
    mtvp_incorrect: int = 0
    declined_predictions: int = 0
    # threading
    spawns: int = 0
    confirms: int = 0
    kills: int = 0
    spawn_denied_no_context: int = 0
    store_buffer_stalls: int = 0
    # speculative multithreading (SPMT mode only; zero elsewhere)
    spmt_spawns: int = 0
    spmt_squashes: int = 0
    #: per-program attribution rows (SMT co-schedule mode only): one dict
    #: per root context with its stream index, commits, cycles and IPC
    per_context: list = dataclasses.field(default_factory=list)
    # front end
    branches: int = 0
    branch_mispredicts: int = 0
    # memory
    loads: int = 0
    stores: int = 0
    store_forwards: int = 0
    level_counts: dict[MemLevel, int] = dataclasses.field(
        default_factory=lambda: {level: 0 for level in MemLevel}
    )
    prefetch_stream_hits: int = 0
    prefetch_mistrains: int = 0
    # multiple-value potential (Figure 5)
    followed_predictions: int = 0
    primary_wrong_candidate_present: int = 0
    # throughput instrumentation
    #: every instruction the engine stepped, speculative or not (equals the
    #: engine's processor-wide fetched counter); deterministic, unlike the
    #: commit-accounted useful/wasted split it decomposes into
    instructions_stepped: int = 0
    # interval accounting (warmup + sample protocol)
    #: instructions skipped by functional fast-forward before the timed
    #: region; all other counters describe only the measured interval
    warmup_instructions: int = 0
    #: host wall-clock seconds spent inside Engine.run(); volatile (machine-
    #: dependent), so it is excluded from equality and from to_dict()
    wall_seconds: float = dataclasses.field(default=0.0, compare=False)
    #: observability payload from :mod:`repro.obs` (counters, cycle-weighted
    #: histograms, trace summary); empty for uninstrumented runs.  Excluded
    #: from equality so an instrumented run compares equal to its
    #: uninstrumented twin — instrumentation is read-only by contract.
    extended: dict = dataclasses.field(default_factory=dict, compare=False)

    # ------------------------------------------------------------------
    @property
    def useful_ipc(self) -> float:
        """Useful instructions per cycle."""
        if self.cycles <= 0:
            return 0.0
        return self.useful_instructions / self.cycles

    @property
    def total_predictions(self) -> int:
        """All value predictions acted upon (STVP + MTVP)."""
        return self.stvp_predictions + self.mtvp_predictions

    @property
    def prediction_accuracy(self) -> float:
        """Fraction of acted-upon predictions that were correct."""
        total = self.total_predictions
        if not total:
            return 0.0
        return (self.stvp_correct + self.mtvp_correct) / total

    @property
    def branch_accuracy(self) -> float:
        """Branch direction prediction accuracy."""
        if not self.branches:
            return 1.0
        return 1.0 - self.branch_mispredicts / self.branches

    @property
    def memory_miss_fraction(self) -> float:
        """Fraction of loads that went all the way to main memory."""
        if not self.loads:
            return 0.0
        return self.level_counts[MemLevel.MEMORY] / self.loads

    @property
    def sim_kips(self) -> float:
        """Simulation throughput: thousands of stepped instructions per
        host wall-clock second.  0.0 when no timing was recorded (e.g. a
        stats object rebuilt from a cache entry)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.instructions_stepped / self.wall_seconds / 1e3

    @property
    def multivalue_fraction(self) -> float:
        """Figure 5 metric: followed predictions whose primary value was
        wrong while the correct value was present and over threshold."""
        if not self.followed_predictions:
            return 0.0
        return self.primary_wrong_candidate_present / self.followed_predictions

    def to_dict(self) -> dict:
        """Counters as plain JSON-serializable types (see :meth:`from_dict`).

        ``wall_seconds`` is deliberately dropped: it is host-dependent, and
        everything downstream of this dict (result cache entries, exports,
        golden digests, determinism checks) must stay bit-identical across
        machines and runs.  The dict is a fresh rendering in field order:
        it shares no mutable object (``per_context`` rows, ``extended``)
        with these stats.
        """
        out = {name: getattr(self, name) for name in _RENDERED}
        if out["extended"]:
            out["extended"] = copy.deepcopy(out["extended"])
            out["schema_version"] = SCHEMA_VERSION
        else:
            # ordinary runs serialize exactly as schema 1 did, keeping old
            # cache entries and golden fixtures comparable byte for byte
            del out["extended"]
        if not out["warmup_instructions"]:
            # same byte-compat trick: full (non-warmed) runs serialize
            # without the interval-accounting key at all
            del out["warmup_instructions"]
        if not out["spmt_spawns"] and not out["spmt_squashes"]:
            # mode-specific sections appear only when the mode produced
            # them, keeping every pre-existing golden digest byte-identical
            del out["spmt_spawns"]
            del out["spmt_squashes"]
        if out["per_context"]:
            out["per_context"] = [dict(row) for row in out["per_context"]]
        else:
            del out["per_context"]
        out["level_counts"] = {
            level.name.lower(): count for level, count in self.level_counts.items()
        }
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SimStats":
        """Rebuild a :class:`SimStats` from :meth:`to_dict` output.

        Unknown keys (e.g. derived metrics added by exporters) are ignored
        so exported JSON round-trips too.
        """
        kwargs = {k: v for k, v in data.items() if k in _FIELDS}
        kwargs["level_counts"] = {
            MemLevel[name.upper()]: count
            for name, count in data.get("level_counts", {}).items()
        }
        return cls(**kwargs)

    def summary(self) -> str:
        """Multi-line human-readable digest (used by examples)."""
        lines = [
            f"cycles               {self.cycles}",
            f"useful instructions  {self.useful_instructions}",
            f"useful IPC           {self.useful_ipc:.3f}",
            f"wasted instructions  {self.wasted_instructions}",
            f"value predictions    {self.total_predictions} "
            f"(accuracy {self.prediction_accuracy:.2%})",
            f"spawns/confirms/kills {self.spawns}/{self.confirms}/{self.kills}",
            f"branch accuracy      {self.branch_accuracy:.2%}",
            f"loads to memory      {self.memory_miss_fraction:.2%}",
            f"store-buffer stalls  {self.store_buffer_stalls}",
        ]
        if self.wall_seconds > 0.0:
            lines.append(
                f"sim throughput       {self.sim_kips:.1f} kips "
                f"({self.instructions_stepped} steps in {self.wall_seconds:.3f}s)"
            )
        return "\n".join(lines)


#: every SimStats field name (what :meth:`SimStats.from_dict` accepts)
_FIELDS = frozenset(field.name for field in dataclasses.fields(SimStats))
#: the fields :meth:`SimStats.to_dict` starts from, in declaration order
#: (``wall_seconds`` is host-dependent and never serialized)
_RENDERED = tuple(
    field.name for field in dataclasses.fields(SimStats) if field.name != "wall_seconds"
)


class ConservationError(ValueError):
    """A run's instruction counts do not add up (:func:`check_conservation`)."""


def check_conservation(stats: SimStats, length: int) -> None:
    """Raise :class:`ConservationError` unless ``stats`` conserve instructions.

    Every run of every mode satisfies two equalities:

    * useful instructions equal the measured ``length`` — once per
      program when the run reports ``per_context`` rows (an SMT
      co-schedule of two length-1000 streams commits 2000);
    * useful plus wasted instructions equal ``instructions_stepped``:
      every stepped instruction either became architectural or was
      squashed.

    Two integer comparisons; the harness runs them on every fresh result
    before it is cached or committed, so no stored number breaks them.
    """
    expected = length * len(stats.per_context) if stats.per_context else length
    useful = stats.useful_instructions
    if useful != expected:
        raise ConservationError(
            f"useful_instructions {useful} != measured length {expected}"
        )
    wasted = stats.wasted_instructions
    if useful + wasted != stats.instructions_stepped:
        raise ConservationError(
            f"useful {useful} + wasted {wasted} = {useful + wasted} "
            f"!= instructions_stepped {stats.instructions_stepped}"
        )
