"""Declarative search specifications.

A :class:`SearchSpec` wraps a :class:`~repro.sweep.spec.SweepSpec` (the
design space, workloads, baseline — everything a sweep already declares)
and adds the successive-halving schedule: an ordered list of
:class:`Rung`\\ s of increasing fidelity, a promotion ``fraction``, the
``objective`` metric points compete on, and the statistical knobs of the
promotion test.  Specs are plain data: they load from TOML or JSON files
(checked-in searches live under ``sweeps/`` next to the sweep specs) and
serialize back to JSON, so a search is reviewable and re-runnable.

TOML layout (see ``sweeps/search_smoke.toml`` for a real one)::

    [search]
    name = "store_buffer_search"
    fraction = 0.25              # survivors per rung (of ranked points)
    objective = "mean"           # or "geomean"
    confidence = 0.95            # CI level of the promotion test
    max_extra_seeds = 2          # bandit tie-break budget per rung

    [[search.rungs]]             # cheap, broad
    seeds = 2
    sample = 500

    [[search.rungs]]             # expensive, final — full protocol
    seeds = 3
    sample = 2000

    [sweep]                      # the embedded SweepSpec, verbatim
    name = "store_buffer_grid"
    workloads = ["crafty"]
    lengths = [2000]

    [base]
    machine = "mtvp"
    threads = 2

    [axes]
    store_buffer_entries = [2, 8, 64, 0]

Rung fidelity must be non-decreasing (seeds and sample alike; a rung
without ``sample`` measures each point's full trace length, which counts
as the highest fidelity).  The final rung defines the protocol the
exhaustive reference sweep would use, which is what the fidelity harness
and the cost accounting compare against.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.sweep.spec import SweepSpec, SweepSpecError, load_spec_file


class SearchSpecError(ValueError):
    """A search specification is malformed."""


#: objective metrics a search can rank points by (PointAggregate fields)
OBJECTIVES = ("mean", "geomean")


@dataclasses.dataclass(frozen=True)
class Rung:
    """One fidelity level of the successive-halving schedule.

    Args:
        seeds: Seed replicates per surviving point at this rung (the
            bandit tie-break may add up to ``max_extra_seeds`` more).
        sample: Measured-interval length (``None`` = each point's full
            trace length — the terminal, highest-fidelity protocol).
        warmup: Warmup override for this rung (``None`` = the embedded
            sweep's ``warmup``).
    """

    seeds: int
    sample: int | None = None
    warmup: int | None = None

    def __post_init__(self) -> None:
        if self.seeds < 1:
            raise SearchSpecError("a rung needs seeds >= 1")
        if self.sample is not None and self.sample < 1:
            raise SearchSpecError("rung sample must be positive (or unset)")
        if self.warmup is not None and self.warmup < 0:
            raise SearchSpecError("rung warmup must be non-negative")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _fidelity(rung: Rung) -> tuple[float, int]:
    # None sample = full length = highest fidelity
    sample = float("inf") if rung.sample is None else float(rung.sample)
    return (sample, rung.seeds)


@dataclasses.dataclass
class SearchSpec:
    """A declarative successive-halving search over a sweep's grid.

    Args:
        sweep: The embedded design space (grid, workloads, baseline,
            retries — everything :class:`~repro.sweep.spec.SweepSpec`
            declares).  The sweep's own ``seeds``/``sample``/``warmup``
            are *not* used per rung; the rungs override them.
        rungs: Fidelity schedule, cheapest first, non-decreasing.
        name: Search name; rung sweeps are stored as ``{name}:rung{i}``
            in the shared results store.  Defaults to the sweep's name
            plus ``-search``.
        fraction: Fraction of ranked points promoted per rung, in
            (0, 1].  The survivor count is ``max(min_survivors,
            ceil(fraction * n))``.
        objective: ``"mean"`` or ``"geomean"`` percent speedup.
        confidence: Bootstrap-CI level of the promotion test.
        max_extra_seeds: Bandit budget — how many extra seed replicates
            a rung may allocate to CI-overlapping points before carrying
            the still-ambiguous ones forward.
        min_survivors: Floor on survivors per rung (>= 1).
    """

    sweep: SweepSpec
    rungs: tuple = ()
    name: str = ""
    fraction: float = 0.5
    objective: str = "mean"
    confidence: float = 0.95
    max_extra_seeds: int = 2
    min_survivors: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.sweep, SweepSpec):
            raise SearchSpecError("a search needs an embedded sweep spec")
        if not self.name:
            self.name = f"{self.sweep.name}-search"
        rungs = tuple(
            r if isinstance(r, Rung) else Rung(**r) for r in self.rungs
        )
        if not rungs:
            raise SearchSpecError("a search needs at least one rung")
        for prev, nxt in zip(rungs, rungs[1:]):
            if _fidelity(nxt) < _fidelity(prev):
                raise SearchSpecError(
                    "rung fidelity must be non-decreasing "
                    f"(rung {prev.to_dict()} then {nxt.to_dict()})"
                )
        self.rungs = rungs
        if not 0.0 < self.fraction <= 1.0:
            raise SearchSpecError(
                f"fraction must be in (0, 1], not {self.fraction!r}"
            )
        if self.objective not in OBJECTIVES:
            raise SearchSpecError(
                f"objective must be one of {OBJECTIVES}, not {self.objective!r}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise SearchSpecError(
                f"confidence must be in (0, 1), not {self.confidence!r}"
            )
        if self.max_extra_seeds < 0:
            raise SearchSpecError("max_extra_seeds must be non-negative")
        if self.min_survivors < 1:
            raise SearchSpecError("min_survivors must be >= 1")

    # ------------------------------------------------------------------
    def rung_sweep(self, index: int) -> str:
        """The store sweep name holding rung ``index``'s rows."""
        return f"{self.name}:rung{index}"

    def exhaustive_sweep(self) -> str:
        """The store sweep name of the exhaustive reference campaign."""
        return f"{self.name}:exhaustive"

    def rung_warmup(self, index: int) -> int:
        rung = self.rungs[index]
        return rung.warmup if rung.warmup is not None else self.sweep.warmup

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "search": {
                "name": self.name,
                "fraction": self.fraction,
                "objective": self.objective,
                "confidence": self.confidence,
                "max_extra_seeds": self.max_extra_seeds,
                "min_survivors": self.min_survivors,
                "rungs": [r.to_dict() for r in self.rungs],
            },
            "sweep": self.sweep.to_dict(),
        }

    def to_json(self, path: str | Path | None = None) -> str:
        """Serialize to JSON; optionally also write to ``path``."""
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    @classmethod
    def from_dict(cls, data: dict) -> "SearchSpec":
        """Build a spec from parsed TOML/JSON data.

        Accepts both the TOML table form (``[search]`` + ``[[search.rungs]]``
        next to the usual ``[sweep]``/``[base]``/``[axes]`` tables) and
        the flat JSON form of :meth:`to_dict`.
        """
        data = dict(data)
        search = dict(data.pop("search", {}))
        if not data:
            raise SearchSpecError(
                "a search spec needs the embedded sweep tables "
                "([sweep]/[base]/[axes], or a 'sweep' object in JSON)"
            )
        known = {f.name for f in dataclasses.fields(cls)} - {"sweep"}
        unknown = set(search) - known
        if unknown:
            raise SearchSpecError(
                f"unknown search field(s) {sorted(unknown)}; "
                f"valid: {sorted(known)}"
            )
        rungs = search.pop("rungs", ())
        try:
            sweep = SweepSpec.from_dict(data)
        except SweepSpecError as exc:
            raise SearchSpecError(f"embedded sweep spec: {exc}") from None
        return cls(sweep=sweep, rungs=rungs, **search)


def load_search_spec(path: str | Path) -> SearchSpec:
    """Load a :class:`SearchSpec` from a ``.toml`` or ``.json`` file."""
    return load_spec_file(path, SearchSpec.from_dict, SearchSpecError)
