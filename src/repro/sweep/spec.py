"""Declarative sweep specifications.

A :class:`SweepSpec` names a design space instead of a single run: axes
over :class:`~repro.core.MachineConfig` fields, predictor/selector
registry names, machine presets, workloads, trace lengths — crossed into
concrete :class:`SweepPoint`\\ s by grid expansion and replicated over
seeds.  Specs are plain data, never evaluated: they load from TOML or
JSON files (the checked-in campaigns live under ``sweeps/``) and
serialize back to JSON, so a campaign is reviewable, diffable and
re-runnable long after the session that launched it.

TOML layout (see ``sweeps/store_buffer.toml`` for a real one)::

    [sweep]
    name = "store_buffer"
    workloads = ["int"]          # names, or the suite keywords int/fp/all
    lengths = [8000]
    seeds = 3                    # replicate count (or an explicit list)

    [base]                       # shared recipe every point starts from
    machine = "mtvp"
    threads = 8
    predictor = "wang-franklin"

    [axes]                       # the crossed design space
    store_buffer_entries = [16, 64, 256]

Axis and base keys are either the *special* recipe keys (``machine``,
``threads``, ``predictor``, ``selector``) or literal ``MachineConfig``
field names; unknown keys are rejected at load time with the valid
choices listed.  Enum-valued fields (``fetch_policy``, ``mode``) take
their string values; ``store_buffer_entries = 0`` means unbounded.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import tomllib
from pathlib import Path
from typing import Callable

from repro.core import FetchPolicy, MachineConfig, SimMode
from repro.harness.runner import RunSpec, default_length
from repro.workloads import SPEC_FP, SPEC_INT, get_workload


class SweepSpecError(ValueError):
    """A sweep specification is malformed."""


#: the machine presets: the names a spec's ``machine`` key and the CLI's
#: ``--machine`` flag accept, and the one table either builds configs from
PRESETS: dict[str, Callable[..., MachineConfig]] = {
    "baseline": MachineConfig.hpca05_baseline,
    "stvp": MachineConfig.stvp,
    "mtvp": MachineConfig.mtvp,
    "cmp": MachineConfig.cmp,
    "spawn-only": MachineConfig.spawn_only,
    "wide-window": MachineConfig.wide_window,
    "smt": MachineConfig.smt,
    "spmt": MachineConfig.spmt,
}

#: presets whose first argument is a context/core/program count
_THREADED_PRESETS = {"mtvp", "cmp", "spawn-only", "smt", "spmt"}

#: recipe keys that are not MachineConfig overrides
SPECIAL_KEYS = ("machine", "threads", "predictor", "selector")

_SUITES = {
    "int": lambda: SPEC_INT,
    "fp": lambda: SPEC_FP,
    "all": lambda: SPEC_INT + SPEC_FP,
}

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(MachineConfig)}

#: enum-typed MachineConfig fields and how to coerce their TOML strings
_ENUM_FIELDS = {"fetch_policy": FetchPolicy, "mode": SimMode}


def _check_keys(keys, where: str) -> None:
    for key in keys:
        if key in SPECIAL_KEYS or key in _CONFIG_FIELDS:
            continue
        valid = ", ".join(sorted(_CONFIG_FIELDS | set(SPECIAL_KEYS)))
        raise SweepSpecError(
            f"unknown {where} key {key!r}; valid keys are the recipe keys "
            f"({', '.join(SPECIAL_KEYS)}) and MachineConfig fields ({valid})"
        )


def _resolve_workloads(workloads) -> tuple[str, ...]:
    if isinstance(workloads, str):
        workloads = [workloads]
    names: list[str] = []
    for entry in workloads:
        if entry in _SUITES:
            names.extend(_SUITES[entry]())
        else:
            get_workload(entry)  # raises KeyError with the known names
            names.append(entry)
    if not names:
        raise SweepSpecError("a sweep needs at least one workload")
    # de-duplicate preserving order (suite keywords may overlap with names)
    return tuple(dict.fromkeys(names))


def _is_int(value) -> bool:
    return type(value) is int  # not a bool, nor a float int() would floor


def _require_int(what: str, value, minimum: int, error=SweepSpecError) -> None:
    if not (_is_int(value) and value >= minimum):
        kind = "non-negative" if minimum == 0 else "positive"
        raise error(f"{what} must be a {kind} integer, got {value!r}")


def _resolve_seeds(seeds) -> tuple[int, ...]:
    if _is_int(seeds):
        if seeds < 1:
            raise SweepSpecError("seeds must be a positive count or a list")
        return tuple(range(seeds))
    if not isinstance(seeds, (list, tuple)) or not all(map(_is_int, seeds)):
        raise SweepSpecError(
            f"seeds must be a positive count or a list of integers, got {seeds!r}"
        )
    if not seeds:
        raise SweepSpecError("a sweep needs at least one seed")
    return tuple(seeds)


def _resolve_lengths(lengths) -> tuple[int, ...]:
    if not isinstance(lengths, (list, tuple)):
        raise SweepSpecError(f"lengths must be a list, got {lengths!r}")
    for length in lengths:
        _require_int("each of lengths", length, 1)
    return tuple(lengths)


def point_id(params: dict, workload: str, length: int) -> str:
    """Stable content hash identifying one design point.

    Identity covers the full resolved recipe — machine params, workload
    and trace length — but *not* the seed: seeds are replicates of a
    point, stored as separate rows under the same id.
    """
    blob = json.dumps(
        {"params": params, "workload": workload, "length": length},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One fully-resolved design point (machine recipe × workload × length)."""

    point_id: str
    workload: str
    length: int
    params: dict

    def label(self) -> str:
        """Compact human-readable tag used in tables and logs."""
        parts = [f"{k}={v}" for k, v in self.params.items()]
        return f"{self.workload}@{self.length} " + " ".join(parts)


def _config_factory(params: dict) -> Callable[[], MachineConfig]:
    """The :class:`MachineConfig` factory a recipe dict describes.

    A preset classmethod, or a ``functools.partial`` over one binding
    ``threads`` and the field overrides: picklable (process pool) and
    registry-describable (result cache).
    """
    machine = params.get("machine", "mtvp")
    if machine not in PRESETS:
        raise SweepSpecError(
            f"unknown machine preset {machine!r} (valid: {', '.join(PRESETS)})"
        )
    preset = PRESETS[machine]
    overrides = {}
    for key, value in params.items():
        if key in SPECIAL_KEYS:
            continue
        if key in _ENUM_FIELDS and isinstance(value, str):
            value = _ENUM_FIELDS[key](value)
        if key == "store_buffer_entries" and value == 0:
            value = None  # TOML has no null; 0 entries means unbounded
        overrides[key] = value
    threads = params.get("threads")
    if machine in _THREADED_PRESETS:
        args = (threads,) if threads is not None else ()
        return functools.partial(preset, *args, **overrides)
    if threads is not None:
        raise SweepSpecError(
            f"preset {machine!r} is single-context; it takes no 'threads'"
        )
    return functools.partial(preset, **overrides) if overrides else preset


def run_spec_for(
    params: dict,
    name: str = "sweep",
    warmup: int = 0,
    sample: int | None = None,
) -> RunSpec:
    """Build the :class:`RunSpec` a recipe dict describes.

    The config factory is :func:`_config_factory`'s; predictor and
    selector stay registry names.  ``warmup``/``sample`` are
    campaign-level interval-protocol settings (see :class:`SweepSpec`),
    applied uniformly to every point.
    """
    return RunSpec(
        name,
        _config_factory(params),
        predictor_factory=params.get("predictor", "wang-franklin"),
        selector_factory=params.get("selector", "ilp-pred"),
        warmup=warmup,
        sample=sample,
    )


@dataclasses.dataclass
class SweepSpec:
    """A declarative design-space exploration campaign.

    Args:
        name: Campaign name (keys the results store).
        axes: Mapping of recipe key -> list of values to cross.
        base: Recipe shared by every point (axes override it).
        workloads: Workload names and/or suite keywords ``int``/``fp``/``all``.
        lengths: Trace lengths to cross in; empty uses the harness default.
        seeds: Replicate count (int) or explicit seed list.
        baseline: Recipe of the speedup denominator machine.
        retries: Default retry budget for failed points.
        warmup: Instructions functionally fast-forwarded before every
            point's timed region (0 = full-trace protocol).  Uniform
            across the campaign — points and baselines alike — so one
            architectural warmup checkpoint is shared by every point that
            varies only timing axes.
        sample: Measured-interval length overriding ``lengths`` for the
            timed region when set (the warmup+sample protocol).
    """

    name: str
    axes: dict = dataclasses.field(default_factory=dict)
    base: dict = dataclasses.field(default_factory=dict)
    workloads: tuple = ("int",)
    lengths: tuple = ()
    seeds: tuple = (0, 1, 2)
    baseline: dict = dataclasses.field(
        default_factory=lambda: {"machine": "baseline"}
    )
    retries: int = 1
    warmup: int = 0
    sample: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SweepSpecError("a sweep needs a name")
        _require_int("warmup", self.warmup, 0)
        _require_int("retries", self.retries, 0)
        if self.sample is not None:
            _require_int("sample", self.sample, 1)
        for where in ("axes", "base", "baseline"):
            if not isinstance(getattr(self, where), dict):
                raise SweepSpecError(f"{where} must be a table of recipe keys")
        _check_keys(self.base, "base")
        _check_keys(self.baseline, "baseline")
        _check_keys(self.axes, "axis")
        for key, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise SweepSpecError(
                    f"axis {key!r} must be a non-empty list of values"
                )
        self.axes = {k: list(v) for k, v in self.axes.items()}
        self.workloads = _resolve_workloads(self.workloads)
        self.seeds = _resolve_seeds(self.seeds)
        self.lengths = _resolve_lengths(self.lengths)
        # build every recipe's machine once, so a bad axis value fails the
        # load instead of each row it reaches
        recipes = [("baseline", self.baseline)]
        recipes += [("point", point.params) for point in self.expand()]
        for role, params in recipes:
            try:
                _config_factory(params)()
            except (TypeError, ValueError) as exc:
                raise SweepSpecError(f"{role} {params}: {exc}") from None

    # ------------------------------------------------------------------
    def resolved_lengths(self) -> tuple[int, ...]:
        return self.lengths or (default_length(),)

    def expand(self) -> list[SweepPoint]:
        """The spec's concrete design points, in deterministic order.

        Grid order is workloads (outer) × lengths × axis cross product
        (inner, axes in declaration order), so truncating to the first N
        points (``--points N``) yields N distinct recipes on the first
        workload.  Points are de-duplicated by ``point_id`` (repeated
        axis values, or axes shadowed by ``base``, would otherwise emit
        the same recipe twice and collide in the results store).
        """
        axis_names = list(self.axes)
        combos = list(itertools.product(*self.axes.values())) or [()]
        points: list[SweepPoint] = []
        seen: set[str] = set()
        for workload in self.workloads:
            for length in self.resolved_lengths():
                for combo in combos:
                    params = dict(self.base)
                    params.update(zip(axis_names, combo))
                    pid = point_id(params, workload, length)
                    if pid in seen:
                        continue
                    seen.add(pid)
                    points.append(SweepPoint(pid, workload, length, params))
        return points

    def baseline_point(self, workload: str, length: int) -> SweepPoint:
        """The denominator run paired with every point on ``workload``."""
        params = dict(self.baseline)
        return SweepPoint(
            "base-" + point_id(params, workload, length), workload, length, params
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["workloads"] = list(self.workloads)
        out["lengths"] = list(self.lengths)
        out["seeds"] = list(self.seeds)
        return out

    def to_json(self, path: str | Path | None = None) -> str:
        """Serialize to JSON; optionally also write to ``path``."""
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        """Build a spec from parsed TOML/JSON data.

        Accepts both the flat JSON form of :meth:`to_dict` and the TOML
        table form (``[sweep]`` holding the campaign fields next to
        ``[base]``/``[axes]``/``[baseline]``).
        """
        data = dict(data)
        sweep = dict(data.pop("sweep", {}))
        merged = {**sweep, **data}
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(merged) - known
        if unknown:
            raise SweepSpecError(
                f"unknown sweep field(s) {sorted(unknown)}; valid: {sorted(known)}"
            )
        if "name" not in merged:
            raise SweepSpecError("a sweep spec needs a name ([sweep] name = ...)")
        return cls(**merged)


def load_spec_file(path: str | Path, build: Callable, error: type[ValueError]):
    """``build`` applied to the top-level table of a ``.toml``/``.json`` file.

    A malformed file (unreadable, bad syntax, a top level that is not a
    table, or a field ``build`` rejects) raises ``error`` naming the path.
    """
    path = Path(path)
    try:
        text = path.read_text()
        data = tomllib.loads(text) if path.suffix == ".toml" else json.loads(text)
        if not isinstance(data, dict):
            raise TypeError(f"the top level must be a table, not {type(data).__name__}")
        return build(data)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise error(f"{path}: {exc}") from None


def load_spec(path: str | Path) -> SweepSpec:
    """Load a :class:`SweepSpec` from a ``.toml`` or ``.json`` file."""
    return load_spec_file(path, SweepSpec.from_dict, SweepSpecError)
