"""Run descriptions and the multi-configuration comparison driver."""

from __future__ import annotations

import dataclasses
import functools
import json
import os
from typing import Callable

from repro import select, simulate, vp
from repro.core import MachineConfig, SimStats
from repro.harness.cache import key_template, render_config
from repro.harness.checkpoint import MEMORY_CHECKPOINTS, arch_key
from repro.harness.metrics import percent_speedup
from repro.select import LoadSelector
from repro.vp import ValuePredictor
from repro.workloads import get_workload

#: built-in dynamic trace length for experiments when ``REPRO_TRACE_LEN``
#: is unset; resolved lazily by :func:`default_length` so the environment
#: variable can be set (or monkeypatched) after this module is imported
_FALLBACK_LENGTH = 16000


def default_length() -> int:
    """The default dynamic trace length, honouring ``$REPRO_TRACE_LEN``.

    Read at call time — not import time — so tests and scripts can adjust
    the environment whenever they like.
    """
    env = os.environ.get("REPRO_TRACE_LEN", "").strip()
    if not env:
        return _FALLBACK_LENGTH
    try:
        length = int(env)
    except ValueError:
        length = 0
    if length < 1:
        raise ValueError(
            f"REPRO_TRACE_LEN must be a positive integer trace length, got {env!r}"
        )
    return length


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One named machine configuration plus its predictor/selector recipe.

    Factories (not instances) are required because predictor and selector
    state must be fresh for every simulation.  The predictor and selector
    accept registry names (``"wang-franklin"``, ``"ilp-pred"``, ...; see
    :data:`repro.vp.REGISTRY` / :data:`repro.select.REGISTRY`) as well as
    explicit factory callables — names are resolved once at construction.

    ``observe=True`` attaches a fresh
    :class:`~repro.obs.MetricsRegistry` to every run so the resulting
    stats carry ``extended`` occupancy/speculation metrics; it is part of
    the cache identity, so observed and plain results never alias.

    ``warmup``/``sample`` select the interval protocol: ``warmup``
    instructions are fast-forwarded functionally before timing starts,
    and ``sample`` (when set) overrides the caller's trace length as the
    measured-interval length — so one spec pins "warm 50k, measure 10k"
    regardless of the length it is run with.  Both are part of the cache
    identity; both default to the historical full-trace behaviour.

    A spec is frozen: its renderings (:attr:`rendered_config`,
    :attr:`config_text`, :attr:`key_template`) are computed once and
    kept, so a field assigned later would leave them describing another
    run.  Derive a variant with :func:`dataclasses.replace`.
    """

    name: str
    config_factory: Callable[[], MachineConfig]
    predictor_factory: Callable[[], ValuePredictor] | str = "oracle"
    selector_factory: Callable[[], LoadSelector] | str = "ilp-pred"
    observe: bool = False
    warmup: int = 0
    sample: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "predictor_factory", vp.resolve(self.predictor_factory))
        object.__setattr__(self, "selector_factory", select.resolve(self.selector_factory))
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")
        if self.sample is not None and self.sample < 1:
            raise ValueError("sample must be positive (or None)")

    @functools.cached_property
    def rendered_config(self) -> dict:
        """:func:`~repro.harness.cache.render_config` of this spec's config.

        Built once per spec: the spec's :attr:`key_template` and
        :attr:`config_text` share this one rendering.
        """
        return render_config(self.config_factory())

    @functools.cached_property
    def config_text(self) -> str:
        """The sweep store's ``config`` column for this spec: the sorted
        JSON of :attr:`rendered_config`, encoded once per spec."""
        return json.dumps(self.rendered_config, sort_keys=True, default=str)

    @functools.cached_property
    def key_template(self) -> tuple[str, str, str] | None:
        """:func:`~repro.harness.cache.key_template` of this spec: the
        constant text of its cache keys, rendered once per spec."""
        return key_template(self)

    def run(
        self,
        workload_name: str,
        length: int,
        seed: int = 0,
        tracer=None,
        metrics=None,
        checkpoints=None,
    ) -> SimStats:
        """Simulate this configuration on one workload.

        ``checkpoints`` (a
        :class:`~repro.harness.checkpoint.CheckpointStore`) lets the run
        restore its warmed architectural state — the warm start, plus the
        fast-forward when ``warmup`` is set — instead of re-deriving it;
        the key covers only architectural ingredients, so specs differing
        in timing axes, observed or not, share checkpoints.  ``None``
        means the in-process
        :data:`~repro.harness.checkpoint.MEMORY_CHECKPOINTS`; ``False``
        re-derives the state.
        """
        if metrics is None and self.observe:
            from repro.obs import MetricsRegistry

            metrics = MetricsRegistry()
        measured = self.sample if self.sample is not None else length
        checkpoint_key = None
        if checkpoints is not False:
            checkpoint_key = arch_key(
                workload_name, seed, self.warmup, self, measured
            )
        if checkpoint_key is None:
            checkpoints = None
        elif checkpoints is None:
            checkpoints = MEMORY_CHECKPOINTS
        return simulate(
            get_workload(workload_name),
            self.config_factory(),
            predictor=self.predictor_factory(),
            selector=self.selector_factory(),
            length=measured,
            seed=seed,
            tracer=tracer,
            metrics=metrics,
            warmup=self.warmup,
            checkpoints=checkpoints,
            checkpoint_key=checkpoint_key,
        )


@dataclasses.dataclass
class ModeResult:
    """Per-workload outcome of one configuration against the baseline."""

    workload: str
    suite: str
    mode: str
    ipc: float
    base_ipc: float
    stats: SimStats

    @property
    def speedup_percent(self) -> float:
        """Percent useful-IPC improvement over the baseline machine."""
        return percent_speedup(self.ipc, self.base_ipc)


def compare_modes(
    workload_names: tuple[str, ...],
    specs: list[RunSpec],
    length: int | None = None,
    seed: int = 0,
    baseline: RunSpec | None = None,
    *,
    policy=None,
) -> dict[str, list[ModeResult]]:
    """Run every spec on every workload against a common baseline.

    All ``(workload, spec)`` simulations — including the shared baseline —
    are independent, so they are dispatched as one batch through
    :func:`~repro.harness.parallel.run_simulations`, which fans out over
    ``policy.jobs`` worker processes and serves repeats from
    ``policy.cache``.  Results are identical to a serial, uncached run
    for the same seed.

    Args:
        policy: An :class:`~repro.harness.policy.ExecutionPolicy`; unset
            fields defer to the environment (``$REPRO_JOBS`` default
            serial, ``0`` every core; ``$REPRO_CACHE_DIR`` default off).

    Returns a mapping from spec name to its per-workload results, in the
    order of ``workload_names``; a repeated spec name raises ``ValueError``.
    """
    from repro.harness.parallel import run_simulations

    names = [spec.name for spec in specs]
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"spec name {name!r} is repeated; each spec needs its own name")
    n = length or default_length()
    base_spec = baseline if baseline is not None else RunSpec(
        "baseline", MachineConfig.hpca05_baseline
    )
    tasks = [(name, base_spec, n, seed) for name in workload_names]
    for spec in specs:
        tasks.extend((name, spec, n, seed) for name in workload_names)
    all_stats = run_simulations(tasks, policy=policy)

    base_ipc = {
        name: stats.useful_ipc
        for name, stats in zip(workload_names, all_stats[: len(workload_names)])
    }
    results: dict[str, list[ModeResult]] = {}
    offset = len(workload_names)
    for spec in specs:
        rows = []
        for j, name in enumerate(workload_names):
            stats = all_stats[offset + j]
            rows.append(
                ModeResult(
                    workload=name,
                    suite=get_workload(name).suite,
                    mode=spec.name,
                    ipc=stats.useful_ipc,
                    base_ipc=base_ipc[name],
                    stats=stats,
                )
            )
        offset += len(workload_names)
        results[spec.name] = rows
    return results
