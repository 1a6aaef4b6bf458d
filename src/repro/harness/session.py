"""The unified run facade: one keyword-only front door for simulations.

Before this module the harness had separate entry points —
``runner.run_once`` (one spec, one workload) and
``parallel.run_simulations`` (a task batch with jobs/caching) — each with
its own argument spelling for the same ingredients.
A :class:`Session` binds those ingredients once (machine config, predictor
and selector recipes, trace length, seed, jobs, cache, observability) and
exposes every run style as a method, so call sites never thread eight
keyword arguments through three layers.

Quickstart::

    from repro.harness import Session

    s = Session(config=MachineConfig.mtvp(8), predictor="wang-franklin",
                length=20000, observe=True,
                policy=ExecutionPolicy(cache="~/.cache/repro"))
    stats = s.run("mcf")                       # cached, with extended metrics
    all_stats = s.run_many(["mcf", "art"])     # same, fanned out
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Sequence

from repro.core import MachineConfig, SimStats
from repro.harness.parallel import run_simulations
from repro.harness.policy import ExecutionPolicy
from repro.harness.runner import ModeResult, RunSpec, compare_modes, default_length


class ConfigFactory:
    """A picklable factory over a concrete :class:`MachineConfig`.

    ``Session`` accepts a ready-made config instance, but every simulation
    needs its own copy (the engine treats the config as immutable, yet
    factories are the pipeline's currency: the cache serializes the
    factory's *result*, and the process pool pickles the factory).  An
    instance-holding class — unlike a lambda — survives both.
    """

    def __init__(self, config: MachineConfig) -> None:
        self.config = config

    def __call__(self) -> MachineConfig:
        return dataclasses.replace(self.config)

    def __repr__(self) -> str:
        return f"ConfigFactory({self.config!r})"


def _as_config_factory(config) -> Callable[[], MachineConfig]:
    if config is None:
        return MachineConfig.hpca05_baseline
    if isinstance(config, MachineConfig):
        return ConfigFactory(config)
    if callable(config):
        return config
    raise TypeError(
        "config must be None, a MachineConfig, or a zero-argument factory, "
        f"not {type(config).__name__}"
    )


class Session:
    """Bound simulation ingredients plus every way to run them.

    All parameters are keyword-only; every one has a sensible default, so
    ``Session().run("mcf")`` is the shortest path to a baseline result.

    Args:
        config: ``None`` (Table 1 baseline), a :class:`MachineConfig`
            instance, or a zero-argument config factory.
        predictor: Registry name (see ``repro.vp.names()``) or factory.
        selector: Registry name (see ``repro.select.names()``) or factory.
        length: Trace length; ``None`` uses the harness default.
        seed: Dynamic-stream seed.
        policy: An :class:`~repro.harness.policy.ExecutionPolicy`
            bundling jobs/cache/checkpoints/warmup/sample (``None``
            = every field from the environment).
        observe: Attach a metrics registry to every run, filling
            ``stats.extended`` (cached under a distinct key).
        tracer: Optional :class:`repro.obs.Tracer` shared by this
            session's direct runs.  Traced runs bypass the result cache —
            a cache hit would yield stats but no events.
        name: Label used for the underlying :class:`RunSpec`.
    """

    def __init__(
        self,
        *,
        config=None,
        predictor: str | Callable = "oracle",
        selector: str | Callable = "ilp-pred",
        length: int | None = None,
        seed: int = 0,
        observe: bool = False,
        tracer=None,
        name: str = "session",
        policy: ExecutionPolicy | None = None,
    ) -> None:
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.config_factory = _as_config_factory(config)
        self.predictor = predictor
        self.selector = selector
        self.length = length or default_length()
        self.seed = seed
        self.observe = observe
        self.tracer = tracer
        self.name = name

    # ------------------------------------------------------------------
    def spec(self, name: str | None = None) -> RunSpec:
        """This session's recipe as a :class:`RunSpec`."""
        return RunSpec(
            name or self.name,
            self.config_factory,
            predictor_factory=self.predictor,
            selector_factory=self.selector,
            observe=self.observe,
            warmup=self.policy.warmup or 0,
            sample=self.policy.sample,
        )

    def run(self, workload: str) -> SimStats:
        """One workload through this session's recipe.

        Cached and observe-aware; when a ``tracer`` is bound the run goes
        straight to the engine instead (events are not cacheable).
        """
        if self.tracer is not None:
            return self.spec().run(
                workload, self.length, self.seed, tracer=self.tracer
            )
        return self.run_many([workload])[0]

    def run_many(
        self, workloads: Iterable[str], progress=None
    ) -> list[SimStats]:
        """A batch of workloads, fanned out over ``jobs`` with caching.

        ``progress`` (optional) receives per-task completion dicts — see
        :func:`~repro.harness.parallel.run_simulations`.
        """
        spec = self.spec()
        tasks = [(w, spec, self.length, self.seed) for w in workloads]
        return run_simulations(tasks, progress=progress, policy=self.policy)

    def run_replicates(
        self, workload: str, seeds: Iterable[int], progress=None
    ) -> list[SimStats]:
        """Seed replicates of one workload, one simulation per seed.

        Results are bit-identical to ``[s.run(w) for each seed]`` and
        cached per seed.
        """
        spec = self.spec()
        tasks = [(workload, spec, self.length, s) for s in seeds]
        return run_simulations(tasks, progress=progress, policy=self.policy)

    def compare(
        self,
        workloads: Sequence[str],
        specs: list[RunSpec],
        baseline: RunSpec | None = None,
    ) -> dict[str, list[ModeResult]]:
        """Every spec against a common baseline on every workload.

        The session supplies length/seed/jobs/cache; the specs supply the
        machines (the session's own recipe is available via
        :meth:`spec`).
        """
        return compare_modes(
            tuple(workloads),
            specs,
            length=self.length,
            seed=self.seed,
            baseline=baseline,
            policy=self.policy,
        )

    def __repr__(self) -> str:
        return (
            f"Session(name={self.name!r}, predictor={self.predictor!r}, "
            f"selector={self.selector!r}, length={self.length}, "
            f"seed={self.seed}, observe={self.observe})"
        )
