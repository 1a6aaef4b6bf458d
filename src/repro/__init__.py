"""repro — a reproduction of "Multithreaded Value Prediction".

Tuck & Tullsen, HPCA-11, 2005.

The package implements threaded value prediction (MTVP) on a trace-driven
SMT out-of-order timing model, together with every substrate the paper's
evaluation depends on: the Table 1 memory hierarchy with a stream-buffer
stride prefetcher, a 2bcgskew branch predictor, Wang–Franklin / DFCM /
oracle value predictors, the ILP-pred load selector, the tagged speculative
store buffer, and a synthetic SPEC CPU2000 workload suite.

Quickstart::

    from repro import MachineConfig, simulate
    from repro.workloads import get_workload

    workload = get_workload("mcf")
    base = simulate(workload, MachineConfig.hpca05_baseline())
    mtvp = simulate(workload, MachineConfig.mtvp(threads=8))
    print(f"speedup {mtvp.useful_ipc / base.useful_ipc:.2f}x")
"""

import dataclasses

from repro.core import Engine, FetchPolicy, MachineConfig, SimMode, SimStats
from repro.isa import Instruction, InstructionBuilder, OpClass
from repro.select import (
    AlwaysSelector,
    IlpCommitSelector,
    IlpPredSelector,
    LoadSelector,
    MissOracleSelector,
    PredictionKind,
)
from repro.vp import (
    DfcmPredictor,
    LastValuePredictor,
    OraclePredictor,
    StridePredictor,
    ValuePredictor,
    WangFranklinPredictor,
)
from repro.workloads import Workload, get_workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "AlwaysSelector",
    "DfcmPredictor",
    "Engine",
    "FetchPolicy",
    "IlpCommitSelector",
    "IlpPredSelector",
    "Instruction",
    "InstructionBuilder",
    "LastValuePredictor",
    "LoadSelector",
    "MachineConfig",
    "MissOracleSelector",
    "OpClass",
    "OraclePredictor",
    "PredictionKind",
    "SimMode",
    "SimStats",
    "StridePredictor",
    "ValuePredictor",
    "WangFranklinPredictor",
    "Workload",
    "get_workload",
    "simulate",
    "workload_names",
]


def simulate(
    workload_or_trace,
    config: MachineConfig,
    predictor: ValuePredictor | None = None,
    selector: LoadSelector | None = None,
    length: int | None = None,
    seed: int = 0,
    tracer=None,
    metrics=None,
    warmup: int = 0,
    checkpoints=None,
    checkpoint_key: str | None = None,
) -> SimStats:
    """Run one simulation and return its statistics.

    Args:
        workload_or_trace: A :class:`~repro.workloads.Workload`, a workload
            name from the modeled suite, or an explicit instruction list.
        config: Machine configuration (see :class:`MachineConfig` presets).
        predictor: Value predictor; defaults to the oracle predictor.
        selector: Load selector; defaults to :class:`AlwaysSelector`.
        length: Trace length when a workload is given (defaults to the
            workload's own ``default_length``).  With ``warmup`` this is
            the *measured* length: the trace is extended by ``warmup``
            instructions that are fast-forwarded, not timed.
        seed: Dynamic-stream seed when a workload is given.
        tracer: Optional :class:`repro.obs.Tracer` collecting cycle-stamped
            events; export with its ``export_chrome``/``export_jsonl``.
        metrics: Optional :class:`repro.obs.MetricsRegistry`; results land
            in ``stats.extended``.
        warmup: Instructions to execute *functionally* before timing
            starts (caches, prefetcher and predictor tables warm; no
            cycles accumulate).  Reported as
            ``stats.warmup_instructions``.
        checkpoints: Optional
            :class:`~repro.harness.checkpoint.CheckpointStore`; the warmed
            architectural state (warm start plus fast-forward) is
            restored from (or stored into) it under ``checkpoint_key``,
            so repeated warmups are paid once; a restore adopts the
            store's warm template of the entry, built on its first hit.
            Observed runs (``tracer``/``metrics``) use it like any other:
            only the timed run reports, so a restored observed run equals
            a fresh one, events included.  Multi-program co-schedules
            never touch the store (a co-schedule has no single warmup
            stream) but still warm.
        checkpoint_key: Store key identifying the warmed state (see
            :func:`~repro.harness.checkpoint.arch_key`); required with a
            store (a :class:`ValueError` otherwise), ignored without one.

    Returns:
        The populated :class:`SimStats` for the run.

    Multi-program modes (``config.mode`` whose execution model is
    ``multi_program``, i.e. the SMT co-schedule) accept a
    :class:`~repro.workloads.TraceSet` — one program per hardware context
    (``num_contexts`` adapts to the set's size) — or a workload, in which
    case ``num_contexts`` independent dynamic streams of the same workload
    body are generated with seeds ``seed, seed+1, ...``.  ``warmup``
    (functional fast-forward) is single-stream by construction and is
    rejected for them.
    """
    from repro.core.modes import resolve_model
    from repro.workloads import TraceSet

    if checkpoints is not None and checkpoint_key is None:
        raise ValueError(
            "checkpoints= needs a checkpoint_key naming the warmed state "
            "(see repro.harness.arch_key)"
        )
    if isinstance(workload_or_trace, str):
        workload_or_trace = get_workload(workload_or_trace)
    traces = None
    if resolve_model(config.mode).multi_program:
        if warmup:
            raise ValueError(
                f"warmup is not supported in {config.mode.value} mode: "
                "fast-forward advances a single program stream"
            )
        if isinstance(workload_or_trace, TraceSet):
            traces = list(workload_or_trace.traces)
            if len(traces) != config.num_contexts:
                config = dataclasses.replace(
                    config, num_contexts=len(traces)
                )
        elif isinstance(workload_or_trace, Workload):
            traces = [
                workload_or_trace.trace(length=length, seed=seed + i)
                for i in range(config.num_contexts)
            ]
        else:
            raise TypeError(
                f"{config.mode.value} mode needs a TraceSet or a workload "
                "(one explicit trace cannot fill multiple contexts)"
            )
        trace = traces[0]
    elif isinstance(workload_or_trace, TraceSet):
        if len(workload_or_trace) != 1:
            raise ValueError(
                f"mode {config.mode.value} runs a single program; the "
                f"TraceSet holds {len(workload_or_trace)}"
            )
        trace = list(workload_or_trace.traces[0])
    elif isinstance(workload_or_trace, Workload):
        if warmup:
            measured = workload_or_trace.spec.default_length if length is None else length
            length = warmup + measured
        trace = workload_or_trace.trace(length=length, seed=seed)
    else:
        trace = list(workload_or_trace)
    # the warmed state is looked up before the engine is built, so that on
    # a hit the restore takes the warm start's place: the footprint is
    # never computed and the warm start never runs
    store = None if traces is not None else checkpoints
    arch = store.get(checkpoint_key) if store is not None else None
    warm_addresses = None
    if arch is None and config.warm_caches and isinstance(workload_or_trace, Workload):
        warm_addresses = _steady_state_footprint(workload_or_trace, config)
    engine = Engine(
        trace, config, arch=arch, warm_addresses=warm_addresses,
        predictor=predictor, selector=selector,
        tracer=tracer, metrics=metrics, traces=traces,
    )
    if arch is None:
        if warmup:
            engine.fast_forward(warmup)
        if store is not None:
            store.put(checkpoint_key, engine.snapshot())
    return engine.run()


def _steady_state_footprint(workload: Workload, config: MachineConfig) -> list[range]:
    """The line addresses a long-running execution would keep resident,
    one ``range`` per stream region, in stream order.

    Streams whose region fits in the L3 are fully warm in steady state;
    larger regions walked without revisits are as cold at the SimPoint as
    at startup, so they are left untouched.
    """
    return [
        range(base, base + region_bytes, config.line_size)
        for base, region_bytes in workload.stream_regions()
        if region_bytes <= config.l3_size
    ]
