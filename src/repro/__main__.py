"""Command-line interface: ``python -m repro``.

Subcommands:

* ``workloads`` — list the modeled SPEC CPU2000 suite,
* ``run`` — simulate one workload on one machine and print the stats
  (``--trace`` additionally exports a Chrome/JSONL event trace),
* ``report`` — occupancy/speculation summary of an observed run (served
  from the result cache when the same run was reported before),
* ``experiment`` — regenerate a paper artifact (table/figure),
* ``sweep`` — run/status/report/resume a declarative design-space
  exploration campaign (a TOML/JSON spec under ``sweeps/``; results
  persist in SQLite, so interrupted campaigns resume where they stopped),
* ``cache`` — maintain the on-disk result cache (``prune``),
* ``search`` — run/status/report/resume an adaptive successive-halving
  search over a sweep grid,
* ``trace`` — write a workload's instruction trace to a binary file.

Predictor/selector choices come straight from the component registries
(:data:`repro.vp.REGISTRY`, :data:`repro.select.REGISTRY`), so a predictor
registered there is immediately drivable from the command line.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from repro import select, vp
from repro.sweep.spec import _THREADED_PRESETS, PRESETS, run_spec_for
from repro.workloads import get_workload, workload_names


def _int_at_least(text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse ``type`` of every count and length flag."""
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    """argparse ``type`` of ``--warmup`` (0 = no warmup) and ``--retries``."""
    return _int_at_least(text, 0)


def _positive_seconds(text: str) -> float:
    """argparse ``type`` of ``--stale-after`` and ``--heartbeat``."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds > 0, got {text}"
        )
    return value


def _workload(name: str) -> str:
    """argparse ``type`` of the ``run``/``report``/``trace`` workload
    argument: an unknown name is a usage error, not a traceback."""
    try:
        get_workload(name)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None
    return name


def _experiment(name: str) -> str:
    """argparse ``type`` of the ``experiment`` id: an unknown id is a
    usage error naming the known ones."""
    from repro.harness import EXPERIMENTS

    if name not in EXPERIMENTS:
        raise argparse.ArgumentTypeError(
            f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}"
        )
    return name


def _on_machine(args: argparse.Namespace, config: MachineConfig) -> str:
    """``on <machine> (<n> contexts)``, counted on the built config."""
    n = config.num_contexts
    return f"on {args.machine} ({n} context{'' if n == 1 else 's'})"


def _cmd_workloads(args: argparse.Namespace) -> int:
    for name in workload_names(args.suite):
        wl = get_workload(name)
        print(f"{name:10s} [{wl.suite}] {wl.spec.description}")
    return 0


def _policy_from_args(args: argparse.Namespace, **extra):
    """An :class:`~repro.harness.ExecutionPolicy` from the execution flags.

    Every subcommand spells execution the same way (``--jobs``,
    ``--retries``, ...); a flag the subcommand doesn't
    define simply stays unset on the policy, so the usual defaults
    (``REPRO_JOBS``, ``REPRO_CACHE_DIR``, ...) take over.  The stores
    come in ``extra`` (see :func:`_cli_cache`/:func:`_cli_checkpoints`);
    ``None`` extras are dropped (``False`` — cache off — is preserved).
    """
    from repro.harness import ExecutionPolicy

    fields = {}
    for name in ("jobs", "retries", "stale_after", "heartbeat"):
        value = getattr(args, name, None)
        if value is not None:
            fields[name] = value
    fields.update({k: v for k, v in extra.items() if v is not None})
    return ExecutionPolicy(**fields)


def _cli_store(store_cls, directory, what: str):
    """A store opened on ``directory``, or ``cannot use <what> directory:
    ...`` and exit 1 when the directory cannot be used."""
    try:
        return store_cls(directory)
    except OSError as exc:
        print(f"cannot use {what} directory: {exc}")
        raise SystemExit(1) from None


def _cli_cache(args: argparse.Namespace):
    """The ``--no-cache``/``--cache-dir`` rule every caching subcommand shares.

    ``False`` under ``--no-cache``, else a
    :class:`~repro.harness.ResultCache` on ``--cache-dir`` (default:
    ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``).
    """
    from repro.harness import ResultCache, default_cache_dir

    if args.no_cache:
        return False
    return _cli_store(ResultCache, args.cache_dir or default_cache_dir(), "cache")


def _cli_checkpoints(args: argparse.Namespace):
    """A :class:`~repro.harness.CheckpointStore` on ``--checkpoint-dir``,
    or ``None`` (the policy's ``$REPRO_CHECKPOINT_DIR`` default) without it."""
    from repro.harness import CheckpointStore

    if args.checkpoint_dir is None:
        return None
    return _cli_store(CheckpointStore, args.checkpoint_dir, "checkpoint")


def _run_recipe(args: argparse.Namespace, *, observe: bool = False):
    """The ``run``/``report`` recipe: its :class:`~repro.harness.RunSpec`
    and built machine config, from the preset table campaigns use."""
    params = {
        "machine": args.machine,
        "predictor": args.predictor,
        "selector": args.selector,
    }
    if args.machine in _THREADED_PRESETS:
        params["threads"] = args.threads
    spec = run_spec_for(
        params,
        name=args.machine,
        warmup=getattr(args, "warmup", None) or 0,
        sample=getattr(args, "sample", None),
        observe=observe,
    )
    return spec, spec.config_factory()


def _length(args: argparse.Namespace) -> int:
    return args.length or get_workload(args.workload).spec.default_length


def _cmd_run_traces(args: argparse.Namespace) -> int:
    """The ``run --traces`` path: simulate ingested external trace files.

    Bypasses the cached :func:`~repro.harness.run_simulations` path — cache
    keys identify generated workloads by (name, length, seed), which says
    nothing about the contents of arbitrary external files — and drives
    :func:`repro.simulate` directly.  Multiple files form a
    :class:`~repro.workloads.TraceSet` (one program per context, for the
    SMT co-schedule); a single file runs in any single-program mode.
    """
    from repro import simulate
    from repro.workloads import TraceFormatError, load_trace_set

    if args.trace or args.profile:
        args.parser.error("--traces cannot be combined with --trace/--profile")
    if args.workload is not None:
        args.parser.error("--traces replaces the workload argument; give one or the other")
    try:
        trace_set = load_trace_set(args.traces)
    except (OSError, TraceFormatError) as exc:
        args.parser.error(f"cannot ingest traces: {exc}")
    spec, config = _run_recipe(args)
    try:
        stats = simulate(
            trace_set,
            config,
            predictor=spec.predictor_factory(),
            selector=spec.selector_factory(),
            warmup=spec.warmup,
        )
    except (TypeError, ValueError) as exc:
        print(f"cannot run ingested traces: {exc}")
        return 1
    programs = ", ".join(trace_set.labels)
    print(f"{programs} {_on_machine(args, config)}")
    print(stats.summary())
    for row in stats.per_context:
        print(f"  ctx {row['stream']} [{trace_set.labels[row['stream']]}]: "
              f"ipc {row['ipc']:.3f}, {row['instructions']} instructions "
              f"in {row['cycles']} cycles")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.traces:
        return _cmd_run_traces(args)
    if args.workload is None:
        args.parser.error("a workload name is required (or pass --traces FILE...)")
    from repro.harness import ExecutionPolicy, run_simulations

    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()
    spec, config = _run_recipe(args, observe=tracer is not None)
    length = _length(args)

    def run():
        if tracer is not None:  # events are not cacheable: straight to the engine
            return spec.run(args.workload, length, args.seed, tracer=tracer)
        task = (args.workload, spec, length, args.seed)
        return run_simulations([task], policy=ExecutionPolicy(cache=False))[0]

    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        stats = profiler.runcall(run)
        profiler.dump_stats(args.profile)
    else:
        stats = run()
    print(f"{args.workload} {_on_machine(args, config)}")
    print(stats.summary())
    if tracer is not None:
        if args.trace_format == "jsonl":
            tracer.export_jsonl(args.trace)
        else:
            tracer.export_chrome(args.trace)
        summary = tracer.summary()
        print(
            f"wrote {summary['retained']} events "
            f"({summary['dropped']} dropped, {summary['threads']} context "
            f"lanes) to {args.trace} [{args.trace_format}]"
        )
    if args.profile:
        print(f"wrote cProfile data to {args.profile} "
              f"(inspect with: python -m pstats {args.profile})")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.harness import run_simulations
    from repro.obs import format_metrics

    policy = _policy_from_args(args, cache=_cli_cache(args))
    spec, config = _run_recipe(args, observe=True)
    length = _length(args)
    stats = run_simulations([(args.workload, spec, length, args.seed)], policy=policy)[0]
    print(f"{args.workload} {_on_machine(args, config)}, "
          f"{length} instructions")
    print()
    print(format_metrics(stats.extended))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.harness import EXPERIMENTS
    from repro.harness.export import result_to_csv, result_to_json

    policy = _policy_from_args(args, cache=_cli_cache(args))
    result = EXPERIMENTS[args.id](length=args.length, policy=policy)
    print(result.format_table())
    if args.json:
        result_to_json(result, args.json)
        print(f"wrote {args.json}")
    if args.csv:
        result_to_csv(result, args.csv)
        print(f"wrote {args.csv}")
    return 0


def _open_spec(args: argparse.Namespace, load, error: type[ValueError]):
    """``load(args.spec)`` and its results store (``--db``, default
    ``<spec>.db``); a malformed spec prints one line and exits 2."""
    from repro.sweep import ResultStore, default_db_path

    try:
        spec = load(args.spec)
    except error as exc:  # the message names the file
        print(f"repro: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    return spec, ResultStore(args.db or default_db_path(args.spec))


def _sweep_spec_and_store(args: argparse.Namespace):
    from repro.sweep import SweepSpecError, load_spec

    spec, store = _open_spec(args, load_spec, SweepSpecError)
    overrides = {}
    if args.seeds is not None:
        overrides["seeds"] = tuple(range(args.seeds))
    if args.length is not None:
        overrides["lengths"] = (args.length,)
    if getattr(args, "warmup", None) is not None:
        overrides["warmup"] = args.warmup
    if getattr(args, "sample", None) is not None:
        overrides["sample"] = args.sample
    if overrides:
        # a new spec, so the grid is expanded at the overridden lengths
        spec = dataclasses.replace(spec, **overrides)
    return spec, store


def _search_spec_and_store(args: argparse.Namespace):
    from repro.search import SearchSpecError, load_search_spec

    return _open_spec(args, load_search_spec, SearchSpecError)


def _run_campaign(args: argparse.Namespace, open_spec, run) -> int:
    """The ``sweep run|resume`` and ``search run|resume`` body: open the
    stores, drain with ``run``, and exit 1 unless every row ended done."""
    cache, checkpoints = _cli_cache(args), _cli_checkpoints(args)
    spec, store = open_spec(args)
    policy = _policy_from_args(args, cache=cache, checkpoints=checkpoints)
    with store:
        summary = run(spec, store, policy=policy, max_points=args.points, echo=print)
    return 0 if summary.complete else 1


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    from repro.sweep import run_sweep

    return _run_campaign(args, _sweep_spec_and_store, run_sweep)


def _print_ledger(ledger: dict, indent: str) -> None:
    """The exactly-once commit ledger line of a ``status`` command."""
    if ledger["done"]:
        print(f"{indent}commits: {ledger['commits']} across "
              f"{ledger['done']} done rows "
              f"(max {ledger['max_commits']} per row)")


def _cmd_sweep_status(args: argparse.Namespace) -> int:
    import json

    from repro.sweep import axis_progress

    spec, store = _sweep_spec_and_store(args)
    with store:
        counts = store.counts(spec.name)
        total = sum(counts.values())
        if not total:
            print(f"sweep {spec.name}: no rows recorded yet "
                  f"(run: python -m repro sweep run {args.spec})")
            return 1
        rows = store.rows(spec.name)
        ledger = store.commit_stats(spec.name)
        axes = axis_progress(spec.axes, rows)
        failures = [
            {
                "workload": row["workload"],
                "seed": row["seed"],
                "params": row["params"],
                "attempts": row["attempts"],
                "error": row["error"],
            }
            for row in rows
            if row["status"] == "failed"
        ]
        if args.json:
            print(json.dumps({
                "sweep": spec.name,
                "db": str(store.path),
                "total": total,
                "counts": counts,
                "commits": ledger,
                "axes": {
                    axis: {
                        value: {"done": done, "total": n}
                        for value, (done, n) in per.items()
                    }
                    for axis, per in axes.items()
                },
                "failed": failures,
            }, indent=2, sort_keys=True))
            return 0
        print(f"sweep {spec.name} ({store.path}): {total} rows")
        for status, n in counts.items():
            if n:
                print(f"  {status:8s} {n}")
        _print_ledger(ledger, "  ")
        for axis, per in axes.items():
            parts = " ".join(
                f"{value}: {done}/{n}" for value, (done, n) in per.items()
            )
            print(f"  axis {axis}: {parts}")
        for failure in failures:
            print(f"  failed: {failure['workload']} seed {failure['seed']} "
                  f"[{failure['params']}] after {failure['attempts']} "
                  f"attempt(s): {failure['error']}")
    return 0


def _cmd_sweep_report(args: argparse.Namespace) -> int:
    from repro.harness.export import result_to_csv, result_to_json
    from repro.sweep import (
        aggregate,
        export_jsonl,
        format_markdown,
        full_report,
        sweep_result,
    )

    spec, store = _sweep_spec_and_store(args)
    with store:
        rows = store.rows(spec.name)
        if not rows:
            print(f"sweep {spec.name}: no results to report")
            return 1
        aggregates = aggregate(rows)
        result = sweep_result(spec.name, aggregates)
        if args.markdown:
            print(format_markdown(result), end="")
        else:
            print(full_report(spec.name, aggregates))
        if args.json:
            result_to_json(result, args.json)
            print(f"wrote {args.json}")
        if args.csv:
            result_to_csv(result, args.csv)
            print(f"wrote {args.csv}")
        if args.jsonl:
            export_jsonl(aggregates, args.jsonl)
            print(f"wrote {args.jsonl}")
    return 0


def _cmd_search_run(args: argparse.Namespace) -> int:
    from repro.search import run_search

    return _run_campaign(args, _search_spec_and_store, run_search)


def _cmd_search_status(args: argparse.Namespace) -> int:
    import json

    from repro.search import search_result

    spec, store = _search_spec_and_store(args)
    with store:
        summary = search_result(spec, store, max_points=args.points)
        if not summary.total:
            print(f"search {spec.name}: no rows recorded yet "
                  f"(run: python -m repro search run {args.spec})")
            return 1
        if args.json:
            print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
            return 0
        print(f"search {spec.name} ({store.path}): "
              f"{summary.done}/{summary.total} rows done across "
              f"{len(summary.rungs)}/{len(spec.rungs)} rung(s)")
        for outcome in summary.rungs:
            decision = outcome.decision
            verdict = (
                f"promoted {len(decision.promoted)}/{outcome.points_in}"
                if decision is not None
                else "incomplete"
            )
            with_extras = (
                f", {outcome.extra_rounds} extra seed round(s)"
                if outcome.extra_rounds
                else ""
            )
            print(f"  rung {outcome.index}: "
                  f"{outcome.rows_done}/{outcome.rows_total} rows done, "
                  f"{verdict}{with_extras}")
            _print_ledger(store.commit_stats(outcome.sweep), "    ")
        if summary.winner is not None:
            print(f"  winner: {summary.winner['point_id']} "
                  f"({summary.objective} {summary.winner['value']:+.2f}%) "
                  f"at {100 * summary.cost_fraction:.0f}% of grid cost")
        else:
            print("  winner: (pending — final rung incomplete)")
    return 0


def _cmd_search_report(args: argparse.Namespace) -> int:
    import json

    from repro.search import format_search_report, search_result

    spec, store = _search_spec_and_store(args)
    with store:
        summary = search_result(spec, store, max_points=args.points)
        if not summary.total:
            print(f"search {spec.name}: no results to report")
            return 1
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(summary.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.json}")
        print(format_search_report(spec, summary), end="")
    return 0


def _cmd_cache_prune(args: argparse.Namespace) -> int:
    from repro.harness import CheckpointStore, ResultCache, default_cache_dir

    if args.max_bytes is None and args.max_age_days is None:
        args.parser.error("nothing to do: pass --max-bytes and/or --max-age-days")
    cache = ResultCache(args.cache_dir or default_cache_dir())
    # warmup checkpoints share the budget: their default home is inside
    # the cache directory, and they outweigh results by orders of magnitude
    checkpoints = cache.directory / "checkpoints"
    others = [CheckpointStore(checkpoints)] if checkpoints.is_dir() else []
    removed = cache.prune(
        *others,
        max_bytes=_parse_size(args.max_bytes) if args.max_bytes else None,
        max_age_days=args.max_age_days,
        dry_run=args.dry_run,
    )
    remaining = len(cache) + sum(len(store) for store in others)
    if args.dry_run:
        print(f"would prune {removed} entries ({cache.last_prune_bytes} "
              f"bytes) from {cache.directory} "
              f"({remaining - removed} would remain)")
    else:
        print(f"pruned {removed} entries ({cache.last_prune_bytes} bytes) "
              f"from {cache.directory} ({remaining} remaining)")
    return 0


def _parse_size(text: str) -> int:
    """``500``, ``500K``, ``64M``, ``2G`` -> bytes."""
    text = text.strip().upper()
    factor = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    digits = text[:-1] if factor != 1 else text
    try:
        return int(digits) * factor
    except ValueError:
        raise SystemExit(f"invalid size {text!r} (use e.g. 500K, 64M, 2G)")


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.workloads.io import save_trace

    trace = get_workload(args.workload).trace(length=args.length, seed=args.seed)
    save_trace(trace, args.output)
    print(f"wrote {len(trace)} instructions to {args.output}")
    return 0


def _add_recipe_flags(p: argparse.ArgumentParser, *, run: bool) -> None:
    """The recipe flags of ``run`` and ``report``.

    ``run`` also spells ``--machine`` as ``--mode`` and takes ``--traces``.
    """
    names = ("--machine", "--mode") if run else ("--machine",)
    p.add_argument(
        *names, dest="machine", choices=sorted(PRESETS), default="mtvp",
        help="machine preset / execution mode (--mode is an alias)" if run else None,
    )
    p.add_argument("--threads", type=_positive_int, default=8)
    if run:
        p.add_argument(
            "--traces", nargs="+", default=None, metavar="FILE",
            help="ingest external binary trace file(s) instead of a generated "
                 "workload; several files co-schedule as one program per "
                 "context (--machine smt)",
        )
    p.add_argument("--predictor", choices=sorted(vp.names()), default="wang-franklin")
    p.add_argument("--selector", choices=sorted(select.names()), default="ilp-pred")
    p.add_argument("--length", type=_positive_int, default=None)
    p.add_argument("--seed", type=int, default=0)


def _add_store_flags(
    p: argparse.ArgumentParser, *, recompute: str | None = None,
    jobs: str | None = None,
) -> None:
    """``--jobs`` and ``--no-cache`` (each when given its help line), then
    ``--cache-dir``: the result-store flags of every caching subcommand."""
    if jobs is not None:
        p.add_argument("--jobs", type=int, default=None, help=jobs)
    if recompute is not None:
        p.add_argument("--no-cache", action="store_true", help=recompute)
    p.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro)",
    )


def _add_campaign_flags(p: argparse.ArgumentParser, *, interval: bool) -> None:
    """The flags ``sweep run|resume`` and ``search run|resume`` share.

    With ``interval``, the sweep's ``--warmup``/``--sample`` overrides
    sit between the store flags and the drain flags.
    """
    p.add_argument(
        "--retries", type=_non_negative_int, default=None, metavar="N",
        help="extra attempts per failed row (default: the spec's)",
    )
    _add_store_flags(
        p,
        recompute="recompute instead of using the result cache",
        jobs="worker processes (0 = all cores; default: $REPRO_JOBS)",
    )
    if interval:
        p.add_argument(
            "--warmup", type=_non_negative_int, default=None, metavar="N",
            help="override the spec's functional warmup length",
        )
        p.add_argument(
            "--sample", type=_positive_int, default=None, metavar="N",
            help="override the spec's measured-interval length",
        )
    p.add_argument(
        "--checkpoint-dir", default=None,
        help="warmup checkpoint store for warmed campaigns (default: "
             "$REPRO_CHECKPOINT_DIR, else in-process reuse only)",
    )
    p.add_argument(
        "--stale-after", type=_positive_seconds, default=None, metavar="SECONDS",
        help="seconds without a heartbeat before a running row may "
             "be reclaimed from another process; set it when several "
             "processes share --db (default: every running row is "
             "reclaimed)",
    )
    p.add_argument(
        "--heartbeat", type=_positive_seconds, default=None, metavar="SECONDS",
        help="lease-refresh period for claimed rows (default: "
             "stale-after / 6, clamped to 0.5-10; none without "
             "--stale-after)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Multithreaded Value Prediction' (HPCA 2005)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("workloads", help="list the modeled SPEC CPU2000 suite")
    p.add_argument("--suite", choices=["int", "fp"], default=None)
    p.set_defaults(func=_cmd_workloads)

    p = sub.add_parser("run", help="simulate one workload on one machine")
    p.add_argument("workload", nargs="?", default=None, type=_workload)
    _add_recipe_flags(p, run=True)
    p.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record cycle-stamped events and export them to FILE "
             "(view chrome format at chrome://tracing or ui.perfetto.dev)",
    )
    p.add_argument(
        "--trace-format", choices=["chrome", "jsonl"], default="chrome",
        help="trace export format (default: chrome)",
    )
    p.add_argument(
        "--profile", default=None, metavar="FILE",
        help="profile the simulation with cProfile and dump stats to FILE",
    )
    p.add_argument(
        "--warmup", type=_non_negative_int, default=None, metavar="N",
        help="fast-forward N instructions functionally (caches and "
             "predictor tables warm, no cycles) before the timed region",
    )
    p.add_argument(
        "--sample", type=_positive_int, default=None, metavar="N",
        help="measured-interval length after warmup (default: --length)",
    )
    p.set_defaults(func=_cmd_run, parser=p)

    p = sub.add_parser(
        "report",
        help="print occupancy/speculation metrics for a run "
             "(cached: repeating the command reuses the stored result)",
    )
    p.add_argument("workload", type=_workload)
    _add_recipe_flags(p, run=False)
    _add_store_flags(p, recompute="recompute instead of consulting the result cache")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("id", type=_experiment)
    p.add_argument("--length", type=_positive_int, default=None)
    p.add_argument("--json", default=None, help="also write JSON to this path")
    p.add_argument("--csv", default=None, help="also write CSV to this path")
    _add_store_flags(
        p,
        recompute="recompute every simulation instead of using the result cache",
        jobs="worker processes for the simulation fan-out "
             "(0 = all cores; default: $REPRO_JOBS or serial)",
    )
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "sweep",
        help="declarative design-space exploration (specs under sweeps/)",
    )
    ssub = p.add_subparsers(dest="sweep_command", required=True)

    def _sweep_common(sp):
        sp.add_argument("spec", help="sweep spec file (.toml or .json)")
        sp.add_argument(
            "--db", default=None,
            help="results database (default: <spec>.db next to the spec)",
        )
        sp.add_argument(
            "--seeds", type=_positive_int, default=None, metavar="N",
            help="override the spec's seed replicates with seeds 0..N-1",
        )
        sp.add_argument(
            "--length", type=_positive_int, default=None,
            help="override the spec's trace lengths",
        )

    for verb, extra_help in (
        ("run", "run a campaign (skips rows already done in the store)"),
        ("resume", "alias of run: finish an interrupted campaign "
                   "(a complete campaign is a no-op)"),
    ):
        sp = ssub.add_parser(verb, help=extra_help)
        _sweep_common(sp)
        sp.add_argument(
            "--points", type=_positive_int, default=None, metavar="N",
            help="limit the campaign to the first N design points",
        )
        _add_campaign_flags(sp, interval=True)
        sp.set_defaults(func=_cmd_sweep_run)

    sp = ssub.add_parser("status", help="row counts and failures of a campaign")
    _sweep_common(sp)
    sp.add_argument(
        "--json", action="store_true",
        help="emit machine-readable status (counts, per-axis progress, "
             "commit ledger, failures) instead of text",
    )
    sp.set_defaults(func=_cmd_sweep_status)

    sp = ssub.add_parser(
        "report",
        help="per-point statistics (bootstrap CIs), axis marginals, Pareto",
    )
    _sweep_common(sp)
    sp.add_argument("--markdown", action="store_true",
                    help="emit a markdown table instead of ASCII")
    sp.add_argument("--json", default=None, help="also write JSON to this path")
    sp.add_argument("--csv", default=None, help="also write CSV to this path")
    sp.add_argument("--jsonl", default=None,
                    help="also write one JSON object per point to this path")
    sp.set_defaults(func=_cmd_sweep_report)

    p = sub.add_parser(
        "search",
        help="adaptive design-space search: successive halving with "
             "bandit seed allocation over a sweep grid (specs under sweeps/)",
    )
    hsub = p.add_subparsers(dest="search_command", required=True)

    def _search_common(sp):
        sp.add_argument("spec", help="search spec file (.toml or .json)")
        sp.add_argument(
            "--db", default=None,
            help="results database (default: <spec>.db next to the spec); "
                 "rungs live in it as {search}:rung{i} sweeps",
        )
        sp.add_argument(
            "--points", type=_positive_int, default=None, metavar="N",
            help="limit the search to the grid's first N design points",
        )

    for verb, extra_help in (
        ("run", "run a search (each rung resumes from rows already done)"),
        ("resume", "alias of run: finish a killed search with zero "
                   "re-simulation of committed rows"),
    ):
        sp = hsub.add_parser(verb, help=extra_help)
        _search_common(sp)
        _add_campaign_flags(sp, interval=False)
        sp.set_defaults(func=_cmd_search_run)

    sp = hsub.add_parser(
        "status",
        help="per-rung progress, promotions and commit ledgers of a search",
    )
    _search_common(sp)
    sp.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable search summary instead of text",
    )
    sp.set_defaults(func=_cmd_search_status)

    sp = hsub.add_parser(
        "report",
        help="explore/exploit report: rung funnel, final leaderboard with "
             "CIs, winner and cost fraction",
    )
    _search_common(sp)
    sp.add_argument("--json", default=None, metavar="FILE",
                    help="also write the search summary JSON to FILE")
    sp.set_defaults(func=_cmd_search_report)

    p = sub.add_parser("cache", help="maintain the on-disk result cache")
    csub = p.add_subparsers(dest="cache_command", required=True)
    sp = csub.add_parser(
        "prune", help="evict old cache entries (LRU by mtime)"
    )
    sp.add_argument(
        "--max-bytes", default=None, metavar="SIZE",
        help="shrink the cache to at most SIZE (suffixes K/M/G)",
    )
    sp.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="drop entries older than DAYS",
    )
    sp.add_argument(
        "--dry-run", action="store_true",
        help="report what would be evicted (count and bytes) without "
             "deleting anything",
    )
    _add_store_flags(sp)
    sp.set_defaults(func=_cmd_cache_prune, parser=sp)

    p = sub.add_parser("trace", help="write a workload trace to a binary file")
    p.add_argument("workload", type=_workload)
    p.add_argument("output")
    p.add_argument("--length", type=_positive_int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
