r"""Command-line interface: a thin shell over :mod:`repro.api`.

Each command turns its flags into the API's terms -- an
:class:`~repro.experiments.common.ExperimentConfig`, a
:class:`~repro.experiments.spec.SweepSpec` or a figure id of
:data:`~repro.experiments.spec.FIGURE_IDS` -- runs them and prints the
result.  The API checks each point's workload, scheme, prefetcher and
budget when it makes the point, so a sweep naming an unknown one exits
with status 2 before any point runs.  Comparing schemes on one workload is
a sweep over that workload.

Examples::

    # Compare schemes on one workload
    python -m repro.cli sweep --workloads bfs.urand \
        --schemes baseline hermes tlp --prefetchers ipcp --accesses 10000

    # Regenerate figures through the experiment registry (``all`` runs
    # every figure's points as one deduplicated batch on one process pool)
    python -m repro.cli figure fig01
    python -m repro.cli figure all --jobs 8
    python -m repro.cli figure fig10 --quick --jobs 4

    # Run a larger user-defined sweep without writing a module
    python -m repro.cli sweep --workloads bfs.urand spec.mcf_like \
        --schemes baseline hermes tlp --jobs 4
    python -m repro.cli sweep --spec-json my_sweep.json --list

    # Bound the result cache / trace store size
    python -m repro.cli cache gc --max-mb 64
    python -m repro.cli cache gc --max-mb 64 --dry-run
    python -m repro.cli trace gc --max-mb 256 --dry-run

    # Prebuild workload traces into the memory-mapped trace store, import
    # an external ChampSim-style trace, inspect and prune the store
    python -m repro.cli trace build --workload bfs.urand --accesses 12000
    python -m repro.cli trace import traces/astar.trace.gz --name astar
    python -m repro.cli trace ls
    python -m repro.cli trace info imported.astar
    python -m repro.cli trace rm imported.astar

    # Sweep (or regenerate a figure over) the imported traces too
    python -m repro.cli sweep --include-imported --schemes baseline tlp
    python -m repro.cli figure fig10 --include-imported

    # List available workloads and schemes
    python -m repro.cli list
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import time
from typing import Optional, Sequence

from repro.common.names import L1D_PREFETCHER_CHOICES, SCHEMES
from repro.experiments.common import (
    CampaignCache,
    ExperimentConfig,
    format_rows,
    quick_experiment_config,
)
from repro.experiments.spec import FIGURE_IDS
from repro.sim.engine import CampaignReport, PointFailedError
from repro.stats.metrics import speedup_percent
from repro.workloads.catalog import CATALOG_WORKLOADS
from repro.workloads.spec_like import SPEC_LIKE_WORKLOADS


def _cmd_list(_: argparse.Namespace) -> int:
    print("Schemes:")
    for scheme in SCHEMES:
        print(f"  {scheme}")
    print("\nCatalog workloads:")
    for name in CATALOG_WORKLOADS:
        spec = SPEC_LIKE_WORKLOADS.get(name.removeprefix("spec."))
        print(f"  {name:<23} {spec.description}" if spec else f"  {name}")
    from repro.traces.store import TraceStore

    imported = TraceStore().imported_workloads()
    if imported:
        print("\nImported traces (trace store):")
        for name, entry in imported.items():
            print(f"  {name:<24} {entry.get('memory_accesses', '?')} accesses "
                  f"from {entry.get('source', '?')}")
    print("\nFigures:")
    for name in sorted(FIGURE_IDS):
        print(f"  {name}")
    return 0


def _resolve_trace_store(args: argparse.Namespace):
    """Trace store selected by ``--trace-dir`` / ``--no-trace-store``."""
    from repro.traces.store import TraceStore

    if getattr(args, "no_trace_store", False):
        return None
    trace_dir = getattr(args, "trace_dir", None)
    return TraceStore(trace_dir or None)


def _imported_workloads(trace_store, reason: str) -> Optional[tuple[str, ...]]:
    """The ``imported.*`` workloads of the trace store, which ``reason``
    needs; None, after saying why, when there is no store or it holds none
    (the command then exits with status 2)."""
    if trace_store is None:
        print(f"{reason} requires the trace store (drop --no-trace-store)")
        return None
    imported = tuple(trace_store.imported_workloads())
    if not imported:
        print(f"no imported traces in {trace_store.directory} "
              f"(use 'repro trace import')")
        return None
    return imported


def _cache_from_config(
    args: argparse.Namespace, config: ExperimentConfig, trace_store
) -> CampaignCache:
    """Build the campaign cache described by the shared engine flags."""
    from repro.sim.engine import CampaignEngine
    from repro.sim.result_cache import ResultCache

    engine = CampaignEngine(
        result_cache=None if args.no_cache else ResultCache(args.cache_dir or None),
        jobs=args.jobs,
        trace_store=trace_store,
    )
    return CampaignCache(config, engine=engine)


def _experiment_config_from_args(
    args: argparse.Namespace, trace_store, imported_suite: bool = False
) -> Optional[ExperimentConfig]:
    """Experiment configuration for ``repro figure`` / ``repro sweep``.

    Starts from the full-scale defaults (or the quick test configuration
    with ``--quick``) and applies the explicit axis overrides.  The store's
    imported workloads join it with ``--include-imported`` or when
    ``imported_suite`` (a sweep draws mixes from the imported suite); None
    when they are wanted but missing.
    """
    config = quick_experiment_config() if args.quick else ExperimentConfig()
    overrides: dict = {}
    if args.accesses is not None:
        overrides["memory_accesses"] = args.accesses
    if args.multicore_accesses is not None:
        overrides["multicore_memory_accesses"] = args.multicore_accesses
    if args.prefetchers:
        overrides["l1d_prefetchers"] = tuple(args.prefetchers)
    if args.include_imported or imported_suite:
        imported = _imported_workloads(
            trace_store,
            "--include-imported" if args.include_imported
            else "sweeping the imported suite",
        )
        if imported is None:
            return None
        overrides["imported_workloads"] = imported
    return dataclasses.replace(config, **overrides) if overrides else config


def _print_point_status(label: str, rows) -> None:
    """Print compiled points and their result-cache status (``--list``)."""
    cached_count = sum(1 for _, _, cached in rows if cached)
    print(f"{len(rows)} {label} points "
          f"({cached_count} cached, {len(rows) - cached_count} to simulate)")
    for point, key, cached in rows:
        status = "cached" if cached else "missing"
        print(f"  [{status:>7}] {key[:12]}  {point.kind:<11} {point.label}")


def _run_summary(label: str, elapsed: float, engine, jobs) -> str:
    """The shared simulated/cache-hits/jobs run-summary line."""
    return (f"{label} in {elapsed:.1f}s "
            f"({engine.simulations_run} simulated, {engine.cache_hits} cache hits, "
            f"jobs={engine.resolve_jobs(jobs)})")


@contextlib.contextmanager
def _progress(args: argparse.Namespace, label: str):
    """Yield the engine progress callback for ``--progress``.

    Yields None when progress is off -- explicitly via ``--no-progress``,
    or by default when stderr is not a terminal.  The line is finished on
    exit, also when the run fails.
    """
    import sys

    enabled = args.progress
    if enabled is None:
        enabled = sys.stderr.isatty()
    if not enabled:
        yield None
        return
    from repro.obs.progress import ProgressLine, campaign_progress

    line = ProgressLine(enabled=True)
    try:
        yield campaign_progress(line, label)
    finally:
        line.finish()


def _setup_observability(args: argparse.Namespace) -> None:
    """Configure logging and telemetry from the parsed flags, then install.

    Telemetry flags are exported through the environment so every engine
    pool worker of the run inherits the same configuration via
    ``install_from_env``.  Commands without the flags (``obs``, ``list``)
    still honour a pre-set environment.
    """
    from repro.obs import profile as obs_profile
    from repro.obs import sample as obs_sample
    from repro.obs import tracer as obs_tracer
    from repro.obs.logs import setup_logging

    setup_logging(getattr(args, "log_level", None))
    telemetry = getattr(args, "telemetry", None)
    if telemetry is None and (getattr(args, "profile", None)
                              or getattr(args, "sample_interval", None)):
        telemetry = ""  # --profile / --sample-interval imply --telemetry
    if telemetry is not None:
        if not telemetry:  # bare --telemetry: a fresh timestamped run dir
            telemetry = os.path.join(
                ".repro_telemetry", time.strftime("%Y%m%d-%H%M%S")
            )
        os.environ[obs_tracer.TELEMETRY_ENV] = os.path.abspath(telemetry)
    if getattr(args, "profile", None):
        os.environ[obs_profile.PROFILE_ENV] = args.profile
    if getattr(args, "sample_interval", None):
        os.environ[obs_sample.SAMPLE_ENV] = str(args.sample_interval)
    obs_tracer.install_from_env()
    obs_profile.install_from_env()


def _finish_telemetry() -> None:
    """Seal this run's telemetry: flush, merge sinks, print pointers.

    No-op unless the tracer is recording.  Flushes the supervisor's
    buffered records now (so the merged ``run.jsonl`` is complete without
    waiting for interpreter exit), folds every per-process sink into
    ``run.jsonl``, and -- when profiling -- dumps and renders the hotspot
    table across all recorded profiles.
    """
    from repro.obs import profile as obs_profile
    from repro.obs import tracer as obs_tracer

    directory = obs_tracer.directory()
    if directory is None:
        return
    obs_profile.dump()
    obs_tracer.shutdown()
    merged = obs_tracer.merge_run(directory)
    print(f"telemetry: {merged} "
          f"(analyze with 'repro obs report {directory}')")
    profiles = obs_profile.profile_files(directory)
    if profiles:
        print(f"profile: {len(profiles)} process dump(s)")
        print(obs_profile.hotspot_table(profiles, top=15), end="")


def _finish_run(args: argparse.Namespace, engine, claims=None) -> int:
    """Shared post-run reporting: the ``--report`` dump and telemetry.

    ``claims`` maps each figure to its ``(name, verdict, margin)`` rows.
    A run that simulated nothing (``figure table02``) reports no points.
    """
    if args.report:
        payload = (engine.last_report or CampaignReport()).to_dict()
        if claims is not None:
            payload["claims"] = {
                figure: [dict(zip(("name", "verdict", "margin"), row)) for row in rows]
                for figure, rows in claims.items()
            }
        payload = json.dumps(payload, indent=2, sort_keys=True)
        if args.report == "-":
            print(payload)
        else:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            print(f"report written to {args.report}")
    _finish_telemetry()
    return 0


def _run_failed(error: Exception) -> int:
    """Report a failed engine run; finished points stay in the result cache."""
    print(error)
    print("re-run the same command to resume from the result cache")
    _finish_telemetry()
    return 1


def _format_bytes(count: int) -> str:
    """Human-readable byte count (exact below 1 KiB)."""
    if count < 1024:
        return f"{count} B"
    if count < 1024 * 1024:
        return f"{count / 1024:.1f} KiB"
    return f"{count / (1024 * 1024):.1f} MiB"


def _gc(args: argparse.Namespace, label: str, store, noun: str) -> int:
    """``cache gc`` / ``trace gc``: evict ``store``'s oldest entries down to
    ``--max-mb`` (or, with ``--dry-run``, say what that would evict)."""
    before = store.size_bytes()
    quarantined = len(store.quarantined())
    removed, freed = store.gc(int(args.max_mb * 1024 * 1024), dry_run=args.dry_run)
    verb = "would evict" if args.dry_run else "evicted"
    # gc evicts the quarantined entries first.
    evicted = min(removed, quarantined)
    note = f", {evicted} of them quarantined corrupt" if evicted else ""
    print(
        f"{label} gc{' (dry run)' if args.dry_run else ''}: {store.directory} "
        f"{_format_bytes(before)} -> {_format_bytes(before - freed)} "
        f"({removed} {noun} {verb}{note}, {_format_bytes(freed)} reclaimed, "
        f"cap {args.max_mb:g} MB)"
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.sim.result_cache import ResultCache

    # argparse's required subparser guarantees gc is the only command.
    return _gc(args, "cache", ResultCache(args.dir or None), "entries")


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.traces.store import TraceStore, TraceStoreError

    store = TraceStore(args.dir or None)

    if args.trace_command == "build":
        from repro.sim.engine import build_workload_trace

        trace = build_workload_trace(
            args.workload, args.accesses, args.gap_scale, trace_store=store
        )
        from repro.traces.store import workload_key

        key = workload_key(args.workload, args.accesses, args.gap_scale)
        print(f"stored {args.workload} ({len(trace)} records, "
              f"{_format_bytes(store.entry_size_bytes(key))}) "
              f"under {key[:12]} in {store.directory}")
        return 0

    if args.trace_command == "import":
        from repro.traces.ingest import import_champsim_trace

        try:
            workload, key, trace = import_champsim_trace(
                args.path,
                trace_store=store,
                name=args.name,
                compute_per_access=args.compute_per_access,
                max_records=args.max_records,
            )
        # TraceParseError and a bad --name are ValueErrors.
        except (OSError, ValueError) as error:
            print(f"import failed: {error}")
            return 1
        print(f"imported {args.path} as {workload} "
              f"({trace.num_memory_accesses} memory accesses, "
              f"{len(trace)} records, "
              f"{_format_bytes(store.entry_size_bytes(workload))}, "
              f"content key {key[:12]}) in {store.directory}")
        print("run it with: repro sweep --include-imported "
              "(or repro figure <name> --include-imported)")
        return 0

    if args.trace_command == "gc":
        return _gc(args, "trace", store, "traces")

    if args.trace_command == "ls":
        keys = store.keys()
        print(f"{len(keys)} traces in {store.directory} "
              f"({_format_bytes(store.size_bytes())})")
        for key in keys:
            try:
                meta = store.info(key)
            except TraceStoreError as error:
                print(f"  {key}  <unreadable: {error}>")
                continue
            label = meta.get("workload") or meta.get("name")
            # The full entry name: what `trace info|rm` take.
            print(f"  {key:<32}  {label:<28} {meta['records']:>9} records  "
                  f"{_format_bytes(meta['size_bytes']):>10}")
        return 0

    if args.name not in store.keys():
        print(f"no trace {args.name!r} in {store.directory}")
        return 1

    if args.trace_command == "info":
        try:
            meta = store.info(args.name)
        except TraceStoreError as error:
            print(error)
            return 1
        for field in ("key", "name", "workload", "records", "memory_accesses",
                      "format_version", "endianness", "size_bytes",
                      "content_key", "source", "compute_per_access"):
            if field in meta:
                print(f"  {field:<18} {meta[field]}")
        metadata = meta.get("metadata") or {}
        if metadata:
            print(f"  {'metadata':<18} "
                  + ", ".join(f"{k}={v}" for k, v in sorted(metadata.items())))
        return 0

    # argparse's required subparser guarantees rm is the only other command.
    freed = store.entry_size_bytes(args.name)
    store.remove(args.name)
    print(f"removed {args.name} ({_format_bytes(freed)} freed)")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.spec import (
        evaluate_claims,
        get_experiment,
        registered_experiments,
        run_experiments,
    )

    try:
        specs = (list(registered_experiments().values()) if args.name == "all"
                 else [get_experiment(args.name)])
    except KeyError:
        print(f"unknown figure {args.name!r}; choose from "
              f"{sorted(FIGURE_IDS)} or 'all'")
        return 1

    trace_store = _resolve_trace_store(args)
    config = _experiment_config_from_args(args, trace_store)
    if config is None:
        return 2
    cache = _cache_from_config(args, config, trace_store)
    start = time.perf_counter()
    try:
        # Every figure's points in one deduplicated batch: one pool per run.
        with _progress(args, args.name) as progress:
            results = run_experiments(specs, cache=cache, jobs=args.jobs,
                                      progress=progress)
    except PointFailedError as error:
        return _run_failed(error)
    claims = {}
    for index, (spec, result) in enumerate(zip(specs, results)):
        if args.prefetchers:
            # Some figures pin their prefetcher axis (the paper fixes IPCP
            # for the motivation/multi-core figures); say so instead of
            # silently sweeping something other than what was asked.
            swept = spec.build_sweep(cache.config).swept_l1d_prefetchers(
                cache.config
            )
            ignored = [p for p in args.prefetchers if p not in swept]
            # swept is empty for experiments that simulate nothing
            # (table02 is pure arithmetic) -- nothing to warn about.
            if swept and ignored:
                print(f"note: {spec.name} pins its L1D prefetcher sweep to "
                      f"{sorted(swept)}; --prefetchers {' '.join(ignored)} "
                      f"has no effect on it")
        if index:
            print()
        print(spec.title)
        print(spec.format_table(result))
        claims[spec.name] = evaluate_claims(spec, result)
        for name, verdict, margin in claims[spec.name]:
            shown = "" if margin is None else f" (margin {margin:+.3f})"
            print(f"claim {verdict}: {name}{shown}")
    elapsed = time.perf_counter() - start
    print("\n" + _run_summary(f"figures: {len(specs)}", elapsed,
                              cache.engine, args.jobs))
    return _finish_run(args, cache.engine, claims)


def _sweep_spec_from_args(args: argparse.Namespace):
    """Build the user-defined sweep from ``--spec-json`` or the axis flags."""
    from repro.experiments.spec import (
        MultiCoreSweep,
        SingleCoreSweep,
        SweepSpec,
        sweep_spec_from_dict,
    )

    if args.spec_json:
        with open(args.spec_json, "r", encoding="utf-8") as fh:
            return sweep_spec_from_dict(json.load(fh))
    single = SingleCoreSweep(
        workloads=tuple(args.workloads) if args.workloads else None,
        schemes=tuple(args.schemes),
        l1d_prefetchers=tuple(args.prefetchers) if args.prefetchers else None,
    )
    multi: tuple[MultiCoreSweep, ...] = ()
    # --suites / --bandwidths only shape the multi-core block; passing
    # either implies it rather than being silently ignored.
    if args.multicore or args.suites is not None or args.bandwidths is not None:
        multi = (
            MultiCoreSweep(
                suites=tuple(args.suites) if args.suites else ("gap", "spec"),
                schemes=tuple(args.schemes),
                l1d_prefetchers=tuple(args.prefetchers) if args.prefetchers else None,
                per_core_bandwidths=(
                    tuple(args.bandwidths) if args.bandwidths else (3.2,)
                ),
            ),
        )
    return SweepSpec(single_core=(single,), multi_core=multi)


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        spec = _sweep_spec_from_args(args)
    except (OSError, ValueError) as error:
        print(f"invalid sweep spec: {error}")
        return 2
    trace_store = _resolve_trace_store(args)
    # A multi-core block drawing mixes from the imported suite needs the
    # imported workloads in the config even without --include-imported;
    # an empty imported suite would otherwise compile to zero mixes
    # silently.
    config = _experiment_config_from_args(
        args,
        trace_store,
        imported_suite=any(
            block.mixes is None and "imported" in block.suites
            for block in spec.multi_core
        ),
    )
    if config is None:
        return 2
    cache = _cache_from_config(args, config, trace_store)
    try:
        # Making a point checks its workloads, scheme, prefetcher and budget.
        points = spec.compile(config, trace_store=trace_store)
    except ValueError as error:
        print(error)
        return 2
    if not points:
        print("the sweep compiled to zero points")
        return 1

    if args.list:
        _print_point_status("sweep", cache.engine.status(points))
        return 0

    start = time.perf_counter()
    try:
        with _progress(args, "sweep") as progress:
            results = cache.run_points(points, jobs=args.jobs,
                                       progress=progress)
    except PointFailedError as error:
        return _run_failed(error)
    elapsed = time.perf_counter() - start

    rows = []
    for point in points:
        result = results[point.key()]
        ipc = result.ipc if point.kind == "single_core" else sum(result.ipcs)
        row = [point.label, point.kind, point.memory_accesses, ipc,
               result.dram_transactions]
        if point.scheme != "baseline":
            baseline_key = dataclasses.replace(point, scheme="baseline").key()
            baseline = results.get(baseline_key)
            baseline_ipc = (
                None
                if baseline is None
                else baseline.ipc
                if point.kind == "single_core"
                else sum(baseline.ipcs)
            )
            row.append(
                f"{speedup_percent(ipc, baseline_ipc):+.2f}"
                if baseline_ipc
                else "-"
            )
        else:
            row.append("-")
        rows.append(row)
    # A label alone does not name a point: a sweep's point and a mix's
    # isolated baseline share it at different budgets.
    print(format_rows(
        ["point", "kind", "accesses", "ipc", "dram tx", "speedup (%)"], rows
    ))
    print("\n" + _run_summary(f"sweep: {len(points)} points", elapsed,
                              cache.engine, args.jobs))
    return _finish_run(args, cache.engine)


def _load_obs_run(run: str):
    """Records of a recorded run (directory or JSONL file); None if absent."""
    import pathlib

    from repro.obs import tracer as obs_tracer

    target = pathlib.Path(run)
    if not target.exists():
        print(f"no telemetry at {run} (record a run with --telemetry)")
        return None
    if target.is_dir() and any(target.glob("events-*.jsonl")):
        # Refresh the merged view: idempotent, and it picks up sinks that
        # workers flushed after the recording run's own merge.
        obs_tracer.merge_run(target)
    records = obs_tracer.load_run(target)
    if not records:
        print(f"no telemetry records in {run}")
        return None
    return records


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs import analyze

    records = _load_obs_run(args.run)
    if records is None:
        return 2
    summary = analyze.summarize(records)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(analyze.format_report(summary, title=str(args.run)))
    return 0


def _cmd_obs_export_chrome(args: argparse.Namespace) -> int:
    import pathlib

    from repro.obs import timeline

    records = _load_obs_run(args.run)
    if records is None:
        return 2
    target = pathlib.Path(args.run)
    if args.output:
        out = pathlib.Path(args.output)
    elif target.is_dir():
        out = target / "trace.json"
    else:
        out = target.with_suffix(".trace.json")
    trace = timeline.export_chrome(records, out)
    print(f"chrome trace written to {out} "
          f"({len(trace['traceEvents'])} events; open in ui.perfetto.dev)")
    return 0


def _cmd_obs_hotspots(args: argparse.Namespace) -> int:
    from repro.obs import profile as obs_profile

    profiles = obs_profile.profile_files(args.run)
    if not profiles:
        print(f"no profile dumps under {args.run} "
              f"(record a run with --profile cprofile)")
        return 2
    print(obs_profile.hotspot_table(profiles, top=args.top, sort=args.sort),
          end="")
    return 0


def _positive_int(text: str) -> int:
    """argparse type of a count (a budget, a worker count): an integer >= 1."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _size_cap_mb(text: str) -> float:
    """argparse type of a ``--max-mb`` size cap: a finite number >= 0."""
    value = float(text)
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="TLP (HPCA 2024) reproduction toolkit"
    )
    parser.add_argument("--log-level", default=None,
                        choices=("debug", "info", "warning", "error"),
                        help="verbosity of the repro.* loggers on stderr "
                             "(default: $REPRO_LOG or warning)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list workloads, schemes and figures")
    list_parser.set_defaults(func=_cmd_list)

    def add_engine_flags(sub_parser: argparse.ArgumentParser) -> None:
        """Engine, caching and telemetry flags shared by figure and sweep."""
        sub_parser.add_argument("--jobs", type=_positive_int, default=None,
                                help="parallel worker processes "
                                     "(default: os.cpu_count())")
        sub_parser.add_argument("--no-cache", action="store_true",
                                help="disable the persistent result cache")
        sub_parser.add_argument("--cache-dir", default=None,
                                help="result cache directory "
                                     "(default: $REPRO_CACHE_DIR or .repro_cache)")
        sub_parser.add_argument("--trace-dir", default=None,
                                help="trace store directory (default: "
                                     "$REPRO_TRACE_DIR or .repro_traces)")
        sub_parser.add_argument("--no-trace-store", action="store_true",
                                help="regenerate traces per process instead of "
                                     "memory-mapping the shared trace store")
        sub_parser.add_argument("--include-imported", action="store_true",
                                help="also sweep every trace imported into the "
                                     "store ('repro trace import')")
        sub_parser.add_argument("--quick", action="store_true",
                                help="use the small test configuration instead "
                                     "of the full-scale defaults")
        sub_parser.add_argument("--accesses", type=_positive_int, default=None,
                                help="memory accesses per single-core point "
                                     "(default: the configuration's budget)")
        sub_parser.add_argument("--multicore-accesses", type=_positive_int,
                                default=None,
                                help="memory accesses per core of a multi-core "
                                     "point (default: the configuration's budget)")
        sub_parser.add_argument("--report", default=None, metavar="PATH",
                                help="write the JSON run report (succeeded/"
                                     "cached points, wall-time percentiles) "
                                     "to PATH ('-' for stdout)")
        sub_parser.add_argument("--progress", action=argparse.BooleanOptionalAction,
                                default=None,
                                help="stream a live points/ok/cached/ETA "
                                     "line to stderr while the points run "
                                     "(default: on when stderr is a terminal)")
        sub_parser.add_argument("--telemetry", nargs="?", const="",
                                default=None, metavar="DIR",
                                help="record structured spans and events "
                                     "to per-process JSONL sinks under DIR "
                                     "(default: .repro_telemetry/<timestamp>); "
                                     "analyze with 'repro obs report DIR'")
        sub_parser.add_argument("--profile", choices=("cprofile",),
                                default=None,
                                help="accumulate a cProfile across per-point "
                                     "execution in every process and print a "
                                     "hotspot table (implies --telemetry)")
        sub_parser.add_argument("--sample-interval", type=_positive_int, default=None,
                                metavar="N",
                                help="with --telemetry, emit an IPC/MPKI/"
                                     "predictor snapshot every N memory "
                                     "accesses of each simulated point")

    figure_parser = subparsers.add_parser(
        "figure",
        help="regenerate paper figures through the experiment registry",
    )
    figure_parser.add_argument(
        "name", help="figure id (e.g. fig01, fig10, table02) or 'all'")
    figure_parser.add_argument("--prefetchers", nargs="+", default=None,
                               choices=L1D_PREFETCHER_CHOICES,
                               help="L1D prefetchers to sweep "
                                    "(default: the configuration's sweep)")
    add_engine_flags(figure_parser)
    figure_parser.set_defaults(func=_cmd_figure)

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run a user-defined workload x scheme sweep without a module",
    )
    sweep_parser.add_argument("--workloads", nargs="+", default=None,
                              help="workload names (e.g. bfs.urand spec.mcf_like "
                                   "imported.astar; default: every configured "
                                   "workload)")
    sweep_parser.add_argument("--schemes", nargs="+", default=["baseline", "tlp"],
                              choices=list(SCHEMES),
                              help="schemes to sweep (include 'baseline' to get "
                                   "speedup columns)")
    sweep_parser.add_argument("--prefetchers", nargs="+", default=None,
                              choices=L1D_PREFETCHER_CHOICES,
                              help="L1D prefetchers to sweep "
                                   "(default: the configuration's sweep)")
    sweep_parser.add_argument("--multicore", action="store_true",
                              help="also sweep the multi-core mixes")
    sweep_parser.add_argument("--suites", nargs="+", default=None,
                              choices=["gap", "spec", "imported"],
                              help="suites the multi-core mixes draw from "
                                   "(default: gap spec; implies --multicore)")
    sweep_parser.add_argument("--bandwidths", nargs="+", type=float, default=None,
                              help="per-core DRAM bandwidths (GB/s) of the "
                                   "multi-core points (default: 3.2; implies "
                                   "--multicore)")
    sweep_parser.add_argument("--spec-json", default=None,
                              help="JSON sweep spec file (overrides the axis "
                                   "flags; see README 'Figure registry and "
                                   "sweeps')")
    sweep_parser.add_argument("--list", action="store_true",
                              help="print the compiled points and their cache "
                                   "status without simulating")
    add_engine_flags(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    obs_parser = subparsers.add_parser(
        "obs", help="analyze telemetry recorded by --telemetry runs"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report",
        help="summarize a recorded run: worker utilization, straggler "
             "percentiles, cache-hit rate",
    )
    obs_report.add_argument("run", help="telemetry directory or merged "
                                        "run.jsonl file")
    obs_report.add_argument("--json", action="store_true",
                            help="emit the machine-readable summary instead "
                                 "of the text report")
    obs_report.set_defaults(func=_cmd_obs_report)
    obs_chrome = obs_sub.add_parser(
        "export-chrome",
        help="convert a recorded run to Chrome trace-event JSON "
             "(open in ui.perfetto.dev or chrome://tracing)",
    )
    obs_chrome.add_argument("run", help="telemetry directory or merged "
                                        "run.jsonl file")
    obs_chrome.add_argument("-o", "--output", default=None, metavar="PATH",
                            help="output file (default: <run>/trace.json)")
    obs_chrome.set_defaults(func=_cmd_obs_export_chrome)
    obs_hotspots = obs_sub.add_parser(
        "hotspots",
        help="merge a run's cProfile dumps (--profile cprofile) and print "
             "the top-N hotspot table",
    )
    obs_hotspots.add_argument("run", help="telemetry directory holding "
                                          "profile-*.prof dumps")
    obs_hotspots.add_argument("--top", type=int, default=20,
                              help="rows to print (default 20)")
    obs_hotspots.add_argument("--sort", default="cumulative",
                              choices=("cumulative", "tottime", "calls"),
                              help="pstats sort key (default cumulative)")
    obs_hotspots.set_defaults(func=_cmd_obs_hotspots)

    cache_parser = subparsers.add_parser(
        "cache", help="manage the persistent result cache"
    )
    cache_parser.add_argument("--dir", default=None,
                              help="cache directory to operate on "
                                   "(default: $REPRO_CACHE_DIR or .repro_cache)")
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    gc_parser = cache_sub.add_parser(
        "gc", help="evict oldest entries until the cache fits a size cap"
    )
    gc_parser.add_argument("--max-mb", type=_size_cap_mb, required=True,
                           help="target cache size in MB (the one bound "
                                "on the cache's size)")
    gc_parser.add_argument("--dry-run", action="store_true",
                           help="report what would be evicted without deleting")
    cache_parser.set_defaults(func=_cmd_cache)

    trace_parser = subparsers.add_parser(
        "trace", help="manage the persistent memory-mapped trace store"
    )
    trace_parser.add_argument("--dir", default=None,
                              help="trace store directory to operate on "
                                   "(default: $REPRO_TRACE_DIR or .repro_traces)")
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_build = trace_sub.add_parser(
        "build", help="build a workload trace and persist it in the store"
    )
    trace_build.add_argument("--workload", required=True,
                             help="workload name (e.g. bfs.urand, spec.mcf_like)")
    trace_build.add_argument("--accesses", type=_positive_int, default=12_000,
                             help="memory-access budget of the stored trace")
    trace_build.add_argument("--gap-scale", default="medium",
                             choices=["tiny", "small", "medium"],
                             help="input-graph scale for GAP workloads")
    trace_import = trace_sub.add_parser(
        "import",
        help="import a ChampSim-style memory trace (text, .gz or .xz) into "
             "the store",
    )
    trace_import.add_argument("path", help="trace file to import")
    trace_import.add_argument("--name", default=None,
                              help="workload name (default: derived from the "
                                   "file name; registered as imported.<name>)")
    trace_import.add_argument("--compute-per-access", type=int, default=0,
                              help="NON_MEM records interleaved after each "
                                   "imported access (default 0)")
    trace_import.add_argument("--max-records", type=_positive_int, default=None,
                              help="read at most this many memory records")
    trace_gc = trace_sub.add_parser(
        "gc", help="evict the oldest stored traces until the store fits a size cap"
    )
    trace_gc.add_argument("--max-mb", type=_size_cap_mb, required=True,
                          help="target store size in MB")
    trace_gc.add_argument("--dry-run", action="store_true",
                          help="report what would be evicted without deleting")
    trace_sub.add_parser("ls", help="list stored traces")
    trace_info = trace_sub.add_parser(
        "info", help="print the header of one stored trace"
    )
    trace_info.add_argument("name", help="entry name: a generated trace's "
                                         "key or imported.<name>")
    trace_rm = trace_sub.add_parser("rm", help="delete one stored trace")
    trace_rm.add_argument("name", help="entry name: a generated trace's "
                                       "key or imported.<name>")
    trace_parser.set_defaults(func=_cmd_trace)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _setup_observability(args)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
