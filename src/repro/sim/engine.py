"""Campaign execution engine.

The paper's evaluation is a campaign: a cross product of workloads, schemes,
L1D prefetchers and trace budgets, each point an independent simulation.
This module enumerates campaign points up front, runs them, and persists
every result to the on-disk :class:`~repro.sim.result_cache.ResultCache`,
keyed by a content hash of everything that determines the outcome.  A warm
cache means re-running a figure performs zero simulations.

Cache misses run in-process at ``--jobs 1`` (or when only one point
misses) and otherwise on one :class:`concurrent.futures.ProcessPoolExecutor`.
Every result is committed to the result cache the moment it lands, and the
first point that raises fails the run with an error naming it.  Idempotent
cache keys make every batch resumable: re-running it after a failure
executes only the points that had not finished.

Layering: the engine sits between the raw simulation drivers
(:mod:`repro.sim.single_core` / :mod:`repro.sim.multi_core`) and the
experiment harnesses.  :mod:`repro.experiments.spec` compiles sweeps to its
point batches, and :class:`repro.experiments.common.CampaignCache` is a
per-process memo on top of it, keyed by point key.  The engine imports the
drivers inside :func:`execute_point`, so enumerating, compiling and caching
points loads no simulator module.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

from repro.obs import tracer as obs_tracer
from repro.obs.analyze import percentile

from repro.common.config import (
    SystemConfig,
    cascade_lake_multi_core,
    cascade_lake_single_core,
    system_config_from_dict,
    system_config_to_dict,
)
from repro.sim.result_cache import ResultCache
from repro.sim.results import MultiCoreResult, SingleCoreResult
from repro.traces.store import IMPORTED_PREFIX, TraceStore, workload_key
from repro.traces.trace import Trace
from repro.workloads.gap import gap_trace
from repro.workloads.spec_like import spec_like_trace

#: Bumped whenever simulator behaviour changes in a way that invalidates
#: previously cached results.
CACHE_SCHEMA_VERSION = 1

#: Number of times a workload generator actually ran in this process
#: (trace-store and memo hits excluded).  The trace-store regression tests
#: use this to prove that a warm store performs zero generator work.
_generator_invocations = 0


def generator_invocations() -> int:
    """Generator runs in this process since the last reset."""
    return _generator_invocations


def reset_generator_invocations() -> None:
    """Reset the generator-invocation counter (tests, benchmarks)."""
    global _generator_invocations
    _generator_invocations = 0


# ----------------------------------------------------------------------
# Campaign points
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignPoint:
    """One simulation of a campaign, described by plain data.

    Points are picklable (they cross process boundaries) and canonically
    serializable (their JSON form is hashed into the result cache key).
    ``system_json`` is the canonical JSON of the resolved
    :class:`~repro.common.config.SystemConfig`, so two points with the same
    workload but different system parameters (e.g. DRAM bandwidth) never
    collide.
    """

    kind: str  # "single_core" | "multi_core"
    workloads: tuple[str, ...]
    scheme: str
    l1d_prefetcher: str
    memory_accesses: int
    warmup_fraction: float
    gap_scale: str
    system_json: str
    mix_name: Optional[str] = None
    #: Store content keys of the ``imported.*`` workloads among
    #: ``workloads`` (parallel tuple, "" for generated workloads) -- an
    #: imported trace's *content*, unlike a generated workload's, is not
    #: determined by its name, so it must participate in the cache key or
    #: re-importing a different file under the same name would serve stale
    #: results.  None (no imported workloads) is omitted from the key
    #: payload so every pre-existing cache key is unchanged.
    trace_keys: Optional[tuple[str, ...]] = None

    @property
    def label(self) -> str:
        """Compact human-readable identifier, e.g. ``bfs.urand/tlp/ipcp``."""
        target = self.mix_name if self.mix_name else "+".join(self.workloads)
        return f"{target}/{self.scheme}/{self.l1d_prefetcher}"

    def key(self) -> str:
        """Content-hash cache key of this point (hashed once: it is frozen)."""
        return self._key

    def to_dict(self) -> dict:
        """The point's fields by name (its values are plain data already)."""
        return {name: getattr(self, name) for name in _POINT_FIELDS}

    @cached_property
    def _key(self) -> str:
        payload = self.to_dict()
        if payload["trace_keys"] is None:
            del payload["trace_keys"]
        payload["schema"] = CACHE_SCHEMA_VERSION
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


_POINT_FIELDS = tuple(spec.name for spec in fields(CampaignPoint))

#: Canonical system JSON by ``repr(system)``.  The repr, unlike equality,
#: tells 1 from 1.0, so two configs that serialise differently never share
#: an entry.
_SYSTEM_JSON: dict[str, str] = {}
_SYSTEM_JSON_LIMIT = 256


def system_json(system: SystemConfig) -> str:
    """The canonical JSON of ``system`` (a point's ``system_json``),
    serialised once per distinct config and process."""
    description = repr(system)
    text = _SYSTEM_JSON.get(description)
    if text is None:
        if len(_SYSTEM_JSON) >= _SYSTEM_JSON_LIMIT:
            _SYSTEM_JSON.clear()
        text = _SYSTEM_JSON[description] = json.dumps(
            system_config_to_dict(system), sort_keys=True
        )
    return text


@lru_cache(maxsize=64)
def _parse_system_json(text: str) -> SystemConfig:
    """The (frozen) config a point's ``system_json`` describes."""
    return system_config_from_dict(json.loads(text))


def imported_trace_keys(
    workloads: Sequence[str], trace_store: Optional[TraceStore] = None
) -> Optional[tuple[str, ...]]:
    """``CampaignPoint.trace_keys`` for a workload tuple.

    Returns None when no workload is imported (keeping generated-only cache
    keys identical to the pre-store format); otherwise a tuple parallel to
    ``workloads`` holding each imported workload's store content key ("" for
    generated workloads, and for imported workloads missing from the store
    -- those fail later with a clear error when their trace is loaded).
    """
    if not any(workload.startswith(IMPORTED_PREFIX) for workload in workloads):
        return None
    store = trace_store if trace_store is not None else TraceStore.default()
    registry = store.imported_workloads()
    return tuple(
        registry.get(workload, {}).get("key", "")
        if workload.startswith(IMPORTED_PREFIX)
        else ""
        for workload in workloads
    )


def single_core_point(
    workload: str,
    scheme: str,
    l1d_prefetcher: str,
    memory_accesses: int,
    warmup_fraction: float,
    gap_scale: str = "medium",
    system: Optional[SystemConfig] = None,
    trace_store: Optional[TraceStore] = None,
) -> CampaignPoint:
    """Describe one single-core simulation as a :class:`CampaignPoint`."""
    resolved = system if system is not None else cascade_lake_single_core()
    return CampaignPoint(
        kind="single_core",
        workloads=(workload,),
        scheme=scheme,
        l1d_prefetcher=l1d_prefetcher,
        memory_accesses=memory_accesses,
        warmup_fraction=warmup_fraction,
        gap_scale=gap_scale,
        system_json=system_json(resolved),
        trace_keys=imported_trace_keys((workload,), trace_store),
    )


def multi_core_point(
    mix_name: str,
    workloads: Sequence[str],
    scheme: str,
    l1d_prefetcher: str,
    memory_accesses: int,
    warmup_fraction: float,
    gap_scale: str = "medium",
    per_core_bandwidth_gbps: float = 3.2,
    trace_store: Optional[TraceStore] = None,
) -> CampaignPoint:
    """Describe one multi-core mix simulation as a :class:`CampaignPoint`."""
    system = cascade_lake_multi_core(num_cores=len(workloads))
    system = system.with_dram_bandwidth(per_core_bandwidth_gbps)
    return CampaignPoint(
        kind="multi_core",
        workloads=tuple(workloads),
        scheme=scheme,
        l1d_prefetcher=l1d_prefetcher,
        memory_accesses=memory_accesses,
        warmup_fraction=warmup_fraction,
        gap_scale=gap_scale,
        system_json=system_json(system),
        mix_name=mix_name,
        trace_keys=imported_trace_keys(workloads, trace_store),
    )


# ----------------------------------------------------------------------
# Point execution (runs in worker processes as well as in-process)
# ----------------------------------------------------------------------
def _generate_workload_trace(
    workload: str, memory_accesses: int, gap_scale: str
) -> Trace:
    """Run the generator of a named workload (the slow path)."""
    global _generator_invocations
    _generator_invocations += 1
    if workload.startswith("spec."):
        return spec_like_trace(
            workload[len("spec."):], num_memory_accesses=memory_accesses
        )
    kernel, _, graph = workload.partition(".")
    return gap_trace(
        kernel,
        graph=graph,
        scale=gap_scale,
        max_memory_accesses=memory_accesses,
    )


def build_workload_trace(
    workload: str,
    memory_accesses: int,
    gap_scale: str = "medium",
    trace_store: Optional[TraceStore] = None,
) -> Trace:
    """Build the trace of a named workload.

    ``spec.*`` and ``<kernel>.<graph>`` workloads run their generators; with
    a ``trace_store`` the generator only runs on a store miss and the trace
    is served memory-mapped afterwards.  ``imported.*`` workloads exist
    *only* in a store (they were ingested from external trace files) and are
    truncated to the requested memory-access budget.
    """
    with obs_tracer.span(
        "trace_load", workload=workload, budget=memory_accesses,
    ):
        return _build_workload_trace(
            workload, memory_accesses, gap_scale, trace_store
        )


def _build_workload_trace(
    workload: str,
    memory_accesses: int,
    gap_scale: str,
    trace_store: Optional[TraceStore],
) -> Trace:
    if workload.startswith(IMPORTED_PREFIX):
        store = trace_store if trace_store is not None else TraceStore.default()
        trace = store.get(workload)
        if trace is None:
            raise KeyError(
                f"imported workload {workload!r} is not in the trace store at "
                f"{store.directory}; ingest it with 'repro trace import'"
            )
        return trace.truncated_to_memory_accesses(memory_accesses)
    if trace_store is not None:
        key = workload_key(workload, memory_accesses, gap_scale)
        return trace_store.get_or_build(
            key,
            lambda: _generate_workload_trace(workload, memory_accesses, gap_scale),
            extra={
                "workload": workload,
                "budget": memory_accesses,
                "gap_scale": gap_scale,
            },
        )
    return _generate_workload_trace(workload, memory_accesses, gap_scale)


#: A process's trace memo: (workload, budget, gap_scale) -> Trace.
TraceMemo = dict[tuple[str, int, str], Trace]


def _memo_trace(
    memo: TraceMemo,
    workload: str,
    memory_accesses: int,
    gap_scale: str,
    trace_store: Optional[TraceStore],
) -> Trace:
    """The trace of a named workload, built into ``memo`` on a memo miss."""
    key = (workload, memory_accesses, gap_scale)
    trace = memo.get(key)
    if trace is None:
        trace = memo[key] = build_workload_trace(
            workload, memory_accesses, gap_scale, trace_store=trace_store
        )
    return trace


def execute_point(
    point: CampaignPoint,
    traces: Optional[TraceMemo] = None,
    trace_store: Optional[TraceStore] = None,
    sim_core: Optional[str] = None,
) -> SingleCoreResult | MultiCoreResult:
    """Run the simulation described by ``point``.

    ``traces`` is the trace memo the point's traces are looked up in (and
    built into): the engine's own memo in-process, the pool's per-worker
    memo in a worker process, a fresh one when None.  Traces are
    deterministic functions of their names, so every memo yields
    identical results.

    ``sim_core`` overrides the simulator core of the point's system config
    ("batch", the default, or "scalar", the reference path).  Because the
    batch core is bit-identical to the scalar reference, the override does
    not affect the point's cache key -- results are shared between both
    cores.  The ``simulate`` span records the core the point asked for; a
    run without the compiled kernel also emits ``sim.batch.fallback``.
    """
    # Imported here, so that only simulating a point loads the simulator.
    from repro.sim.multi_core import run_multicore_mix
    from repro.sim.scenarios import build_scenario
    from repro.sim.single_core import run_single_core

    memo = traces if traces is not None else {}

    def trace_for(workload: str) -> Trace:
        return _memo_trace(
            memo, workload, point.memory_accesses, point.gap_scale, trace_store
        )

    system = _parse_system_json(point.system_json)
    if sim_core is not None and sim_core != system.sim_core:
        system = replace(system, sim_core=sim_core)
    scenario = build_scenario(point.scheme, l1d_prefetcher=point.l1d_prefetcher)
    if point.kind == "single_core":
        trace = trace_for(point.workloads[0])
        with obs_tracer.span(
            "simulate", point=point.label, kind=point.kind,
            accesses=point.memory_accesses, core=system.sim_core,
        ):
            return run_single_core(
                trace,
                scenario,
                config=system,
                warmup_fraction=point.warmup_fraction,
            )
    if point.kind == "multi_core":
        traces_for_mix = [trace_for(workload) for workload in point.workloads]
        with obs_tracer.span(
            "simulate", point=point.label, kind=point.kind,
            accesses=point.memory_accesses, core=system.sim_core,
        ):
            return run_multicore_mix(
                traces_for_mix,
                scenario,
                config=system,
                warmup_fraction=point.warmup_fraction,
                mix_name=point.mix_name,
            )
    raise ValueError(f"unknown campaign point kind {point.kind!r}")


#: Worker-process trace store and trace memo, installed by the pool
#: initializer.  Every point a worker executes maps shared prebuilt traces
#: from the store instead of regenerating them, and each distinct trace is
#: loaded once per worker for as long as the pool lasts.
_worker_trace_store: Optional[TraceStore] = None
_worker_traces: TraceMemo = {}


def _init_pool_worker(trace_store_dir: Optional[str]) -> None:
    """Pool initializer: point the worker at the engine's trace store and
    give it an empty trace memo."""
    global _worker_trace_store, _worker_traces
    _worker_trace_store = (
        TraceStore(trace_store_dir) if trace_store_dir is not None else None
    )
    _worker_traces = {}
    obs_tracer.install_from_env()
    from repro.obs import profile as obs_profile

    obs_profile.install_from_env()


def _run_point(
    point: CampaignPoint,
    sim_core: Optional[str],
    traces: TraceMemo,
    trace_store: Optional[TraceStore],
) -> tuple[SingleCoreResult | MultiCoreResult, int, float]:
    """Run one point: ``(result, generator runs, wall seconds)``.

    The generator-invocation delta rides back so the campaign report can
    count generator work across worker processes.
    """
    from repro.obs import profile as obs_profile

    before = _generator_invocations
    start = time.perf_counter()
    with obs_profile.profiled_point():
        result = execute_point(
            point, traces=traces, trace_store=trace_store, sim_core=sim_core
        )
    return result, _generator_invocations - before, time.perf_counter() - start


def _run_worker_point(
    point: CampaignPoint, sim_core: Optional[str]
) -> tuple[SingleCoreResult | MultiCoreResult, int, float]:
    """:func:`_run_point` in a pool worker, on the worker's memo and store."""
    return _run_point(point, sim_core, _worker_traces, _worker_trace_store)


class PointFailedError(RuntimeError):
    """A campaign point raised; the message names the point, its kind and
    budget (the label alone does not tell a sweep's point from a mix's
    isolated baseline at the multi-core budget); the cause is chained."""

    def __init__(self, point: CampaignPoint, error: Exception) -> None:
        super().__init__(
            f"point {point.label} ({point.kind}, {point.memory_accesses} "
            f"accesses) failed: {error}"
        )


# ----------------------------------------------------------------------
# Campaign report
# ----------------------------------------------------------------------
@dataclass
class PointOutcome:
    """What happened to one campaign point during a run."""

    key: str
    label: str
    status: str  # "ok" | "cached"
    wall_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "label": self.label,
            "status": self.status,
            "wall_s": round(self.wall_s, 6),
        }


@dataclass
class CampaignReport:
    """Structured report of one :meth:`CampaignEngine.run` batch.

    The machine-readable surface the CLI dumps with ``--report``: per-point
    outcomes plus the aggregate counters a progress line needs.
    """

    outcomes: list[PointOutcome] = field(default_factory=list)
    elapsed_s: float = 0.0
    jobs: int = 1
    generator_invocations: int = 0
    cache_hits: int = 0

    @property
    def succeeded(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "ok")

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "cached")

    def wall_time_percentiles(self) -> dict:
        """p50/p90/p99/max of per-point wall time over executed points
        (the percentiles ``repro obs report`` computes)."""
        walls = [o.wall_s for o in self.outcomes if o.status != "cached"]
        return {
            "p50": round(percentile(walls, 50), 6),
            "p90": round(percentile(walls, 90), 6),
            "p99": round(percentile(walls, 99), 6),
            "max": round(max(walls, default=0.0), 6),
        }

    def to_dict(self) -> dict:
        return {
            "points": len(self.outcomes),
            "succeeded": self.succeeded,
            "cached": self.cached,
            "elapsed_s": round(self.elapsed_s, 6),
            "jobs": self.jobs,
            "generator_invocations": self.generator_invocations,
            "cache_hits": self.cache_hits,
            "wall_time_s": self.wall_time_percentiles(),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class CampaignEngine:
    """Runs campaign points with parallel fan-out and persistent caching.

    Attributes:
        result_cache: the on-disk cache consulted before simulating (None
            disables persistence).
        trace_store: the persistent memory-mapped trace store shared with
            worker processes (None generates each trace once per process).
        jobs: default worker count for :meth:`run` (``os.cpu_count()`` when
            None; 1 forces in-process serial execution).
        simulations_run: number of points actually simulated by this engine
            (cache hits excluded) -- the counter the regression tests use to
            prove that a warm cache performs zero simulations.
    """

    def __init__(
        self,
        result_cache: Optional[ResultCache] = None,
        jobs: Optional[int] = None,
        trace_store: Optional[TraceStore] = None,
        sim_core: Optional[str] = None,
    ) -> None:
        self.result_cache = result_cache
        self.trace_store = trace_store
        self.jobs = jobs
        #: Simulator core implementation override ("scalar"/"batch", None
        #: keeps each point's own setting).  Does not affect cache keys:
        #: both cores are bit-identical, so their results are shared.
        self.sim_core = sim_core
        self.simulations_run = 0
        self.cache_hits = 0
        #: Report of the most recent :meth:`run` batch.
        self.last_report: Optional[CampaignReport] = None
        #: Reports of every :meth:`run` batch this engine executed, in order.
        self.reports: list[CampaignReport] = []
        self._traces: TraceMemo = {}

    def trace(
        self, workload: str, memory_accesses: int, gap_scale: str = "medium"
    ) -> Trace:
        """Build (or reuse) a workload trace via the engine's in-process memo.

        The same memo backs in-process point execution, so a trace built
        here is never regenerated when the point simulating it runs.  With a
        trace store attached, a memo miss maps the stored trace (building
        and persisting it first when the store misses too).
        """
        return _memo_trace(
            self._traces, workload, memory_accesses, gap_scale, self.trace_store
        )

    def resolve_jobs(self, jobs: Optional[int] = None) -> int:
        """Effective worker count for a run: ``jobs``, else the engine's,
        else ``os.cpu_count()``; a count below 1 raises ValueError."""
        effective = jobs if jobs is not None else self.jobs
        if effective is None:
            return os.cpu_count() or 1
        if effective < 1:
            raise ValueError(f"jobs must be at least 1 (or None), got {effective}")
        return effective

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        points: Iterable[CampaignPoint],
        jobs: Optional[int] = None,
        progress: Optional[callable] = None,
    ) -> dict[str, SingleCoreResult | MultiCoreResult]:
        """Run a batch of points, committing each result as it lands.

        Returns ``{point key: result}`` for every point.  Cache misses run
        in-process when ``jobs`` resolves to 1 (or only one point misses),
        otherwise on one process pool.  Every simulated result is committed
        to the result cache the moment it finishes, so re-running a batch
        after a failure (or Ctrl-C) executes only the remainder.  The first
        point that raises cancels the points not yet started and fails the
        run with :class:`PointFailedError` (``point <label> (<kind>,
        <budget> accesses) failed: ...``) chained to the cause.

        ``progress``, when given, is called as ``progress(report, total)``
        every time a point settles (cached or simulated) -- the hook behind
        the live ``--progress`` line.  It should be cheap.
        """
        ordered: dict[str, CampaignPoint] = {}
        for point in points:
            ordered.setdefault(point.key(), point)

        report = CampaignReport(jobs=self.resolve_jobs(jobs))
        start = time.perf_counter()
        results: dict[str, SingleCoreResult | MultiCoreResult] = {}

        def settle(outcome: PointOutcome) -> None:
            report.outcomes.append(outcome)
            if progress is not None:
                progress(report, len(ordered))

        missing: list[tuple[str, CampaignPoint]] = []
        for key, point in ordered.items():
            if self.result_cache is not None:
                cached = self.result_cache.get(key)
                if cached is not None:
                    self.cache_hits += 1
                    report.cache_hits += 1
                    obs_tracer.event("cache_hit", point=point.label)
                    results[key] = cached
                    settle(PointOutcome(key, point.label, "cached"))
                    continue
                obs_tracer.event("cache_miss", point=point.label)
            missing.append((key, point))

        for key, point, (result, generator_runs, wall_s) in self._execute(
            missing, min(report.jobs, len(missing))
        ):
            report.generator_invocations += generator_runs
            self._commit(key, point, result)
            results[key] = result
            settle(PointOutcome(key, point.label, "ok", wall_s=wall_s))

        report.elapsed_s = time.perf_counter() - start
        self.last_report = report
        self.reports.append(report)
        return results

    def _execute(self, missing: list[tuple[str, CampaignPoint]], workers: int):
        """Yield ``(key, point, (result, generator runs, wall_s))`` per point,
        in completion order."""
        if workers <= 1:
            for key, point in missing:
                try:
                    outcome = _run_point(
                        point, self.sim_core, self._traces, self.trace_store
                    )
                except Exception as error:
                    raise PointFailedError(point, error) from error
                yield key, point, outcome
            return
        from concurrent.futures import ProcessPoolExecutor, as_completed

        store_dir = (
            str(self.trace_store.directory) if self.trace_store is not None else None
        )
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_pool_worker,
            initargs=(store_dir,),
        ) as pool:
            futures = {
                pool.submit(_run_worker_point, point, self.sim_core): (key, point)
                for key, point in missing
            }
            try:
                for future in as_completed(futures):
                    key, point = futures[future]
                    try:
                        outcome = future.result()
                    except Exception as error:
                        raise PointFailedError(point, error) from error
                    yield key, point, outcome
            finally:
                pool.shutdown(cancel_futures=True)

    def _commit(
        self,
        key: str,
        point: CampaignPoint,
        result: SingleCoreResult | MultiCoreResult,
    ) -> None:
        """Count and persist one freshly simulated result immediately."""
        self.simulations_run += 1
        if self.result_cache is not None:
            with obs_tracer.span("cache_put", point=point.label):
                self.result_cache.put(key, result, point=point.to_dict())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(
        self, points: Iterable[CampaignPoint]
    ) -> list[tuple[CampaignPoint, str, bool]]:
        """Return ``(point, key, cached)`` for each point, without simulating."""
        rows = []
        for point in points:
            key = point.key()
            cached = self.result_cache is not None and self.result_cache.contains(key)
            rows.append((point, key, cached))
        return rows
