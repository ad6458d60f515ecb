"""Campaign execution engine.

The paper's evaluation is a campaign: a cross product of workloads, schemes,
L1D prefetchers and trace budgets, each point an independent simulation.
This module enumerates campaign points up front, runs them, and persists
every result to the on-disk :class:`~repro.sim.result_cache.ResultCache`,
keyed by a content hash of everything that determines the outcome.  A warm
cache means re-running a figure harness performs zero simulations.

Execution is *supervised* by one loop over one of two executors: a
:class:`concurrent.futures.ProcessPoolExecutor` when more than one worker
is useful (``--jobs N``), or an in-process executor that runs each attempt
on the calling thread (``--jobs 1``, or a single cache miss).  Each point
runs as its own future, every result is committed to the result cache the
moment it lands, per-point failures are classified transient vs
deterministic, transient failures are retried with capped exponential
backoff (and an optional per-point timeout), a crashed worker pool
(``BrokenProcessPool``) is respawned with only the unfinished points
re-submitted, and points that exhaust their retries are *quarantined* into
a structured :class:`CampaignReport` instead of aborting the batch.
Idempotent cache keys make every campaign resumable by construction:
re-running a partially-failed batch executes only the quarantined
remainder.  The failure paths are exercised deterministically via
:mod:`repro.sim.faults` (``REPRO_FAULT_SPEC``).

Layering: the engine sits between the raw simulation drivers
(:mod:`repro.sim.single_core` / :mod:`repro.sim.multi_core`) and the
experiment harnesses; :class:`repro.experiments.common.CampaignCache` is a
thin per-process memo on top of it.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import signal
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable, Optional, Sequence

from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import tracer as obs_tracer
from repro.sim import faults

from repro.common.config import (
    SystemConfig,
    cascade_lake_multi_core,
    cascade_lake_single_core,
    system_config_from_dict,
    system_config_to_dict,
)
from repro.sim.multi_core import (
    MultiCoreResult,
    build_mix_hierarchies,
    run_multicore_mix,
)
from repro.sim.batch import batch_unsupported_reason, mix_unsupported_reasons
from repro.sim.result_cache import ResultCache
from repro.sim.results import SingleCoreResult
from repro.sim.scenarios import build_hierarchy, build_scenario
from repro.sim.single_core import run_single_core
from repro.traces.ingest import IMPORTED_PREFIX
from repro.traces.store import TraceStore, workload_key
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
        """Content-hash cache key of this point."""
        payload = asdict(self)
        if payload.get("trace_keys") is None:
            payload.pop("trace_keys", None)
        payload["schema"] = CACHE_SCHEMA_VERSION
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def point_from_dict(payload: dict) -> CampaignPoint:
    """Rebuild a :class:`CampaignPoint` from its ``asdict`` form.

    The inverse of ``dataclasses.asdict`` modulo JSON round-tripping: the
    tuple fields come back as lists and must be re-tupled or the rebuilt
    point would hash to a different cache key than the original.  Used by
    the fabric task queue, whose on-disk task records carry the point
    across worker processes (and machines) as plain JSON.
    """
    data = dict(payload)
    data["workloads"] = tuple(data["workloads"])
    if data.get("trace_keys") is not None:
        data["trace_keys"] = tuple(data["trace_keys"])
    return CampaignPoint(**data)


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
        system_json=json.dumps(system_config_to_dict(resolved), sort_keys=True),
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
        system_json=json.dumps(system_config_to_dict(system), sort_keys=True),
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
        "trace_load", metric="point.trace_load_s", workload=workload,
        budget=memory_accesses,
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
        trace = store.load_imported(workload)
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


def execute_point(
    point: CampaignPoint,
    traces: Optional[dict[tuple[str, int, str], Trace]] = None,
    trace_store: Optional[TraceStore] = None,
    sim_core: Optional[str] = None,
) -> SingleCoreResult | MultiCoreResult:
    """Run the simulation described by ``point``.

    ``traces`` is an optional (workload, budget, gap_scale) -> Trace memo
    used by the in-process execution path; worker processes rebuild traces
    from the workload name (or map them from the shared ``trace_store``),
    which is deterministic, so both paths produce identical results.

    ``sim_core`` overrides the simulator core of the point's system config
    ("batch", the default, or "scalar", the reference path).  Because the
    batch core is bit-identical to the scalar reference, the override does
    not affect the point's cache key -- results are shared between both
    cores.  The ``simulate`` span records the core that actually ran: a
    point whose hierarchy (or, for a mix, any core) the batch core rejects
    is stamped ``scalar``.
    """
    def trace_for(workload: str) -> Trace:
        if traces is None:
            return build_workload_trace(
                workload, point.memory_accesses, point.gap_scale,
                trace_store=trace_store,
            )
        key = (workload, point.memory_accesses, point.gap_scale)
        cached = traces.get(key)
        if cached is None:
            cached = traces[key] = build_workload_trace(
                workload, point.memory_accesses, point.gap_scale,
                trace_store=trace_store,
            )
        return cached

    system = system_config_from_dict(json.loads(point.system_json))
    if sim_core is not None and sim_core != system.sim_core:
        system = replace(system, sim_core=sim_core)
    scenario = build_scenario(point.scheme, l1d_prefetcher=point.l1d_prefetcher)
    if point.kind == "single_core":
        trace = trace_for(point.workloads[0])
        with obs_tracer.span(
            "simulate", metric="point.simulate_s", point=point.label,
            kind=point.kind, core=system.sim_core,
        ) as attrs:
            hierarchy = build_hierarchy(scenario, config=system)
            if attrs is not None and batch_unsupported_reason(hierarchy):
                attrs["core"] = "scalar"
            return run_single_core(
                trace,
                scenario,
                config=system,
                warmup_fraction=point.warmup_fraction,
                hierarchy=hierarchy,
            )
    if point.kind == "multi_core":
        traces_for_mix = [trace_for(workload) for workload in point.workloads]
        with obs_tracer.span(
            "simulate", metric="point.simulate_s", point=point.label,
            kind=point.kind, core=system.sim_core,
        ) as attrs:
            hierarchies = build_mix_hierarchies(scenario, system, len(traces_for_mix))
            if attrs is not None and any(mix_unsupported_reasons(hierarchies)):
                attrs["core"] = "scalar"
            return run_multicore_mix(
                traces_for_mix,
                scenario,
                config=system,
                warmup_fraction=point.warmup_fraction,
                mix_name=point.mix_name,
                hierarchies=hierarchies,
            )
    raise ValueError(f"unknown campaign point kind {point.kind!r}")


#: Worker-process trace store, installed by the pool initializer so every
#: point executed in this worker maps shared prebuilt traces instead of
#: regenerating them.
_worker_trace_store: Optional[TraceStore] = None


def _init_pool_worker(trace_store_dir: Optional[str]) -> None:
    """Pool initializer: point the worker at the engine's trace store.

    Also (re)installs the fault-injection spec from the environment, so a
    respawned pool keeps injecting the configured faults.
    """
    global _worker_trace_store
    _worker_trace_store = (
        TraceStore(trace_store_dir) if trace_store_dir is not None else None
    )
    faults.install_from_env()
    obs_tracer.install_from_env()
    obs_profile.install_from_env()


class PointTimeoutError(RuntimeError):
    """A point exceeded the policy's per-point timeout."""


@contextmanager
def _point_deadline(timeout_s: Optional[float]):
    """Raise :class:`PointTimeoutError` if the body outlives ``timeout_s``.

    Implemented with ``SIGALRM`` (sub-second via ``setitimer``), which only
    works in a main thread on POSIX; elsewhere the deadline is a no-op and
    the supervisor's hard-deadline pool kill is the only timeout backstop.
    Pool workers execute tasks in their main thread, so the common paths
    are covered.
    """
    if (
        not timeout_s
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise PointTimeoutError(f"point exceeded timeout of {timeout_s:g}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def classify_failure(error: BaseException) -> tuple[bool, str]:
    """Classify a per-point failure as ``(transient, kind)``.

    Transient failures (worker crash, timeout, OOM, I/O hiccups, corrupted
    payloads) are worth retrying; deterministic ones (a genuine bug raising
    ``ValueError``, an unknown workload raising ``KeyError``) would fail
    identically on every attempt and are quarantined immediately to avoid
    retry storms.
    """
    if isinstance(error, PointTimeoutError):
        return True, "timeout"
    if isinstance(error, BrokenProcessPool):
        return True, "worker-crash"
    if isinstance(error, faults.FaultInjectedError):
        return error.transient, "fault-injected"
    if isinstance(error, (MemoryError, ConnectionError, OSError)):
        return True, type(error).__name__
    return False, type(error).__name__


def _attempt_point(
    point: CampaignPoint,
    attempt: int,
    timeout_s: Optional[float],
    sim_core: Optional[str],
    traces: Optional[dict[tuple[str, int, str], Trace]] = None,
    trace_store: Optional[TraceStore] = None,
    serialize: bool = True,
) -> tuple[SingleCoreResult | MultiCoreResult | dict, int]:
    """One attempt at one point: ``(result or payload, generator runs)``.

    Both executors run this.  ``attempt`` is the 0-based attempt index the
    supervisor is on for this point; fault-injection rules key off it.  A
    pool worker passes no ``traces``/``trace_store`` (it maps the store its
    initializer installed) and ``serialize``s the result into a dict
    payload, which is where ``corrupt``-mode faults strike.  The in-process
    executor passes the engine's trace memo and store and serializes only
    while a fault spec is active, so healthy runs never pay for JSON.  The
    generator-invocation delta rides back so the campaign report can
    aggregate generator work across worker processes.
    """
    from repro.sim.result_cache import result_to_dict

    key = point.key()
    before = _generator_invocations
    with _point_deadline(timeout_s):
        faults.inject_before(key, point.label, attempt)
        with obs_profile.profiled_point():
            result = execute_point(
                point,
                traces=traces,
                trace_store=(
                    trace_store if trace_store is not None else _worker_trace_store
                ),
                sim_core=sim_core,
            )
    if serialize:
        result = faults.corrupt_payload(
            key, point.label, attempt, result_to_dict(result)
        )
    return result, _generator_invocations - before


class _InlineExecutor(Executor):
    """Runs each submitted call on the calling thread.

    ``submit`` returns an already-completed future.  Only ``Exception`` is
    captured into it: ``KeyboardInterrupt`` and the fabric worker's drain
    signal (``BaseException`` subclasses) propagate out of the supervisor.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as error:  # noqa: BLE001 -- supervised boundary
            future.set_exception(error)
        return future


# ----------------------------------------------------------------------
# Retry policy and campaign report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """How the supervised engine treats per-point failures.

    ``retries`` bounds *re*-executions: a point runs at most ``1 + retries``
    times.  Transient failures back off exponentially (``backoff_s * 2**n``
    capped at ``backoff_cap_s``) before re-submission; deterministic
    failures are quarantined without retrying.  ``timeout_s`` bounds one
    attempt's wall time (None: unbounded); a timed-out attempt counts as a
    transient failure.  ``strict`` is carried for CLI convenience: the
    engine itself never aborts on quarantine.
    """

    retries: int = 2
    timeout_s: Optional[float] = None
    backoff_s: float = 0.05
    backoff_cap_s: float = 2.0
    strict: bool = False

    def backoff(self, failed_attempts: int) -> float:
        """Delay before re-submitting after ``failed_attempts`` failures."""
        return min(
            self.backoff_cap_s,
            self.backoff_s * (2 ** max(0, failed_attempts - 1)),
        )


@dataclass
class PointOutcome:
    """What happened to one campaign point during a supervised run."""

    key: str
    label: str
    status: str  # "ok" | "cached" | "quarantined"
    attempts: int = 1
    retries: int = 0
    wall_s: float = 0.0
    error: Optional[str] = None
    error_kind: Optional[str] = None
    transient: Optional[bool] = None
    timed_out: bool = False

    def to_dict(self) -> dict:
        payload = {
            "key": self.key,
            "label": self.label,
            "status": self.status,
            "attempts": self.attempts,
            "retries": self.retries,
            "wall_s": round(self.wall_s, 6),
        }
        if self.error is not None:
            payload["error"] = self.error
            payload["error_kind"] = self.error_kind
            payload["transient"] = self.transient
        if self.timed_out:
            payload["timed_out"] = True
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "PointOutcome":
        """Rebuild an outcome from its :meth:`to_dict` form.

        Tolerates the extra fields fabric outcome records carry (owner,
        queue attempt counters) -- only the outcome fields are read.
        """
        return cls(
            key=payload["key"],
            label=payload.get("label", payload["key"]),
            status=payload.get("status", "ok"),
            attempts=int(payload.get("attempts", 1)),
            retries=int(payload.get("retries", 0)),
            wall_s=float(payload.get("wall_s", 0.0)),
            error=payload.get("error"),
            error_kind=payload.get("error_kind"),
            transient=payload.get("transient"),
            timed_out=bool(payload.get("timed_out", False)),
        )


def _percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted non-empty list."""
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


@dataclass
class CampaignReport:
    """Structured health report of one (or several merged) campaign runs.

    The machine-readable surface the CLI dumps with ``--report`` and the
    future distributed fabric will stream: per-point outcomes plus the
    aggregate counters a progress/health dashboard needs.
    """

    outcomes: list[PointOutcome] = field(default_factory=list)
    elapsed_s: float = 0.0
    jobs: int = 1
    generator_invocations: int = 0
    cache_hits: int = 0
    pool_respawns: int = 0

    @property
    def succeeded(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "ok")

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "cached")

    @property
    def quarantined(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "quarantined")

    @property
    def retried(self) -> int:
        return sum(1 for o in self.outcomes if o.retries > 0)

    @property
    def total_retries(self) -> int:
        return sum(o.retries for o in self.outcomes)

    @property
    def timed_out(self) -> int:
        return sum(1 for o in self.outcomes if o.timed_out)

    def quarantined_outcomes(self) -> list[PointOutcome]:
        return [o for o in self.outcomes if o.status == "quarantined"]

    def wall_time_percentiles(self) -> dict:
        """p50/p90/p99/max of per-point wall time over executed points."""
        walls = sorted(
            o.wall_s for o in self.outcomes if o.status != "cached"
        )
        if not walls:
            return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}
        return {
            "p50": round(_percentile(walls, 0.50), 6),
            "p90": round(_percentile(walls, 0.90), 6),
            "p99": round(_percentile(walls, 0.99), 6),
            "max": round(walls[-1], 6),
        }

    def to_dict(self) -> dict:
        return {
            "points": len(self.outcomes),
            "succeeded": self.succeeded,
            "cached": self.cached,
            "quarantined": self.quarantined,
            "retried": self.retried,
            "total_retries": self.total_retries,
            "timed_out": self.timed_out,
            "elapsed_s": round(self.elapsed_s, 6),
            "jobs": self.jobs,
            "generator_invocations": self.generator_invocations,
            "cache_hits": self.cache_hits,
            "pool_respawns": self.pool_respawns,
            "wall_time_s": self.wall_time_percentiles(),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    @classmethod
    def merged(cls, reports: Sequence["CampaignReport"]) -> "CampaignReport":
        """Fold several per-batch reports into one (``repro figure all``,
        the fabric driver's per-worker reports).

        Per-point outcomes are deduplicated by cache key, keeping the
        *latest* occurrence: when a fabric point is leased twice after a
        reclamation (or a ``figure all`` session touches the same point in
        two batches), the merged report counts it once, with its final
        status, instead of double-counting.  The aggregate counters
        (elapsed, cache hits, generator runs, respawns) remain sums -- they
        measure work performed, which really did happen twice.
        """
        merged = cls()
        by_key: dict[str, PointOutcome] = {}
        for report in reports:
            for outcome in report.outcomes:
                by_key[outcome.key] = outcome
            merged.elapsed_s += report.elapsed_s
            merged.jobs = max(merged.jobs, report.jobs)
            merged.generator_invocations += report.generator_invocations
            merged.cache_hits += report.cache_hits
            merged.pool_respawns += report.pool_respawns
        merged.outcomes.extend(by_key.values())
        return merged


class _PointState:
    """Supervisor-side mutable bookkeeping for one in-flight point."""

    __slots__ = ("point", "attempts", "wall_s", "error", "error_kind",
                 "transient", "timed_out")

    def __init__(self, point: CampaignPoint) -> None:
        self.point = point
        self.attempts = 0  # completed (finished or failed) attempts
        self.wall_s = 0.0
        self.error: Optional[str] = None
        self.error_kind: Optional[str] = None
        self.transient: Optional[bool] = None
        self.timed_out = False


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class CampaignEngine:
    """Runs campaign points with parallel fan-out and persistent caching.

    Attributes:
        result_cache: the on-disk cache consulted before simulating (None
            disables persistence).
        trace_store: the persistent memory-mapped trace store shared with
            worker processes (None regenerates traces per process, the
            pre-store behaviour).
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
        #: Reports of every :meth:`run` batch this engine executed, in
        #: order; merge with :meth:`CampaignReport.merged` for a session
        #: view (``repro figure all`` runs one batch per figure).
        self.reports: list[CampaignReport] = []
        self._traces: dict[tuple[str, int, str], Trace] = {}
        #: Per-run progress callback (set by :meth:`run`, cleared after).
        self._progress: Optional[callable] = None

    def trace(
        self, workload: str, memory_accesses: int, gap_scale: str = "medium"
    ) -> Trace:
        """Build (or reuse) a workload trace via the engine's in-process memo.

        The same memo backs in-process point execution, so a trace built
        here is never regenerated when the point simulating it runs.  With a
        trace store attached, a memo miss maps the stored trace (building
        and persisting it first when the store misses too).
        """
        key = (workload, memory_accesses, gap_scale)
        cached = self._traces.get(key)
        if cached is None:
            cached = self._traces[key] = build_workload_trace(
                workload, memory_accesses, gap_scale,
                trace_store=self.trace_store,
            )
        return cached

    def resolve_jobs(self, jobs: Optional[int] = None) -> int:
        """Effective worker count for a run."""
        effective = jobs if jobs is not None else self.jobs
        if effective is None:
            effective = os.cpu_count() or 1
        return max(1, effective)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_point(self, point: CampaignPoint) -> SingleCoreResult | MultiCoreResult:
        """Run (or fetch from cache) one point in-process, supervised.

        A one-point :meth:`run`; raises ``RuntimeError`` when the point is
        quarantined.
        """
        result = self.run([point], jobs=1).get(point.key())
        if result is None:
            (outcome,) = self.last_report.quarantined_outcomes()
            raise RuntimeError(
                f"point {outcome.label} quarantined "
                f"({outcome.error_kind}): {outcome.error}"
            )
        return result

    def run(
        self,
        points: Iterable[CampaignPoint],
        jobs: Optional[int] = None,
        policy: Optional[RetryPolicy] = None,
        progress: Optional[callable] = None,
    ) -> dict[str, SingleCoreResult | MultiCoreResult]:
        """Run a batch of points under supervision, committing as they land.

        ``progress``, when given, is called as ``progress(report, total)``
        every time a point settles (cached, succeeded or quarantined) --
        the hook behind the live progress line of ``--progress`` and the
        fabric driver.  It runs on the supervisor thread and should be
        cheap (the renderers throttle themselves).

        Returns ``{point key: result}`` for every point that produced a
        result (cache hit or fresh simulation).  Workers are only spawned
        for points that miss the cache; with one miss (or ``jobs == 1``)
        the same supervision loop drives the in-process executor instead,
        avoiding fork overhead.

        Every completed simulation is committed to the result cache the
        moment it finishes, so a later crash (or Ctrl-C) never discards
        finished work.  Points whose failures exhaust ``policy.retries``
        (or fail deterministically) are *quarantined*: they are absent from
        the returned dict and recorded in :attr:`last_report` instead of
        aborting the batch.  Re-running the same batch executes only the
        quarantined remainder (idempotent cache keys).
        """
        ordered: list[CampaignPoint] = []
        seen: set[str] = set()
        for point in points:
            key = point.key()
            if key not in seen:
                seen.add(key)
                ordered.append(point)

        effective_policy = policy if policy is not None else RetryPolicy()
        faults.install_from_env()
        report = CampaignReport(jobs=self.resolve_jobs(jobs))
        start = time.perf_counter()
        if progress is not None:
            total = len(ordered)
            self._progress = lambda: progress(report, total)

        try:
            results: dict[str, SingleCoreResult | MultiCoreResult] = {}
            missing: list[tuple[str, CampaignPoint]] = []
            for point in ordered:
                key = point.key()
                if self.result_cache is not None:
                    cached = self.result_cache.get(key)
                    if cached is not None:
                        self.cache_hits += 1
                        report.cache_hits += 1
                        if obs_tracer.enabled():
                            obs_metrics.registry().counter("cache.hits")
                            obs_tracer.event("cache_hit", point=point.label)
                        results[key] = cached
                        report.outcomes.append(
                            PointOutcome(key, point.label, "cached", attempts=0)
                        )
                        self._notify_progress()
                        continue
                    if obs_tracer.enabled():
                        obs_metrics.registry().counter("cache.misses")
                        obs_tracer.event("cache_miss", point=point.label)
                missing.append((key, point))

            if missing:
                self._supervise(
                    missing, min(report.jobs, len(missing)),
                    effective_policy, report, results,
                )
        finally:
            self._progress = None

        report.elapsed_s = time.perf_counter() - start
        self.last_report = report
        self.reports.append(report)
        return results

    # ------------------------------------------------------------------
    # Supervised execution paths
    # ------------------------------------------------------------------
    def _notify_progress(self) -> None:
        """Invoke the per-run progress callback, if one is installed."""
        if self._progress is not None:
            self._progress()

    def _commit(
        self,
        key: str,
        point: CampaignPoint,
        result: SingleCoreResult | MultiCoreResult,
        results: dict,
    ) -> None:
        """Count and persist one freshly simulated result immediately."""
        self.simulations_run += 1
        if self.result_cache is not None:
            with obs_tracer.span(
                "cache_put", metric="point.cache_put_s", point=point.label
            ):
                self.result_cache.put(key, result, point=asdict(point))
            if obs_tracer.enabled():
                obs_metrics.registry().counter("cache.puts")
        results[key] = result

    @staticmethod
    def _quarantine_outcome(key: str, state: _PointState) -> PointOutcome:
        return PointOutcome(
            key,
            state.point.label,
            "quarantined",
            attempts=state.attempts,
            retries=max(0, state.attempts - 1),
            wall_s=state.wall_s,
            error=state.error,
            error_kind=state.error_kind,
            transient=state.transient,
            timed_out=state.timed_out,
        )

    def _spawn_pool(self, workers: int) -> ProcessPoolExecutor:
        store_dir = (
            str(self.trace_store.directory)
            if self.trace_store is not None
            else None
        )
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_pool_worker,
            initargs=(store_dir,),
        )

    def _supervise(
        self,
        missing: list[tuple[str, CampaignPoint]],
        workers: int,
        policy: RetryPolicy,
        report: CampaignReport,
        results: dict,
    ) -> None:
        """The supervision loop: per-point futures, drained as completed.

        With one worker the futures come from the in-process executor,
        one in flight at a time, so each result is committed before the
        next point starts and an interrupt never discards finished work.
        Otherwise submission to the process pool is windowed (at most
        ``2 * workers`` futures in flight) so a pool crash only charges an
        attempt to the points that could actually have caused it.
        ``BrokenProcessPool`` respawns the pool and re-submits the
        unfinished points; a point overrunning the supervisor's hard
        deadline (the worker-side alarm plus grace) terminates the stuck
        workers, charges only the overdue point, and re-submits the
        innocent bystanders uncharged.  Neither can happen in-process,
        where every future is complete by the time it is waited on.
        """
        from repro.sim.result_cache import result_from_dict

        state: dict[str, _PointState] = {
            key: _PointState(point) for key, point in missing
        }
        ready: list[str] = [key for key, _ in missing]
        waiting: list[tuple[float, str]] = []  # (eligible monotonic time, key)
        inflight: dict = {}  # future -> (key, submit monotonic time)
        grace_s = (
            max(5.0, 0.5 * policy.timeout_s) if policy.timeout_s else None
        )
        if workers > 1:
            spawn, window, attempt_kwargs = (
                lambda: self._spawn_pool(workers), 2 * workers, {}
            )
        else:
            spawn, window, attempt_kwargs = _InlineExecutor, 1, {
                "traces": self._traces,
                "trace_store": self.trace_store,
                "serialize": bool(faults.active_spec()),
            }
        executor: Executor = spawn()
        try:
            while ready or waiting or inflight:
                now = time.monotonic()
                while waiting and waiting[0][0] <= now:
                    _, key = heapq.heappop(waiting)
                    ready.append(key)
                while ready and len(inflight) < window:
                    key = ready.pop(0)
                    point_state = state[key]
                    submitted = time.monotonic()
                    try:
                        future = executor.submit(
                            _attempt_point,
                            point_state.point,
                            point_state.attempts,
                            policy.timeout_s,
                            self.sim_core,
                            **attempt_kwargs,
                        )
                    except (BrokenProcessPool, RuntimeError):
                        # The pool broke between our draining it and this
                        # submit; put the point back and let the broken
                        # branch below respawn.
                        ready.insert(0, key)
                        break
                    inflight[future] = (key, submitted)

                if not inflight:
                    if waiting:
                        time.sleep(
                            max(0.0, min(waiting[0][0] - time.monotonic(), 0.25))
                        )
                        continue
                    if ready:
                        # Submission failed on a broken pool; respawn.
                        executor.shutdown(wait=False, cancel_futures=True)
                        executor = spawn()
                        report.pool_respawns += 1
                        continue
                    break

                done, _ = wait(
                    set(inflight), timeout=0.25, return_when=FIRST_COMPLETED
                )

                broken = False
                overdue: set[str] = set()
                for future in done:
                    key, submitted = inflight.pop(future)
                    point_state = state[key]
                    duration = time.monotonic() - submitted
                    failure: Optional[tuple[bool, str, str]] = None
                    try:
                        result, generator_delta = future.result()
                    except BrokenProcessPool as exc:
                        broken = True
                        failure = (True, "worker-crash", str(exc))
                    except Exception as exc:  # noqa: BLE001 -- supervised boundary
                        transient, kind = classify_failure(exc)
                        failure = (transient, kind, str(exc))
                    else:
                        report.generator_invocations += generator_delta
                        if isinstance(result, dict):
                            try:
                                result = result_from_dict(result)
                            except (ValueError, TypeError, KeyError) as exc:
                                # The attempt finished but its payload does
                                # not decode -- corruption is worth retrying.
                                failure = (True, "corrupt-payload", str(exc))
                    if failure is None:
                        point_state.attempts += 1
                        point_state.wall_s += duration
                        self._commit(key, point_state.point, result, results)
                        report.outcomes.append(
                            PointOutcome(
                                key, point_state.point.label, "ok",
                                attempts=point_state.attempts,
                                retries=point_state.attempts - 1,
                                wall_s=point_state.wall_s,
                            )
                        )
                        self._notify_progress()
                        continue
                    self._charge_failure(
                        key, point_state, duration, *failure,
                        policy, report, ready, waiting,
                    )

                # Hard deadline: the worker-side alarm should end an
                # attempt at timeout_s; a worker stuck in uninterruptible
                # code is terminated here instead.
                if grace_s is not None and not broken:
                    now = time.monotonic()
                    for future, (key, submitted) in list(inflight.items()):
                        if now - submitted > policy.timeout_s + grace_s:
                            overdue.add(key)
                    if overdue:
                        broken = True
                        for process in getattr(executor, "_processes", {}).values():
                            try:
                                process.terminate()
                            except OSError:
                                pass

                if broken:
                    # Every in-flight future dies with the pool.  Charge an
                    # attempt to the points that could have caused it (all
                    # of them for a spontaneous crash, just the overdue
                    # ones for an induced kill); re-submit the rest
                    # uncharged.
                    for future, (key, submitted) in inflight.items():
                        point_state = state[key]
                        duration = time.monotonic() - submitted
                        if overdue:
                            if key in overdue:
                                self._charge_failure(
                                    key, point_state, duration, True,
                                    "timeout",
                                    f"hard deadline exceeded "
                                    f"({policy.timeout_s:g}s + {grace_s:g}s "
                                    f"grace); worker terminated",
                                    policy, report, ready, waiting,
                                )
                            else:
                                ready.append(key)
                        else:
                            self._charge_failure(
                                key, point_state, duration, True,
                                "worker-crash",
                                "worker process pool broke mid-attempt",
                                policy, report, ready, waiting,
                            )
                    inflight.clear()
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = spawn()
                    report.pool_respawns += 1
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    def _charge_failure(
        self,
        key: str,
        point_state: _PointState,
        duration: float,
        transient: bool,
        kind: str,
        message: str,
        policy: RetryPolicy,
        report: CampaignReport,
        ready: list[str],
        waiting: list[tuple[float, str]],
    ) -> None:
        """Record one failed attempt; schedule a retry or quarantine."""
        point_state.attempts += 1
        point_state.wall_s += duration
        point_state.error = message
        point_state.error_kind = kind
        point_state.transient = transient
        point_state.timed_out = point_state.timed_out or kind == "timeout"
        if transient and point_state.attempts <= policy.retries:
            if obs_tracer.enabled():
                obs_metrics.registry().counter("point.retries")
                obs_tracer.event(
                    "retry", point=point_state.point.label,
                    attempt=point_state.attempts, kind=kind,
                )
            heapq.heappush(
                waiting,
                (
                    time.monotonic() + policy.backoff(point_state.attempts),
                    key,
                ),
            )
            return
        report.outcomes.append(self._quarantine_outcome(key, point_state))
        self._notify_progress()

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
