"""Shared infrastructure for the experiment harnesses.

The paper's campaigns run 55 single-core workloads and 200 four-core mixes
for 100M+100M instructions each on a cluster.  The reproduction keeps the
same structure but scales the workload count and trace length down to what a
pure-Python simulator can run in minutes; the *relative* comparisons between
schemes are what the figures check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from repro.common.config import (
    SystemConfig,
    cascade_lake_single_core,
    system_config_to_dict,
)
from repro.experiments.spec import multicore_mixes
from repro.sim.engine import (
    CampaignEngine,
    CampaignPoint,
    multi_core_point,
    single_core_point,
)
from repro.sim.multi_core import MultiCoreResult
from repro.sim.result_cache import ResultCache
from repro.sim.results import SingleCoreResult
from repro.stats.metrics import geometric_mean
from repro.traces.trace import Trace

#: Default single-core workload selection.  Six GAP kernel/graph pairs and
#: six SPEC-like workloads, chosen to span the MPKI range the paper targets
#: (all have LLC MPKI > 1 in the baseline).
DEFAULT_GAP_WORKLOADS = (
    "bfs.urand",
    "bc.urand",
    "sssp.urand",
    "cc.road",
)
DEFAULT_SPEC_WORKLOADS = (
    "spec.mcf_like",
    "spec.omnetpp_like",
    "spec.sphinx_like",
    "spec.lbm_like",
)

#: The four schemes compared against the baseline throughout Section VI.
COMPARISON_SCHEMES = ("ppf", "hermes", "hermes_ppf", "tlp")


@dataclass(frozen=True)
class ExperimentConfig:
    """Scaling knobs shared by all experiments.

    ``imported_workloads`` names traces ingested into the trace store
    (``imported.*``); they join the single-core campaign cross product next
    to the generated suites.
    """

    gap_workloads: tuple[str, ...] = DEFAULT_GAP_WORKLOADS
    spec_workloads: tuple[str, ...] = DEFAULT_SPEC_WORKLOADS
    imported_workloads: tuple[str, ...] = ()
    memory_accesses: int = 12_000
    multicore_memory_accesses: int = 6_000
    warmup_fraction: float = 0.25
    gap_scale: str = "medium"
    l1d_prefetchers: tuple[str, ...] = ("ipcp", "berti")
    cores: int = 4
    mixes_per_suite: int = 1

    def workloads(self, suite: str | None = None) -> tuple[str, ...]:
        """All workload names, optionally restricted to one suite."""
        if suite == "gap":
            return self.gap_workloads
        if suite == "spec":
            return self.spec_workloads
        if suite == "imported":
            return self.imported_workloads
        return self.gap_workloads + self.spec_workloads + self.imported_workloads

    def suite_of(self, workload: str) -> str:
        """Return "gap", "spec" or "imported" for a workload name."""
        if workload.startswith("spec."):
            return "spec"
        if workload.startswith("imported."):
            return "imported"
        return "gap"


def default_experiment_config() -> ExperimentConfig:
    """The configuration used by the benchmark harness."""
    return ExperimentConfig()


_GLOBAL_CACHES: dict[ExperimentConfig, "CampaignCache"] = {}


def get_global_cache(config: Optional[ExperimentConfig] = None) -> "CampaignCache":
    """Return a process-wide campaign cache shared by the benchmark files.

    All ``benchmarks/bench_fig*.py`` modules run in the same pytest process;
    sharing one cache means the single-core campaign behind Figures 10-12 is
    simulated once and reused by the motivation figures (1, 2, 4, 5, 6).

    The pool is keyed by the (hashable, frozen) experiment configuration:
    callers asking for different configurations get different caches instead
    of silently receiving whichever configuration arrived first.  The pool
    never evicts (each cache pins its engine's trace/result memos for the
    process lifetime) -- it is meant for a handful of shared configurations
    like the benchmark harness; construct :class:`CampaignCache` directly
    when sweeping over many configurations programmatically.
    """
    resolved = config if config is not None else default_experiment_config()
    cache = _GLOBAL_CACHES.get(resolved)
    if cache is None:
        cache = _GLOBAL_CACHES[resolved] = CampaignCache(resolved)
    return cache


def quick_experiment_config() -> ExperimentConfig:
    """A much smaller configuration used by the test suite."""
    return ExperimentConfig(
        gap_workloads=("bfs.urand", "pr.urand"),
        spec_workloads=("spec.mcf_like", "spec.omnetpp_like"),
        memory_accesses=4_000,
        multicore_memory_accesses=2_500,
        l1d_prefetchers=("ipcp",),
        mixes_per_suite=1,
    )


class CampaignCache:
    """Caches traces and simulation results across experiment modules.

    A thin in-process memo (keyed by workload name / (workload, scheme,
    prefetcher)) layered on top of the :class:`~repro.sim.engine.
    CampaignEngine`, which adds the persistent on-disk result cache and the
    parallel fan-out.  The Figure 10, 11 and 12 harnesses, which all need
    the same single-core runs, simulate each configuration at most once per
    process -- and not at all when the engine's disk cache is warm.
    """

    def __init__(
        self,
        config: Optional[ExperimentConfig] = None,
        engine: Optional[CampaignEngine] = None,
        jobs: Optional[int] = None,
        use_result_cache: bool = True,
        trace_store=None,
        sim_core: Optional[str] = None,
    ) -> None:
        self.config = config if config is not None else default_experiment_config()
        if engine is None:
            engine = CampaignEngine(
                result_cache=ResultCache() if use_result_cache else None,
                jobs=jobs if jobs is not None else 1,
                trace_store=trace_store,
                sim_core=sim_core,
            )
        self.engine = engine
        self._single_core: dict[tuple, SingleCoreResult] = {}
        self._multi_core: dict[tuple, MultiCoreResult] = {}
        #: Point-key memo shared by the batch path and the per-point calls:
        #: a point simulated by any path is never re-requested from the
        #: engine by this cache, even with the persistent result cache off.
        self._by_key: dict[str, SingleCoreResult | MultiCoreResult] = {}

    # ------------------------------------------------------------------
    # Traces
    # ------------------------------------------------------------------
    def trace(self, workload: str, memory_accesses: Optional[int] = None) -> Trace:
        """Build (or reuse) the trace of a named workload.

        Delegates to the engine's trace memo so a trace built here is
        reused by in-process point execution rather than regenerated.
        """
        budget = (
            memory_accesses
            if memory_accesses is not None
            else self.config.memory_accesses
        )
        return self.engine.trace(workload, budget, self.config.gap_scale)

    # ------------------------------------------------------------------
    # Single-core runs
    # ------------------------------------------------------------------
    def _single_core_point(
        self,
        workload: str,
        scheme: str,
        l1d_prefetcher: str,
        budget: int,
        system: Optional[SystemConfig] = None,
    ) -> CampaignPoint:
        return single_core_point(
            workload,
            scheme,
            l1d_prefetcher,
            memory_accesses=budget,
            warmup_fraction=self.config.warmup_fraction,
            gap_scale=self.config.gap_scale,
            system=system,
            trace_store=self.engine.trace_store,
        )

    def single_core(
        self,
        workload: str,
        scheme: str,
        l1d_prefetcher: str = "ipcp",
        memory_accesses: Optional[int] = None,
        system: Optional[SystemConfig] = None,
    ) -> SingleCoreResult:
        """Run (or reuse) one single-core simulation."""
        budget = (
            memory_accesses
            if memory_accesses is not None
            else self.config.memory_accesses
        )
        # A custom system config participates in the memo key (the common
        # default-system path pays no serialization cost).
        system_token = (
            None
            if system is None
            else json.dumps(system_config_to_dict(system), sort_keys=True)
        )
        key = (workload, scheme, l1d_prefetcher, budget, system_token)
        if key not in self._single_core:
            point = self._single_core_point(
                workload, scheme, l1d_prefetcher, budget, system
            )
            result = self._by_key.get(point.key())
            if result is None:
                result = self.engine.run_point(point)
            self._single_core[key] = result
            self._record(point, result)
        return self._single_core[key]

    # ------------------------------------------------------------------
    # Multi-core runs
    # ------------------------------------------------------------------
    def multicore_mixes(self, suite: str) -> list[tuple[str, list[str]]]:
        """Multi-core mixes for one suite (half homogeneous, half random)."""
        return multicore_mixes(self.config, suite)

    def _multi_core_point(
        self,
        mix_name: str,
        workloads: list[str],
        scheme: str,
        l1d_prefetcher: str,
        per_core_bandwidth_gbps: float,
    ) -> CampaignPoint:
        return multi_core_point(
            mix_name,
            workloads,
            scheme,
            l1d_prefetcher,
            memory_accesses=self.config.multicore_memory_accesses,
            warmup_fraction=self.config.warmup_fraction,
            gap_scale=self.config.gap_scale,
            per_core_bandwidth_gbps=per_core_bandwidth_gbps,
            trace_store=self.engine.trace_store,
        )

    def multi_core(
        self,
        mix_name: str,
        workloads: list[str],
        scheme: str,
        l1d_prefetcher: str = "ipcp",
        per_core_bandwidth_gbps: float = 3.2,
    ) -> MultiCoreResult:
        """Run (or reuse) one multi-core mix simulation."""
        # The budget participates in the key so batch-executed sweeps with
        # a custom multi-core budget never satisfy this config-budget call.
        key = (
            mix_name,
            scheme,
            l1d_prefetcher,
            per_core_bandwidth_gbps,
            self.config.multicore_memory_accesses,
        )
        if key not in self._multi_core:
            point = self._multi_core_point(
                mix_name, workloads, scheme, l1d_prefetcher, per_core_bandwidth_gbps
            )
            result = self._by_key.get(point.key())
            if result is None:
                result = self.engine.run_point(point)
            self._multi_core[key] = result
            self._record(point, result)
        return self._multi_core[key]

    # ------------------------------------------------------------------
    # Campaign enumeration and parallel execution
    # ------------------------------------------------------------------
    def enumerate_points(
        self,
        schemes: Optional[tuple[str, ...]] = None,
        include_multicore: bool = False,
        per_core_bandwidth_gbps: float = 3.2,
    ) -> list[CampaignPoint]:
        """Enumerate every (workload, scheme, prefetcher) point up front.

        The single-core cross product always includes the baseline scheme
        (every figure normalises against it); multi-core mixes are appended
        when ``include_multicore`` is set.
        """
        selected = schemes if schemes is not None else COMPARISON_SCHEMES
        ordered_schemes = ("baseline",) + tuple(
            scheme for scheme in selected if scheme != "baseline"
        )
        points: list[CampaignPoint] = []
        for prefetcher in self.config.l1d_prefetchers:
            for scheme in ordered_schemes:
                for workload in self.config.workloads():
                    points.append(
                        self._single_core_point(
                            workload, scheme, prefetcher, self.config.memory_accesses
                        )
                    )
        if include_multicore:
            mixes = self.multicore_mixes("gap") + self.multicore_mixes("spec")
            for prefetcher in self.config.l1d_prefetchers:
                for scheme in ordered_schemes:
                    for mix_name, workloads in mixes:
                        points.append(
                            self._multi_core_point(
                                mix_name,
                                workloads,
                                scheme,
                                prefetcher,
                                per_core_bandwidth_gbps,
                            )
                        )
        return points

    def _record(
        self, point: CampaignPoint, result: SingleCoreResult | MultiCoreResult
    ) -> None:
        """Index ``result`` under every in-process memo the point maps to."""
        self._by_key[point.key()] = result
        if point.kind == "single_core":
            # Points carrying the default system land under the ``None``
            # system token :meth:`single_core` uses for its common path.
            system_token = (
                None
                if point.system_json == _default_single_core_system_json()
                else point.system_json
            )
            self._single_core[
                (
                    point.workloads[0],
                    point.scheme,
                    point.l1d_prefetcher,
                    point.memory_accesses,
                    system_token,
                )
            ] = result
        else:
            system = json.loads(point.system_json)
            per_core_gbps = (
                system["dram"]["bandwidth_gbps"] / max(1, system["num_cores"])
            )
            self._multi_core[
                (
                    point.mix_name,
                    point.scheme,
                    point.l1d_prefetcher,
                    per_core_gbps,
                    point.memory_accesses,
                )
            ] = result

    def run_points(
        self,
        points: Iterable[CampaignPoint],
        jobs: Optional[int] = None,
        progress=None,
    ) -> dict[str, SingleCoreResult | MultiCoreResult]:
        """Run a point batch through one engine fan-out, memo layered on top.

        The in-process memo filters out points this cache has already seen
        (any path: a previous batch, :meth:`single_core`, ...); only the
        remainder goes to :meth:`CampaignEngine.run`, which fans cache
        misses out across ``jobs`` worker processes and raises when a point
        fails.  Returns ``{point key: result}`` for every requested point
        and populates the semantic memos, so figure reducers and the legacy
        per-point calls all hit.
        """
        ordered: list[tuple[str, CampaignPoint]] = []
        seen: set[str] = set()
        for point in points:
            key = point.key()
            if key not in seen:
                seen.add(key)
                ordered.append((key, point))
        missing = [(key, point) for key, point in ordered if key not in self._by_key]
        if missing:
            fresh = self.engine.run(
                [point for _, point in missing], jobs=jobs, progress=progress
            )
            for key, point in missing:
                self._record(point, fresh[key])
        return {key: self._by_key[key] for key, _ in ordered}

    def run_campaign(
        self,
        schemes: Optional[tuple[str, ...]] = None,
        include_multicore: bool = False,
        jobs: Optional[int] = None,
    ) -> int:
        """Simulate the whole campaign, fanning points out across ``jobs``.

        Populates the in-memory memos so subsequent :meth:`single_core` /
        :meth:`multi_core` calls are hits.  Returns the number of points.
        """
        points = self.enumerate_points(schemes, include_multicore=include_multicore)
        return len(self.run_points(points, jobs=jobs))


@lru_cache(maxsize=1)
def _default_single_core_system_json() -> str:
    """Canonical JSON of the default single-core system (memo-token probe)."""
    return json.dumps(
        system_config_to_dict(cascade_lake_single_core()), sort_keys=True
    )


# ----------------------------------------------------------------------
# Aggregation helpers
# ----------------------------------------------------------------------
def geomean_speedup_percent(
    ipcs: Iterable[float], baseline_ipcs: Iterable[float]
) -> float:
    """Geometric-mean speedup in percent over paired baselines."""
    ratios = [ipc / base for ipc, base in zip(ipcs, baseline_ipcs)]
    if not ratios:
        return 0.0
    return 100.0 * (geometric_mean(ratios) - 1.0)


def average_percent_change(values: Iterable[float], baselines: Iterable[float]) -> float:
    """Arithmetic mean of per-pair percentage changes."""
    changes = [
        100.0 * (value - base) / base
        for value, base in zip(values, baselines)
        if base > 0
    ]
    if not changes:
        return 0.0
    return sum(changes) / len(changes)


def format_rows(headers: list[str], rows: list[list]) -> str:
    """Render a small fixed-width text table."""
    widths = [len(header) for header in headers]
    rendered_rows = []
    for row in rows:
        rendered = [
            f"{value:.2f}" if isinstance(value, float) else str(value) for value in row
        ]
        rendered_rows.append(rendered)
        widths = [max(width, len(cell)) for width, cell in zip(widths, rendered)]
    lines = [
        "  ".join(header.ljust(width) for header, width in zip(headers, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for rendered in rendered_rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(rendered, widths)))
    return "\n".join(lines)
