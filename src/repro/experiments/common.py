"""Shared infrastructure for the experiment harnesses.

The paper's campaigns run 55 single-core workloads and 200 four-core mixes
for 100M+100M instructions each on a cluster.  The reproduction keeps the
same structure but scales the workload count and trace length down to what a
pure-Python simulator can run in minutes; the *relative* comparisons between
schemes are what the figures check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.experiments.spec import MultiCoreSweep, SweepResults
from repro.sim.engine import CampaignEngine, CampaignPoint
from repro.sim.multi_core import MultiCoreResult
from repro.sim.result_cache import ResultCache
from repro.sim.results import SingleCoreResult
from repro.stats.metrics import geometric_mean, percent_change, weighted_speedup

#: Default single-core workload selection: four GAP kernel/graph pairs and
#: four SPEC-like workloads, picked by hand.  Not all of them are
#: memory-intensive: at the default configuration Figure 1 reports 0.00 LLC
#: MPKI for ``cc.road`` and ``spec.lbm_like``.  Choosing them by a stated
#: rule is ROADMAP open item 2.
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
    """The full-scale configuration: every figure spec's claims hold at it."""
    return ExperimentConfig()


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
    """Caches simulation results across experiment modules.

    One in-process memo, keyed by point key, layered on top of the
    :class:`~repro.sim.engine.CampaignEngine`, which adds the trace memo,
    the persistent on-disk result cache and the parallel fan-out.
    :meth:`run_points` is its one way in: every batch (a sweep, a figure,
    several figures) goes through it, so a process simulates each point at
    most once -- and not at all when the engine's disk cache is warm.
    Results are read back by point key, or semantically through a
    :class:`~repro.experiments.spec.SweepResults` view.
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
        self._by_key: dict[str, SingleCoreResult | MultiCoreResult] = {}

    def run_points(
        self,
        points: Iterable[CampaignPoint],
        jobs: Optional[int] = None,
        progress=None,
    ) -> dict[str, SingleCoreResult | MultiCoreResult]:
        """Run a point batch through one engine fan-out, memo layered on top.

        The in-process memo filters out points this cache has already seen
        in a previous batch; only the remainder goes to
        :meth:`CampaignEngine.run`, which fans cache misses out across
        ``jobs`` worker processes and raises when a point fails.
        Returns ``{point key: result}`` for every requested point.
        """
        ordered: dict[str, CampaignPoint] = {}
        for point in points:
            ordered.setdefault(point.key(), point)
        missing = [point for key, point in ordered.items() if key not in self._by_key]
        if missing:
            self._by_key.update(
                self.engine.run(missing, jobs=jobs, progress=progress)
            )
        return {key: self._by_key[key] for key in ordered}


def campaign_for(
    config: Optional[ExperimentConfig],
    cache: Optional[CampaignCache],
    **kwargs,
) -> CampaignCache:
    """``cache`` when given, else a new ``CampaignCache(config, **kwargs)``.

    A ``cache`` runs every point at its own configuration, so a ``config``
    given alongside it must equal ``cache.config``; a different one raises
    ``ValueError`` rather than being silently ignored.
    """
    if cache is None:
        return CampaignCache(config, **kwargs)
    if config is not None and config != cache.config:
        raise ValueError(
            f"config {config!r} differs from the given cache's config "
            f"{cache.config!r}; pass one or the other"
        )
    return cache


# ----------------------------------------------------------------------
# Aggregation helpers
# ----------------------------------------------------------------------
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


@dataclass
class MixComparison:
    """Every scheme against the baseline design on the multi-core mixes."""

    #: scheme -> mix -> normalised weighted speedup (percent).
    speedups: dict[str, dict[str, float]]
    #: scheme -> geometric-mean normalised weighted speedup (percent).
    geomean_speedup: dict[str, float]
    #: scheme -> mix -> DRAM transaction change (percent).
    dram_change: dict[str, dict[str, float]]
    #: scheme -> average DRAM transaction change (percent).
    average_dram_change: dict[str, float]


def compare_mixes(
    config: ExperimentConfig,
    results: SweepResults,
    schemes: tuple[str, ...],
    l1d_prefetcher: str,
    per_core_bandwidth_gbps: float = 3.2,
) -> MixComparison:
    """Fold every configured mix under ``schemes`` against the baseline.

    Isolated IPCs (baseline scheme, single core, multi-core budget) are the
    denominators of each weighted speedup; the paper normalises a scheme's
    weighted IPC to the baseline design's weighted IPC on the same mix.
    """
    speedups: dict[str, dict[str, float]] = {scheme: {} for scheme in schemes}
    dram_change: dict[str, dict[str, float]] = {scheme: {} for scheme in schemes}
    ratios: dict[str, list[float]] = {scheme: [] for scheme in schemes}
    dram_values: dict[str, tuple[list[float], list[float]]] = {
        scheme: ([], []) for scheme in schemes
    }
    for mix_name, workloads in MultiCoreSweep().resolved_mixes(config):
        isolated = [
            results.single_core(
                workload,
                "baseline",
                l1d_prefetcher,
                memory_accesses=config.multicore_memory_accesses,
            ).ipc
            for workload in workloads
        ]
        baseline_mix = results.multi_core(
            mix_name, workloads, "baseline", l1d_prefetcher, per_core_bandwidth_gbps
        )
        baseline_ws = weighted_speedup(baseline_mix.ipcs, isolated)
        for scheme in schemes:
            scheme_mix = results.multi_core(
                mix_name, workloads, scheme, l1d_prefetcher, per_core_bandwidth_gbps
            )
            scheme_ws = weighted_speedup(scheme_mix.ipcs, isolated)
            normalised = scheme_ws / baseline_ws if baseline_ws > 0 else 1.0
            speedups[scheme][mix_name] = 100.0 * (normalised - 1.0)
            ratios[scheme].append(normalised)
            dram_change[scheme][mix_name] = percent_change(
                scheme_mix.dram_transactions, baseline_mix.dram_transactions
            )
            values, bases = dram_values[scheme]
            values.append(scheme_mix.dram_transactions)
            bases.append(baseline_mix.dram_transactions)
    return MixComparison(
        speedups=speedups,
        geomean_speedup={
            scheme: 100.0 * (geometric_mean(values) - 1.0) if values else 0.0
            for scheme, values in ratios.items()
        },
        dram_change=dram_change,
        average_dram_change={
            scheme: average_percent_change(values, bases)
            for scheme, (values, bases) in dram_values.items()
        },
    )


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
