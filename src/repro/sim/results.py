"""Result containers produced by the simulation drivers.

The result types are plain data: this module imports no simulator
component (the functions that read a hierarchy are handed one), so
caching and reducing results never loads the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.common.types import MemLevel
from repro.stats.metrics import accuracy, mpki, ppki, weighted_speedup

if TYPE_CHECKING:
    from repro.memory.hierarchy import MemoryHierarchy


@dataclass
class SingleCoreResult:
    """Everything measured by one single-core simulation run."""

    workload: str
    scenario: str
    instructions: int
    cycles: float
    ipc: float
    average_load_latency: float
    dram_transactions: int
    dram_transactions_by_source: dict[str, int]
    mpki_by_level: dict[str, float]
    l1d_prefetches_issued: int
    l1d_prefetches_filtered: int
    l1d_prefetch_accuracy: float
    useful_l1d_prefetches: int
    useless_l1d_prefetches: int
    accurate_prefetch_source: dict[str, int]
    inaccurate_prefetch_source: dict[str, int]
    offchip_prediction_location: dict[str, int]
    speculative_requests: int
    delayed_predictions_saved: int
    served_by: dict[str, int]
    extra: dict = field(default_factory=dict)

    def accurate_prefetch_ppki(self, level: MemLevel | str) -> float:
        """Accurate L1D prefetches per kilo instruction served by ``level``."""
        key = level.name if isinstance(level, MemLevel) else level
        return ppki(self.accurate_prefetch_source.get(key, 0), self.instructions)

    def inaccurate_prefetch_ppki(self, level: MemLevel | str) -> float:
        """Inaccurate L1D prefetches per kilo instruction served by ``level``."""
        key = level.name if isinstance(level, MemLevel) else level
        return ppki(self.inaccurate_prefetch_source.get(key, 0), self.instructions)


@dataclass
class MultiCoreResult:
    """Outcome of one multi-core mix simulation."""

    mix_name: str
    scenario: str
    workloads: list[str]
    ipcs: list[float]
    instructions: list[int]
    dram_transactions: int
    dram_transactions_by_source: dict[str, int]
    per_core_dram_demand: list[int] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def weighted_speedup(self, single_core_ipcs: list[float]) -> float:
        """Weighted speedup against per-workload isolated IPCs."""
        return weighted_speedup(self.ipcs, single_core_ipcs)


def collect_single_core_result(
    workload: str,
    scenario: str,
    instructions: int,
    cycles: float,
    average_load_latency: float,
    hierarchy: MemoryHierarchy,
) -> SingleCoreResult:
    """Snapshot a hierarchy's statistics into a :class:`SingleCoreResult`."""
    stats = hierarchy.stats
    dram_stats = hierarchy.dram.stats
    mpki_by_level = {
        "L1D": mpki(hierarchy.l1d.stats.demand_misses, instructions),
        "L2C": mpki(hierarchy.l2c.stats.demand_misses, instructions),
        "LLC": mpki(hierarchy.llc.stats.demand_misses, instructions),
    }
    return SingleCoreResult(
        workload=workload,
        scenario=scenario,
        instructions=instructions,
        cycles=cycles,
        ipc=instructions / cycles if cycles > 0 else 0.0,
        average_load_latency=average_load_latency,
        dram_transactions=dram_stats.total_transactions,
        dram_transactions_by_source=dram_stats.by_source(),
        mpki_by_level=mpki_by_level,
        l1d_prefetches_issued=stats.l1d_prefetches_issued,
        l1d_prefetches_filtered=stats.l1d_prefetches_filtered,
        l1d_prefetch_accuracy=accuracy(
            stats.useful_l1d_prefetches, stats.useless_l1d_prefetches
        ),
        useful_l1d_prefetches=stats.useful_l1d_prefetches,
        useless_l1d_prefetches=stats.useless_l1d_prefetches,
        accurate_prefetch_source=_by_level_name(stats.accurate_prefetch_source),
        inaccurate_prefetch_source=_by_level_name(stats.inaccurate_prefetch_source),
        offchip_prediction_location=_by_level_name(stats.offchip_prediction_location),
        speculative_requests=stats.speculative_requests,
        delayed_predictions_saved=stats.delayed_predictions_saved,
        served_by=_by_level_name(stats.served_by),
    )


def _by_level_name(counts) -> dict[str, int]:
    """A per-level counter group as a plain ``{level name: count}`` dict."""
    return {level.name: count for level, count in counts.items()}


def check_invariants(result, hierarchies=()) -> list[str]:
    """Conservation laws ``result`` breaks (empty when it is consistent).

    ``hierarchies``, the hierarchies that produced ``result`` (one per
    core), add the per-core checks, every perceptron weight within its
    saturation limits among them.  Both must be finalized: then no L1D
    prefetch is pending, so every issued one was counted useful or useless.
    """
    by_source = sum(result.dram_transactions_by_source.values())
    problems = [] if by_source == result.dram_transactions else [
        f"DRAM total {result.dram_transactions} != sum by source {by_source}"
    ]
    counters = [("", result)] if isinstance(result, SingleCoreResult) else []
    for core_id, hierarchy in enumerate(hierarchies):
        stats = hierarchy.stats
        counters.append((f"core {core_id}: ", stats))
        served = sum(stats.served_by.values())
        demand = stats.demand_loads + stats.demand_stores
        if served != demand:
            problems.append(f"core {core_id}: served_by sums to {served}, not {demand}")
        for level in ("l1d", "l2c"):
            candidates = getattr(stats, f"{level}_prefetch_candidates")
            fates = sum(
                getattr(stats, f"{level}_prefetches_{fate}")
                for fate in ("dropped_resident", "filtered", "dropped_queue_full", "issued")
            )
            if candidates != fates:
                problems.append(
                    f"core {core_id}: {level.upper()} prefetch candidates "
                    f"{candidates} != dropped + filtered + issued {fates}"
                )
        for level, served in stats.l1d_prefetch_served_by.items():
            resolved = stats.accurate_prefetch_source[level]
            resolved += stats.inaccurate_prefetch_source[level]
            if resolved != served:
                problems.append(
                    f"core {core_id}: accurate + inaccurate {level.name} L1D "
                    f"prefetches {resolved} != served {served}"
                )
        for cache in (hierarchy.l1d, hierarchy.l2c, hierarchy.llc):
            c = cache.stats
            if c.demand_hits + c.demand_misses != c.demand_accesses:
                problems.append(
                    f"core {core_id}: {cache.name} hits {c.demand_hits} + "
                    f"misses {c.demand_misses} != {c.demand_accesses}"
                )
        for table, weights, (low, high) in _weight_tables(hierarchy):
            weights = np.asarray(weights)
            if len(weights) and (weights.min() < low or weights.max() > high):
                problems.append(
                    f"core {core_id}: {table} weights span "
                    f"[{weights.min()}, {weights.max()}], outside [{low}, {high}]"
                )
    for label, c in counters:
        resolved = c.useful_l1d_prefetches + c.useless_l1d_prefetches
        if resolved != c.l1d_prefetches_issued:
            problems.append(
                f"{label}useful + useless L1D prefetches {resolved} != "
                f"issued {c.l1d_prefetches_issued}"
            )
    return problems


def _weight_tables(hierarchy: MemoryHierarchy) -> list[tuple]:
    """``(label, weights, (min, max))`` of each perceptron weight table of
    ``hierarchy``: FLP and SLP per feature, PPF as one table (its nine
    tables share their limits)."""
    from repro.predictors.perceptron import HashedPerceptron

    tables = []
    for role in ("offchip_predictor", "l1d_prefetch_filter"):
        component = getattr(hierarchy, role)
        perceptron = getattr(component, "perceptron", None)
        if isinstance(perceptron, HashedPerceptron):
            for spec, table, limits in zip(
                perceptron.features, perceptron._tables, perceptron._weight_limits
            ):
                tables.append((
                    f"{type(component).__name__} {spec.name}", table, limits,
                ))
    ppf = getattr(hierarchy.l2_prefetch_filter, "perceptron", None)
    if isinstance(ppf, HashedPerceptron):
        tables.append(("PPF", ppf._weights, ppf._weight_limits[0]))
    return tables
