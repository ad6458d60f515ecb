"""Figure 17: designs enhanced with TLP's storage budget.

The paper checks whether simply giving the baseline prefetcher or Hermes an
extra ~7KB of state (TLP's budget) closes the gap: it does not.  The harness
compares ``prefetcher_7kb`` (enlarged IPCP/Berti tables), ``hermes_7kb``
(doubled Hermes weight tables) and ``tlp`` on the single-core campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import (
    ExperimentConfig,
    format_rows,
    geomean_speedup_percent,
)
from repro.experiments.spec import (
    ExperimentSpec,
    SingleCoreSweep,
    SweepResults,
    SweepSpec,
    register,
)

#: The designs compared in Figure 17.
STORAGE_SCHEMES = ("prefetcher_7kb", "hermes_7kb", "tlp")


@dataclass
class Figure17Result:
    """Geomean speedups of the +7KB designs per prefetcher."""

    geomean_speedup: dict[str, dict[str, float]] = field(default_factory=dict)


def sweep(
    config: ExperimentConfig, schemes: tuple[str, ...] = STORAGE_SCHEMES
) -> SweepSpec:
    """Baseline plus the +7KB designs on every workload and prefetcher."""
    return SweepSpec(
        single_core=(SingleCoreSweep(schemes=("baseline",) + tuple(schemes)),)
    )


def reduce(
    config: ExperimentConfig,
    results: SweepResults,
    schemes: tuple[str, ...] = STORAGE_SCHEMES,
) -> Figure17Result:
    """Fold the storage-budget comparison into geomean speedups."""
    workloads = config.workloads()
    result = Figure17Result()
    for prefetcher in config.l1d_prefetchers:
        baseline_ipcs = [
            results.single_core(workload, "baseline", prefetcher).ipc
            for workload in workloads
        ]
        result.geomean_speedup[prefetcher] = {}
        for scheme in schemes:
            scheme_ipcs = [
                results.single_core(workload, scheme, prefetcher).ipc
                for workload in workloads
            ]
            result.geomean_speedup[prefetcher][scheme] = geomean_speedup_percent(
                scheme_ipcs, baseline_ipcs
            )
    return result


def format_table(result: Figure17Result) -> str:
    """Render the geomean speedup of each +7KB design."""
    rows = []
    for prefetcher, schemes in result.geomean_speedup.items():
        for scheme, speedup in schemes.items():
            rows.append([f"{scheme}/{prefetcher}", speedup])
    return format_rows(["design", "geomean speedup (%)"], rows)


SPEC = register(
    ExperimentSpec(
        name="fig17",
        title="Figure 17: designs enhanced with TLP's 7KB storage budget",
        build_sweep=sweep,
        reduce=reduce,
        format_table=format_table,
    )
)

