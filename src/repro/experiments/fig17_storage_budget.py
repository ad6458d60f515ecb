"""Figure 17: designs enhanced with TLP's storage budget.

The paper checks whether simply giving the baseline prefetcher or Hermes an
extra ~7KB of state (TLP's budget) closes the gap: it does not
(``SPEC.claims``).  This module compares ``prefetcher_7kb`` (enlarged
IPCP/Berti tables), ``hermes_7kb`` (doubled Hermes weight tables) and
``tlp`` on the single-core campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import fig10_12_singlecore
from repro.experiments.common import ExperimentConfig, format_rows
from repro.experiments.spec import (
    Claim,
    ExperimentSpec,
    SweepResults,
    SweepSpec,
    ref,
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
    return fig10_12_singlecore.sweep(config, schemes)


def reduce(
    config: ExperimentConfig,
    results: SweepResults,
    schemes: tuple[str, ...] = STORAGE_SCHEMES,
) -> Figure17Result:
    """The +7KB designs' geomean speedups, folded as Figure 10 folds its schemes."""
    campaign = fig10_12_singlecore.reduce(config, results, schemes)
    return Figure17Result(geomean_speedup=campaign.geomean_speedup)


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
        claims=tuple(
            Claim(ref("geomean_speedup", prefetcher, "tlp"), ">=",
                  ref("geomean_speedup", prefetcher, "hermes_7kb", offset=-1.0))
            for prefetcher in ExperimentConfig.l1d_prefetchers
        ),
    )
)

