"""Figures 3, 13 and 14: the multi-core evaluation campaign.

The campaign runs every (mix, scheme) combination on the 4-core system with
3.2 GB/s of DRAM bandwidth per core and reports:

* Figure 3  -- increase in DRAM transactions caused by Hermes over the
  baseline (the motivation figure, multi-core counterpart of Figure 2);
* Figure 13 -- normalised weighted speedup of PPF / Hermes / Hermes+PPF /
  TLP over the baseline;
* Figure 14 -- increase in DRAM transactions of the same four schemes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.experiments.common import (
    COMPARISON_SCHEMES,
    ExperimentConfig,
    compare_mixes,
    format_rows,
)
from repro.experiments.spec import (
    Claim,
    ExperimentSpec,
    MultiCoreSweep,
    SweepResults,
    SweepSpec,
    ref,
    register,
)


@dataclass
class MultiCoreCampaignResult:
    """All the numbers behind Figures 3, 13 and 14."""

    #: prefetcher -> scheme -> mix -> normalised weighted speedup (percent).
    speedups: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)
    #: prefetcher -> scheme -> geometric-mean speedup (percent).
    geomean_speedup: dict[str, dict[str, float]] = field(default_factory=dict)
    #: prefetcher -> scheme -> mix -> DRAM transaction change (percent).
    dram_change: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)
    #: prefetcher -> scheme -> average DRAM change (percent).
    average_dram_change: dict[str, dict[str, float]] = field(default_factory=dict)


def sweep(
    config: ExperimentConfig,
    schemes: tuple[str, ...] = COMPARISON_SCHEMES,
    l1d_prefetchers: Optional[tuple[str, ...]] = None,
    per_core_bandwidth_gbps: float = 3.2,
) -> SweepSpec:
    """Every mix under baseline + ``schemes``, plus the isolated baselines."""
    return SweepSpec(
        multi_core=(
            MultiCoreSweep(
                schemes=("baseline",) + tuple(schemes),
                l1d_prefetchers=l1d_prefetchers,
                per_core_bandwidths=(per_core_bandwidth_gbps,),
            ),
        )
    )


def reduce(
    config: ExperimentConfig,
    results: SweepResults,
    schemes: tuple[str, ...] = COMPARISON_SCHEMES,
    l1d_prefetchers: Optional[tuple[str, ...]] = None,
    per_core_bandwidth_gbps: float = 3.2,
) -> MultiCoreCampaignResult:
    """Fold the multi-core campaign into the Figure 3/13/14 numbers."""
    prefetchers = (
        l1d_prefetchers if l1d_prefetchers is not None else config.l1d_prefetchers
    )
    result = MultiCoreCampaignResult()
    for prefetcher in prefetchers:
        comparison = compare_mixes(
            config, results, schemes, prefetcher, per_core_bandwidth_gbps
        )
        result.speedups[prefetcher] = comparison.speedups
        result.geomean_speedup[prefetcher] = comparison.geomean_speedup
        result.dram_change[prefetcher] = comparison.dram_change
        result.average_dram_change[prefetcher] = comparison.average_dram_change
    return result


def format_table(result: MultiCoreCampaignResult) -> str:
    """Render geomean weighted speedups and DRAM changes per scheme."""
    rows = []
    for prefetcher, schemes in result.geomean_speedup.items():
        for scheme, speedup in schemes.items():
            rows.append(
                [
                    f"{scheme}/{prefetcher}",
                    speedup,
                    result.average_dram_change[prefetcher][scheme],
                ]
            )
    return format_rows(
        ["scheme", "geomean weighted speedup (%)", "avg DRAM change (%)"], rows
    )


SPEC = register(
    ExperimentSpec(
        name="fig13",
        title="Figures 3/13/14: multi-core evaluation (3.2 GB/s per core)",
        build_sweep=sweep,
        reduce=reduce,
        format_table=format_table,
        claims=(
            Claim(ref("average_dram_change", "ipcp", "hermes"), ">", -1.0),
            Claim(ref("geomean_speedup", "ipcp", "tlp"), ">=",
                  ref("geomean_speedup", "ipcp", "hermes", offset=-1.0)),
            *(Claim(ref("average_dram_change", "ipcp", "tlp"), "<=",
                    ref("average_dram_change", "ipcp", scheme))
              for scheme in ("hermes", "hermes_ppf")),
        ),
    )
)

