"""Figure 16: sensitivity of the multi-core results to DRAM bandwidth.

The paper sweeps the per-core DRAM data rate from 1.6 GB/s to 25.6 GB/s and
shows that (a) TLP's performance advantage is largest when bandwidth is
scarce and shrinks (but persists) as bandwidth grows, and (b) TLP reduces
DRAM transactions at every bandwidth point while the other schemes increase
them.  ``SPEC.claims`` checks (b) against Hermes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

#: Per-core bandwidth points of the paper's sweep (GB/s).
DEFAULT_BANDWIDTHS = (1.6, 3.2, 6.4, 12.8, 25.6)


@dataclass
class Figure16Result:
    """Geomean speedups and DRAM changes per scheme and bandwidth point."""

    #: bandwidth -> scheme -> geomean weighted speedup (percent).
    speedup: dict[float, dict[str, float]] = field(default_factory=dict)
    #: bandwidth -> scheme -> average DRAM transaction change (percent).
    dram_change: dict[float, dict[str, float]] = field(default_factory=dict)


def sweep(
    config: ExperimentConfig,
    bandwidths: tuple[float, ...] = DEFAULT_BANDWIDTHS,
    schemes: tuple[str, ...] = COMPARISON_SCHEMES,
    l1d_prefetcher: str = "ipcp",
) -> SweepSpec:
    """Every mix x (baseline + schemes) x bandwidth point."""
    return SweepSpec(
        multi_core=(
            MultiCoreSweep(
                schemes=("baseline",) + tuple(schemes),
                l1d_prefetchers=(l1d_prefetcher,),
                per_core_bandwidths=tuple(bandwidths),
            ),
        )
    )


def reduce(
    config: ExperimentConfig,
    results: SweepResults,
    bandwidths: tuple[float, ...] = DEFAULT_BANDWIDTHS,
    schemes: tuple[str, ...] = COMPARISON_SCHEMES,
    l1d_prefetcher: str = "ipcp",
) -> Figure16Result:
    """Fold the bandwidth sweep into per-point speedups and DRAM changes."""
    result = Figure16Result()
    for bandwidth in bandwidths:
        comparison = compare_mixes(config, results, schemes, l1d_prefetcher, bandwidth)
        result.speedup[bandwidth] = comparison.geomean_speedup
        result.dram_change[bandwidth] = comparison.average_dram_change
    return result


def format_table(result: Figure16Result) -> str:
    """Render the sweep as one row per (bandwidth, scheme)."""
    rows = []
    for bandwidth in sorted(result.speedup):
        for scheme, speedup in result.speedup[bandwidth].items():
            rows.append(
                [
                    f"{bandwidth:g} GB/s",
                    scheme,
                    speedup,
                    result.dram_change[bandwidth][scheme],
                ]
            )
    return format_rows(
        ["bandwidth/core", "scheme", "geomean speedup (%)", "avg DRAM change (%)"], rows
    )


SPEC = register(
    ExperimentSpec(
        name="fig16",
        title="Figure 16: DRAM bandwidth sensitivity (multi-core, IPCP)",
        build_sweep=sweep,
        reduce=reduce,
        format_table=format_table,
        claims=tuple(
            Claim(ref("dram_change", bandwidth, "tlp"), "<=",
                  ref("dram_change", bandwidth, "hermes", offset=1.0))
            for bandwidth in DEFAULT_BANDWIDTHS
        ),
    )
)

