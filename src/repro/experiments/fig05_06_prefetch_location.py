"""Figures 5 and 6: where L1D prefetches are served, split by accuracy.

Figure 5 shows the *inaccurate* L1D prefetches (PPKI) of IPCP and Berti by
the level that served them (L2C, LLC, DRAM); Figure 6 shows the *accurate*
ones.  The paper's observation -- the vast majority of DRAM-served L1D
prefetches are inaccurate -- is what justifies using off-chip prediction as
a prefetch filter (SLP); ``SPEC.claims`` checks it for IPCP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import ExperimentConfig, format_rows
from repro.experiments.spec import (
    Claim,
    ExperimentSpec,
    Ref,
    SingleCoreSweep,
    SweepResults,
    SweepSpec,
    ref,
    register,
)

_LEVELS = ("L2C", "LLC", "DRAM")


@dataclass
class PrefetchLocationResult:
    """Accurate/inaccurate prefetch PPKI by serving level and prefetcher."""

    #: prefetcher -> workload -> level -> PPKI
    inaccurate: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)
    accurate: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)
    #: prefetcher -> level -> average PPKI
    inaccurate_average: dict[str, dict[str, float]] = field(default_factory=dict)
    accurate_average: dict[str, dict[str, float]] = field(default_factory=dict)
    #: prefetcher -> fraction of DRAM-served prefetches that are inaccurate
    dram_inaccuracy_ratio: dict[str, float] = field(default_factory=dict)


def sweep(config: ExperimentConfig) -> SweepSpec:
    """Baseline scheme on every workload under every configured prefetcher."""
    return SweepSpec(single_core=(SingleCoreSweep(schemes=("baseline",)),))


def reduce(
    config: ExperimentConfig, results: SweepResults
) -> PrefetchLocationResult:
    """Measure prefetch-serving locations in the baseline system."""
    result = PrefetchLocationResult()
    for prefetcher in config.l1d_prefetchers:
        result.inaccurate[prefetcher] = {}
        result.accurate[prefetcher] = {}
        totals_inaccurate = {level: 0.0 for level in _LEVELS}
        totals_accurate = {level: 0.0 for level in _LEVELS}
        dram_inaccurate = 0
        dram_total = 0
        workloads = config.workloads()
        for workload in workloads:
            run_result = results.single_core(workload, "baseline", prefetcher)
            inaccurate = {
                level: run_result.inaccurate_prefetch_ppki(level) for level in _LEVELS
            }
            accurate = {
                level: run_result.accurate_prefetch_ppki(level) for level in _LEVELS
            }
            result.inaccurate[prefetcher][workload] = inaccurate
            result.accurate[prefetcher][workload] = accurate
            for level in _LEVELS:
                totals_inaccurate[level] += inaccurate[level]
                totals_accurate[level] += accurate[level]
            dram_inaccurate += run_result.inaccurate_prefetch_source.get("DRAM", 0)
            dram_total += run_result.inaccurate_prefetch_source.get(
                "DRAM", 0
            ) + run_result.accurate_prefetch_source.get("DRAM", 0)
        count = max(1, len(workloads))
        result.inaccurate_average[prefetcher] = {
            level: totals_inaccurate[level] / count for level in _LEVELS
        }
        result.accurate_average[prefetcher] = {
            level: totals_accurate[level] / count for level in _LEVELS
        }
        result.dram_inaccuracy_ratio[prefetcher] = (
            dram_inaccurate / dram_total if dram_total else 0.0
        )
    return result


def format_table(result: PrefetchLocationResult) -> str:
    """Render the average accurate/inaccurate PPKI per level and prefetcher."""
    rows = []
    for prefetcher in result.inaccurate_average:
        inaccurate = result.inaccurate_average[prefetcher]
        accurate = result.accurate_average[prefetcher]
        rows.append(
            [f"{prefetcher} inaccurate"] + [inaccurate[level] for level in _LEVELS]
        )
        rows.append([f"{prefetcher} accurate"] + [accurate[level] for level in _LEVELS])
        rows.append(
            [
                f"{prefetcher} DRAM-served inaccuracy",
                100.0 * result.dram_inaccuracy_ratio[prefetcher],
                0.0,
                0.0,
            ]
        )
    return format_rows(["series"] + [f"{level} PPKI" for level in _LEVELS], rows)


SPEC = register(
    ExperimentSpec(
        name="fig05",
        title="Figures 5/6: L1D prefetch serving location by accuracy",
        build_sweep=sweep,
        reduce=reduce,
        format_table=format_table,
        claims=(
            *(Claim(Ref(tuple(("inaccurate_average", prefetcher, level)
                              for level in _LEVELS)), ">=", 0.0)
              for prefetcher in ExperimentConfig.l1d_prefetchers),
            Claim(ref("dram_inaccuracy_ratio", "ipcp"), ">", 0.3),
            *(Claim(ref("accurate_average", prefetcher, level), ">=", 0.0)
              for prefetcher in ExperimentConfig.l1d_prefetchers for level in _LEVELS),
        ),
    )
)

