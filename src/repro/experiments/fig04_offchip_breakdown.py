"""Figure 4: location of the block when Hermes makes an off-chip prediction.

The paper categorises Hermes' positive predictions by where the requested
block actually resides (L1D, L2C, LLC or DRAM).  Predictions whose block is
on-chip are wasted DRAM transactions; the observation that a large fraction
of them are served by the L1D motivates FLP's selective delay mechanism.
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

_LEVELS = ("L1D", "L2C", "LLC", "DRAM")


@dataclass
class Figure4Result:
    """Prediction-location shares, per workload and aggregated."""

    per_workload: dict[str, dict[str, float]] = field(default_factory=dict)
    per_suite: dict[str, dict[str, float]] = field(default_factory=dict)
    overall: dict[str, float] = field(default_factory=dict)


def _shares(counts: dict[str, int]) -> dict[str, float]:
    total = sum(counts.get(level, 0) for level in _LEVELS)
    if total == 0:
        return {level: 0.0 for level in _LEVELS}
    return {level: 100.0 * counts.get(level, 0) / total for level in _LEVELS}


def sweep(config: ExperimentConfig) -> SweepSpec:
    """Hermes on every workload, IPCP L1D prefetcher."""
    return SweepSpec(
        single_core=(
            SingleCoreSweep(schemes=("hermes",), l1d_prefetchers=("ipcp",)),
        )
    )


def reduce(config: ExperimentConfig, results: SweepResults) -> Figure4Result:
    """Break Hermes' off-chip predictions down by block location."""
    result = Figure4Result()
    suite_names = ("spec", "gap") + (
        ("imported",) if config.imported_workloads else ()
    )
    suite_counts: dict[str, dict[str, int]] = {
        suite: {level: 0 for level in _LEVELS} for suite in suite_names
    }
    for workload in config.workloads():
        hermes = results.single_core(workload, "hermes", "ipcp")
        counts = hermes.offchip_prediction_location
        result.per_workload[workload] = _shares(counts)
        suite = config.suite_of(workload)
        for level in _LEVELS:
            suite_counts[suite][level] += counts.get(level, 0)
    for suite, counts in suite_counts.items():
        result.per_suite[suite] = _shares(counts)
    total_counts = {
        level: sum(counts[level] for counts in suite_counts.values())
        for level in _LEVELS
    }
    result.overall = _shares(total_counts)
    return result


def format_table(result: Figure4Result) -> str:
    """Render the location shares as percentages."""
    rows = []
    for workload, shares in sorted(result.per_workload.items()):
        rows.append([workload] + [shares[level] for level in _LEVELS])
    for suite, shares in sorted(result.per_suite.items()):
        rows.append([f"<avg {suite}>"] + [shares[level] for level in _LEVELS])
    rows.append(["<avg all>"] + [result.overall[level] for level in _LEVELS])
    return format_rows(["workload"] + [f"{level} (%)" for level in _LEVELS], rows)


SPEC = register(
    ExperimentSpec(
        name="fig04",
        title="Figure 4: block location upon a Hermes off-chip prediction",
        build_sweep=sweep,
        reduce=reduce,
        format_table=format_table,
        claims=(
            Claim(ref("overall", "DRAM"), ">", 40.0),
            Claim(Ref(tuple(("overall", level) for level in _LEVELS[:3])), ">", 5.0),
        ),
    )
)

