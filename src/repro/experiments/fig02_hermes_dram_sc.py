"""Figure 2: increase in DRAM transactions due to Hermes (single-core).

The paper shows that Hermes' speculative DRAM requests increase the number
of DRAM transactions over a baseline with no off-chip predictor (5-7% on
average), especially for GAP workloads.  ``SPEC.claims`` checks only an
increase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import (
    ExperimentConfig,
    average_percent_change,
    format_rows,
)
from repro.experiments.spec import (
    Claim,
    ExperimentSpec,
    SingleCoreSweep,
    SweepResults,
    SweepSpec,
    ref,
    register,
)
from repro.stats.metrics import percent_change


@dataclass
class Figure2Result:
    """Per-workload and per-suite DRAM transaction increases (percent)."""

    per_workload: dict[str, float] = field(default_factory=dict)
    per_suite: dict[str, float] = field(default_factory=dict)
    overall: float = 0.0


def sweep(config: ExperimentConfig, scheme: str = "hermes") -> SweepSpec:
    """Baseline and ``scheme`` on every workload, IPCP L1D prefetcher."""
    return SweepSpec(
        single_core=(
            SingleCoreSweep(schemes=("baseline", scheme), l1d_prefetchers=("ipcp",)),
        )
    )


def reduce(
    config: ExperimentConfig, results: SweepResults, scheme: str = "hermes"
) -> Figure2Result:
    """Compare ``scheme`` against the baseline on DRAM transactions."""
    result = Figure2Result()
    suites: dict[str, tuple[list[float], list[float]]] = {
        "spec": ([], []),
        "gap": ([], []),
        "imported": ([], []),
    }
    for workload in config.workloads():
        baseline = results.single_core(workload, "baseline", "ipcp")
        candidate = results.single_core(workload, scheme, "ipcp")
        result.per_workload[workload] = percent_change(
            candidate.dram_transactions, baseline.dram_transactions
        )
        values, bases = suites[config.suite_of(workload)]
        values.append(candidate.dram_transactions)
        bases.append(baseline.dram_transactions)
    for suite, (values, bases) in suites.items():
        if values:
            result.per_suite[suite] = average_percent_change(values, bases)
    all_values = [v for values, _ in suites.values() for v in values]
    all_bases = [b for _, bases in suites.values() for b in bases]
    result.overall = average_percent_change(all_values, all_bases)
    return result


def format_table(result: Figure2Result) -> str:
    """Render the per-workload increases plus suite averages."""
    rows = [[name, value] for name, value in sorted(result.per_workload.items())]
    for suite, value in sorted(result.per_suite.items()):
        rows.append([f"<avg {suite}>", value])
    rows.append(["<avg all>", result.overall])
    return format_rows(["workload", "DRAM transaction increase (%)"], rows)


SPEC = register(
    ExperimentSpec(
        name="fig02",
        title="Figure 2: DRAM transaction increase of Hermes (single-core, IPCP)",
        build_sweep=sweep,
        reduce=reduce,
        format_table=format_table,
        claims=(Claim(ref("overall"), ">", 0.0),),
    )
)

