"""Figure 1: MPKI of all caches (L1D, L2C, LLC) across SPEC and GAP workloads.

The paper uses this figure to motivate off-chip prediction: a large fraction
of L1D misses eventually require a DRAM access, especially for the
graph-processing (GAP) workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import ExperimentConfig, format_rows
from repro.experiments.spec import (
    Claim,
    ExperimentSpec,
    SingleCoreSweep,
    SweepResults,
    SweepSpec,
    ref,
    register,
)


@dataclass
class Figure1Result:
    """Per-workload and per-suite MPKI rows."""

    per_workload: dict[str, dict[str, float]] = field(default_factory=dict)
    per_suite: dict[str, dict[str, float]] = field(default_factory=dict)
    overall: dict[str, float] = field(default_factory=dict)


def sweep(config: ExperimentConfig) -> SweepSpec:
    """Every workload once, baseline scheme, IPCP L1D prefetcher."""
    return SweepSpec(
        single_core=(
            SingleCoreSweep(schemes=("baseline",), l1d_prefetchers=("ipcp",)),
        )
    )


def reduce(config: ExperimentConfig, results: SweepResults) -> Figure1Result:
    """Fold baseline (IPCP + SPP, no off-chip prediction) runs into MPKIs."""
    result = Figure1Result()
    suite_accumulator: dict[str, list[dict[str, float]]] = {
        "spec": [],
        "gap": [],
        "imported": [],
    }
    for workload in config.workloads():
        run_result = results.single_core(workload, "baseline", "ipcp")
        result.per_workload[workload] = dict(run_result.mpki_by_level)
        suite_accumulator[config.suite_of(workload)].append(
            run_result.mpki_by_level
        )
    for suite, rows in suite_accumulator.items():
        if not rows:
            continue
        result.per_suite[suite] = {
            level: sum(row[level] for row in rows) / len(rows)
            for level in ("L1D", "L2C", "LLC")
        }
    all_rows = [row for rows in suite_accumulator.values() for row in rows]
    result.overall = {
        level: sum(row[level] for row in all_rows) / len(all_rows)
        for level in ("L1D", "L2C", "LLC")
    }
    return result


def format_table(result: Figure1Result) -> str:
    """Render the figure as a text table (per suite + overall)."""
    rows = []
    for workload, mpki in sorted(result.per_workload.items()):
        rows.append([workload, mpki["L1D"], mpki["L2C"], mpki["LLC"]])
    for suite, mpki in sorted(result.per_suite.items()):
        rows.append([f"<avg {suite}>", mpki["L1D"], mpki["L2C"], mpki["LLC"]])
    rows.append(
        ["<avg all>", result.overall["L1D"], result.overall["L2C"], result.overall["LLC"]]
    )
    return format_rows(["workload", "L1D MPKI", "L2C MPKI", "LLC MPKI"], rows)


SPEC = register(
    ExperimentSpec(
        name="fig01",
        title="Figure 1: cache MPKI (baseline, IPCP L1D prefetcher)",
        build_sweep=sweep,
        reduce=reduce,
        format_table=format_table,
        claims=(
            Claim(ref("overall", "L1D"), ">=", ref("overall", "L2C"), ">=",
                  ref("overall", "LLC")),
            Claim(ref("overall", "LLC"), ">", 1.0),
        ),
    )
)

