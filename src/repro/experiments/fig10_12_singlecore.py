"""Figures 10, 11 and 12: the single-core evaluation campaign.

One campaign runs every (workload, scheme, L1D prefetcher) combination and
the three figures are different views of its results:

* Figure 10 -- per-workload speedup over the baseline and geometric-mean
  speedups per suite (PPF, Hermes, Hermes+PPF, TLP; IPCP and Berti).
* Figure 11 -- per-workload and average increase in DRAM transactions.
* Figure 12 -- L1D prefetcher accuracy under each scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import (
    COMPARISON_SCHEMES,
    ExperimentConfig,
    average_percent_change,
    format_rows,
)
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
from repro.stats.metrics import geometric_mean_speedup, percent_change, speedup_percent


@dataclass
class SingleCoreCampaignResult:
    """All the numbers behind Figures 10, 11 and 12."""

    #: prefetcher -> scheme -> workload -> speedup percent over baseline.
    speedups: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)
    #: prefetcher -> scheme -> geomean speedup percent.
    geomean_speedup: dict[str, dict[str, float]] = field(default_factory=dict)
    #: prefetcher -> scheme -> suite -> geomean speedup percent.
    geomean_speedup_by_suite: dict[str, dict[str, dict[str, float]]] = field(
        default_factory=dict
    )
    #: prefetcher -> scheme -> workload -> DRAM transaction change percent.
    dram_change: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)
    #: prefetcher -> scheme -> average DRAM transaction change percent.
    average_dram_change: dict[str, dict[str, float]] = field(default_factory=dict)
    #: prefetcher -> scheme -> average L1D prefetch accuracy (percent).
    prefetch_accuracy: dict[str, dict[str, float]] = field(default_factory=dict)
    #: prefetcher -> baseline average accuracy (percent), for reference.
    baseline_accuracy: dict[str, float] = field(default_factory=dict)


def sweep(
    config: ExperimentConfig, schemes: tuple[str, ...] = COMPARISON_SCHEMES
) -> SweepSpec:
    """The full cross product: workloads x (baseline + schemes) x prefetchers."""
    return SweepSpec(
        single_core=(SingleCoreSweep(schemes=("baseline",) + tuple(schemes)),)
    )


def reduce(
    config: ExperimentConfig,
    results: SweepResults,
    schemes: tuple[str, ...] = COMPARISON_SCHEMES,
) -> SingleCoreCampaignResult:
    """Fold the single-core campaign into the Figure 10/11/12 numbers."""
    result = SingleCoreCampaignResult()
    workloads = config.workloads()
    for prefetcher in config.l1d_prefetchers:
        baseline_results = {
            workload: results.single_core(workload, "baseline", prefetcher)
            for workload in workloads
        }
        result.speedups[prefetcher] = {}
        result.dram_change[prefetcher] = {}
        result.geomean_speedup[prefetcher] = {}
        result.geomean_speedup_by_suite[prefetcher] = {}
        result.average_dram_change[prefetcher] = {}
        result.prefetch_accuracy[prefetcher] = {}
        result.baseline_accuracy[prefetcher] = 100.0 * _mean(
            [res.l1d_prefetch_accuracy for res in baseline_results.values()]
        )
        for scheme in schemes:
            scheme_results = {
                workload: results.single_core(workload, scheme, prefetcher)
                for workload in workloads
            }
            result.speedups[prefetcher][scheme] = {
                workload: speedup_percent(
                    scheme_results[workload].ipc, baseline_results[workload].ipc
                )
                for workload in workloads
            }
            result.dram_change[prefetcher][scheme] = {
                workload: percent_change(
                    scheme_results[workload].dram_transactions,
                    baseline_results[workload].dram_transactions,
                )
                for workload in workloads
            }
            result.geomean_speedup[prefetcher][scheme] = geometric_mean_speedup(
                [scheme_results[w].ipc for w in workloads],
                [baseline_results[w].ipc for w in workloads],
            )
            by_suite = {}
            for suite in ("spec", "gap", "imported"):
                suite_workloads = [
                    w for w in workloads if config.suite_of(w) == suite
                ]
                if suite_workloads:
                    by_suite[suite] = geometric_mean_speedup(
                        [scheme_results[w].ipc for w in suite_workloads],
                        [baseline_results[w].ipc for w in suite_workloads],
                    )
            result.geomean_speedup_by_suite[prefetcher][scheme] = by_suite
            result.average_dram_change[prefetcher][scheme] = average_percent_change(
                [scheme_results[w].dram_transactions for w in workloads],
                [baseline_results[w].dram_transactions for w in workloads],
            )
            result.prefetch_accuracy[prefetcher][scheme] = 100.0 * _mean(
                [
                    scheme_results[w].l1d_prefetch_accuracy
                    for w in workloads
                    # Workloads where the scheme filtered out (or never
                    # issued) every prefetch have no defined accuracy; the
                    # paper's Figure 12 averages over issued prefetches only.
                    if scheme_results[w].useful_l1d_prefetches
                    + scheme_results[w].useless_l1d_prefetches
                    > 0
                ]
            )
    return result


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def claims(prefetcher: str) -> tuple[Claim, ...]:
    """Figures 10, 11 and 12's claims for one L1D prefetcher."""

    def of(field: str, scheme: str, offset: float = 0.0) -> Ref:
        return ref(field, prefetcher, scheme, offset=offset)

    speedup, dram = "geomean_speedup", "average_dram_change"
    accuracy = "prefetch_accuracy"
    return (
        Claim(of(speedup, "tlp"), ">=", of(speedup, "hermes", -1.0)),
        Claim(of(speedup, "tlp"), ">=", of(speedup, "hermes_ppf", -1.0)),
        Claim(of(dram, "tlp"), "<", of(dram, "hermes")),
        Claim(of(dram, "tlp"), "<", of(dram, "hermes_ppf")),
        Claim(of(dram, "tlp"), "<", 5.0),
        Claim(of(accuracy, "tlp"), ">=",
              ref("baseline_accuracy", prefetcher, offset=-10.0)),
        Claim(of(accuracy, "tlp"), ">=", of(accuracy, "hermes", -10.0)),
    )


def format_table(result: SingleCoreCampaignResult) -> str:
    """Render the geomean speedups, DRAM changes and accuracies per scheme."""
    rows = []
    for prefetcher, schemes in result.geomean_speedup.items():
        for scheme, speedup in schemes.items():
            rows.append(
                [
                    f"{scheme}/{prefetcher}",
                    speedup,
                    result.average_dram_change[prefetcher][scheme],
                    result.prefetch_accuracy[prefetcher][scheme],
                ]
            )
        rows.append(
            [
                f"baseline/{prefetcher}",
                0.0,
                0.0,
                result.baseline_accuracy[prefetcher],
            ]
        )
    return format_rows(
        ["scheme", "geomean speedup (%)", "avg DRAM change (%)", "L1D pf accuracy (%)"],
        rows,
    )


SPEC = register(
    ExperimentSpec(
        name="fig10",
        title="Figures 10/11/12: single-core evaluation",
        build_sweep=sweep,
        reduce=reduce,
        format_table=format_table,
        claims=tuple(
            claim for prefetcher in ExperimentConfig.l1d_prefetchers
            for claim in claims(prefetcher)
        ),
    )
)

