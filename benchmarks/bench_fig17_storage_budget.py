"""Figure 17: designs enhanced with TLP's storage budget."""

from conftest import run_once

from repro.experiments import fig17_storage_budget, run_experiment


def test_fig17_storage_budget_designs(benchmark, campaign):
    result = run_once(benchmark, lambda: run_experiment("fig17", cache=campaign))
    print()
    print("Figure 17: +7KB designs vs TLP (geomean speedup %)")
    print(fig17_storage_budget.format_table(result))
    for prefetcher, speedups in result.geomean_speedup.items():
        # Paper shape: simply giving Hermes TLP's storage budget does not
        # reach TLP (enlarged prefetcher tables gain nothing by themselves).
        assert speedups["tlp"] >= speedups["hermes_7kb"] - 1.0
