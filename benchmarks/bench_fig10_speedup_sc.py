"""Figure 10: single-core speedups of PPF / Hermes / Hermes+PPF / TLP."""

from conftest import run_once

from repro.experiments import fig10_12_singlecore, run_experiment


def test_fig10_single_core_speedup(benchmark, campaign):
    result = run_once(benchmark, lambda: run_experiment("fig10", cache=campaign))
    print()
    print("Figure 10: single-core speedup over baseline (geomean)")
    print(fig10_12_singlecore.format_table(result))
    for prefetcher in campaign.config.l1d_prefetchers:
        speedups = result.geomean_speedup[prefetcher]
        # Paper shape: TLP outperforms Hermes and Hermes+PPF.
        assert speedups["tlp"] >= speedups["hermes"] - 1.0
        assert speedups["tlp"] >= speedups["hermes_ppf"] - 1.0
