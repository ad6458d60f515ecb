"""Figure 12: L1D prefetcher accuracy under PPF / Hermes / Hermes+PPF / TLP."""

from conftest import run_once

from repro.experiments import fig10_12_singlecore, run_experiment


def test_fig12_prefetcher_accuracy(benchmark, campaign):
    result = run_once(benchmark, lambda: run_experiment("fig10", cache=campaign))
    print()
    print("Figure 12: L1D prefetcher accuracy under each scheme (avg %)")
    print(fig10_12_singlecore.format_table(result))
    for prefetcher in campaign.config.l1d_prefetchers:
        accuracy = result.prefetch_accuracy[prefetcher]
        baseline = result.baseline_accuracy[prefetcher]
        # Paper shape: TLP does not degrade the prefetcher's accuracy (it
        # raises it on the irregular workloads); at this reduced scale we
        # assert it stays within a small margin of the baseline and Hermes.
        assert accuracy["tlp"] >= baseline - 10.0
        assert accuracy["tlp"] >= accuracy["hermes"] - 10.0
