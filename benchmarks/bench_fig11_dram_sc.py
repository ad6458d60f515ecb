"""Figure 11: single-core DRAM-transaction increase of the four schemes."""

from conftest import run_once

from repro.experiments import fig10_12_singlecore, run_experiment


def test_fig11_single_core_dram_transactions(benchmark, campaign):
    result = run_once(benchmark, lambda: run_experiment("fig10", cache=campaign))
    print()
    print("Figure 11: single-core DRAM transaction change vs baseline (avg %)")
    print(fig10_12_singlecore.format_table(result))
    for prefetcher in campaign.config.l1d_prefetchers:
        changes = result.average_dram_change[prefetcher]
        # Paper shape: TLP reduces DRAM transactions, the other schemes
        # increase them (TLP is at least clearly the lowest).
        assert changes["tlp"] < changes["hermes"]
        assert changes["tlp"] < changes["hermes_ppf"]
        assert changes["tlp"] < 5.0
