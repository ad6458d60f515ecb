"""Figure 14: multi-core DRAM-transaction increase of the four schemes."""

from conftest import run_once

from repro.experiments import fig13_14_multicore, run_experiment


def test_fig14_multicore_dram_transactions(benchmark, campaign):
    result = run_once(
        benchmark,
        lambda: run_experiment("fig13", cache=campaign, l1d_prefetchers=("ipcp",)),
    )
    print()
    print("Figure 14: multi-core DRAM transaction change vs baseline (avg %)")
    print(fig13_14_multicore.format_table(result))
    changes = result.average_dram_change["ipcp"]
    # Paper shape: TLP triggers the fewest DRAM transactions of all schemes.
    assert changes["tlp"] <= changes["hermes"]
    assert changes["tlp"] <= changes["hermes_ppf"]
