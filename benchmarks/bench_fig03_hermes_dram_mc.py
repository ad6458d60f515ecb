"""Figure 3: DRAM-transaction increase due to Hermes (4-core mixes)."""

from conftest import run_once

from repro.experiments import fig13_14_multicore, run_experiment


def test_fig03_hermes_dram_increase_multicore(benchmark, campaign):
    result = run_once(
        benchmark,
        lambda: run_experiment(
            "fig13",
            cache=campaign, schemes=("hermes",), l1d_prefetchers=("ipcp",)
        ),
    )
    print()
    print("Figure 3: DRAM transaction increase of Hermes (4-core, IPCP)")
    print(fig13_14_multicore.format_table(result))
    # Paper shape: Hermes increases multi-core DRAM transactions on average.
    assert result.average_dram_change["ipcp"]["hermes"] > -1.0
