"""Figure 16: DRAM bandwidth sensitivity of the multi-core results."""

from conftest import run_once

from repro.experiments import fig16_bandwidth, run_experiment


def test_fig16_bandwidth_sensitivity(benchmark, campaign):
    result = run_once(
        benchmark,
        lambda: run_experiment(
            "fig16",
            cache=campaign,
            bandwidths=(1.6, 3.2, 12.8, 25.6),
            schemes=("hermes", "tlp"),
        ),
    )
    print()
    print("Figure 16: bandwidth sensitivity (multi-core, IPCP)")
    print(fig16_bandwidth.format_table(result))
    # Paper shape: TLP helps most when bandwidth is scarce, and it reduces
    # DRAM transactions at every bandwidth point relative to Hermes.
    for bandwidth, changes in result.dram_change.items():
        assert changes["tlp"] <= changes["hermes"] + 1.0
