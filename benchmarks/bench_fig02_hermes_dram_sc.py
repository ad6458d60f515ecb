"""Figure 2: DRAM-transaction increase due to Hermes (single-core)."""

from conftest import run_once

from repro.experiments import fig02_hermes_dram_sc, run_experiment


def test_fig02_hermes_dram_increase(benchmark, campaign):
    result = run_once(benchmark, lambda: run_experiment("fig02", cache=campaign))
    print()
    print("Figure 2: DRAM transaction increase of Hermes (single-core, IPCP)")
    print(fig02_hermes_dram_sc.format_table(result))
    # Paper shape: Hermes increases DRAM transactions on average.
    assert result.overall > 0.0
