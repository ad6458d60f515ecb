"""Figure 4: block location upon a Hermes off-chip prediction."""

from conftest import run_once

from repro.experiments import fig04_offchip_breakdown, run_experiment


def test_fig04_offchip_prediction_breakdown(benchmark, campaign):
    result = run_once(benchmark, lambda: run_experiment("fig04", cache=campaign))
    print()
    print("Figure 4: block location upon a Hermes off-chip prediction")
    print(fig04_offchip_breakdown.format_table(result))
    # Paper shape: most positive predictions are correct (block in DRAM), but
    # a sizeable fraction is wrong, with part of it resident in the L1D.
    assert result.overall["DRAM"] > 40.0
    wrong = result.overall["L1D"] + result.overall["L2C"] + result.overall["LLC"]
    assert wrong > 5.0
