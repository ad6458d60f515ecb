"""Figure 15: performance contribution of each TLP component."""

from conftest import run_once

from repro.experiments import fig15_ablation, run_experiment


def test_fig15_component_ablation(benchmark, campaign):
    result = run_once(benchmark, lambda: run_experiment("fig15", cache=campaign))
    print()
    print("Figure 15: ablation of TLP components (geomean weighted speedup %)")
    print(fig15_ablation.format_table(result))
    geomean = result.geomean
    # Paper shape: the full design is at least as good as the partial designs
    # it is built from (allowing small noise at this simulation scale).
    assert geomean["tlp"] >= geomean["flp"] - 2.0
    assert geomean["tlp"] >= geomean["tsp"] - 2.0
