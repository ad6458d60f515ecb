"""Figure 13: multi-core weighted speedups of the four schemes."""

from conftest import run_once

from repro.experiments import fig13_14_multicore, run_experiment


def test_fig13_multicore_speedup(benchmark, campaign):
    result = run_once(
        benchmark,
        lambda: run_experiment("fig13", cache=campaign, l1d_prefetchers=("ipcp",)),
    )
    print()
    print("Figure 13: multi-core normalised weighted speedup (geomean %)")
    print(fig13_14_multicore.format_table(result))
    speedups = result.geomean_speedup["ipcp"]
    # Paper shape: TLP outperforms Hermes (the strongest off-chip baseline).
    assert speedups["tlp"] >= speedups["hermes"] - 1.0
