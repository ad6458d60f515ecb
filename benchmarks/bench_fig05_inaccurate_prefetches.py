"""Figure 5: where inaccurate L1D prefetches are served (IPCP and Berti)."""

from conftest import run_once

from repro.experiments import fig05_06_prefetch_location, run_experiment


def test_fig05_inaccurate_prefetch_location(benchmark, campaign):
    result = run_once(benchmark, lambda: run_experiment("fig05", cache=campaign))
    print()
    print("Figure 5: inaccurate L1D prefetches by serving level (PPKI)")
    print(fig05_06_prefetch_location.format_table(result))
    for prefetcher, averages in result.inaccurate_average.items():
        assert sum(averages.values()) >= 0.0
    # Paper shape: a large share of the DRAM-served prefetches is inaccurate.
    assert result.dram_inaccuracy_ratio["ipcp"] > 0.3
