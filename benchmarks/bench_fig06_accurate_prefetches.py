"""Figure 6: where accurate L1D prefetches are served (IPCP and Berti)."""

from conftest import run_once

from repro.experiments import fig05_06_prefetch_location, run_experiment


def test_fig06_accurate_prefetch_location(benchmark, campaign):
    result = run_once(benchmark, lambda: run_experiment("fig05", cache=campaign))
    print()
    print("Figure 6: accurate L1D prefetches by serving level (PPKI)")
    print(fig05_06_prefetch_location.format_table(result))
    for prefetcher, averages in result.accurate_average.items():
        assert all(value >= 0.0 for value in averages.values())
