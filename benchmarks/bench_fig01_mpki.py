"""Figure 1: MPKI of L1D/L2C/LLC across SPEC and GAP workloads."""

from conftest import run_once

from repro.experiments import fig01_mpki, run_experiment


def test_fig01_cache_mpki(benchmark, campaign):
    result = run_once(benchmark, lambda: run_experiment("fig01", cache=campaign))
    print()
    print("Figure 1: cache MPKI (baseline, IPCP)")
    print(fig01_mpki.format_table(result))
    # Paper shape: the miss rate shrinks down the hierarchy, and every
    # selected workload is memory intensive (LLC MPKI > 1 on average).
    assert result.overall["L1D"] >= result.overall["L2C"] >= result.overall["LLC"]
    assert result.overall["LLC"] > 1.0
