"""Shape tests for the experiment harnesses (tiny configuration).

These tests run the per-figure harnesses with a drastically reduced workload
set and trace length.  They check structural invariants (every workload gets
a row, shares sum to 100%, etc.) and a few qualitative expectations that are
robust even at tiny scale (e.g. L1D MPKI >= LLC MPKI, TLP filters
prefetches).  The paper's claims, checked at the default configuration,
are each figure spec's ``claims`` (``tests/test_experiment_specs.py``).
"""

import pytest

from repro import api
from repro.experiments.common import CampaignCache, quick_experiment_config
from repro.experiments.spec import run_experiment
from repro.experiments import (
    fig01_mpki,
    fig02_hermes_dram_sc,
    fig04_offchip_breakdown,
    fig05_06_prefetch_location,
    fig10_12_singlecore,
    fig13_14_multicore,
    fig15_ablation,
    fig16_bandwidth,
    fig17_storage_budget,
    table02_storage,
)


@pytest.fixture(scope="module")
def campaign():
    """One shared campaign cache so the module's tests reuse simulations."""
    return CampaignCache(quick_experiment_config())


class TestFigure1:
    def test_rows_and_ordering(self, campaign):
        result = run_experiment("fig01", cache=campaign)
        assert set(result.per_workload) == set(campaign.config.workloads())
        for mpki in result.per_workload.values():
            assert mpki["L1D"] >= mpki["L2C"] >= mpki["LLC"] >= 0.0
        assert result.overall["L1D"] > 0.0
        assert "MPKI" in fig01_mpki.format_table(result)


class TestFigure2:
    def test_per_workload_changes_present(self, campaign):
        result = run_experiment("fig02", cache=campaign)
        assert set(result.per_workload) == set(campaign.config.workloads())
        assert isinstance(result.overall, float)
        assert "DRAM" in fig02_hermes_dram_sc.format_table(result)


class TestFigure4:
    def test_shares_sum_to_100(self, campaign):
        result = run_experiment("fig04", cache=campaign)
        for shares in result.per_workload.values():
            total = sum(shares.values())
            assert total == pytest.approx(100.0, abs=0.1) or total == 0.0
        assert set(result.overall) == {"L1D", "L2C", "LLC", "DRAM"}


class TestFigures5and6:
    def test_ppki_non_negative(self, campaign):
        result = run_experiment("fig05", cache=campaign)
        for prefetcher, rows in result.inaccurate.items():
            for ppki in rows.values():
                assert all(value >= 0.0 for value in ppki.values())
            assert 0.0 <= result.dram_inaccuracy_ratio[prefetcher] <= 1.0
        assert "PPKI" in fig05_06_prefetch_location.format_table(result)


class TestFigures10to12:
    def test_campaign_structure(self, campaign):
        result = run_experiment("fig10", cache=campaign, schemes=("hermes", "tlp"))
        for prefetcher in campaign.config.l1d_prefetchers:
            assert set(result.geomean_speedup[prefetcher]) == {"hermes", "tlp"}
            for scheme in ("hermes", "tlp"):
                assert set(result.speedups[prefetcher][scheme]) == set(
                    campaign.config.workloads()
                )
                assert 0.0 <= result.prefetch_accuracy[prefetcher][scheme] <= 100.0
        assert "geomean" in fig10_12_singlecore.format_table(result)

    def test_tlp_reduces_dram_relative_to_hermes(self, campaign):
        result = run_experiment("fig10", cache=campaign, schemes=("hermes", "tlp"))
        prefetcher = campaign.config.l1d_prefetchers[0]
        assert (
            result.average_dram_change[prefetcher]["tlp"]
            <= result.average_dram_change[prefetcher]["hermes"] + 1e-6
        )


class TestMultiCoreFigures:
    def test_fig13_14_structure(self, campaign):
        result = run_experiment(
            "fig13",
            cache=campaign,
            schemes=("hermes", "tlp"),
            l1d_prefetchers=("ipcp",),
        )
        assert set(result.geomean_speedup["ipcp"]) == {"hermes", "tlp"}
        assert set(result.average_dram_change["ipcp"]) == {"hermes", "tlp"}
        assert "weighted" in fig13_14_multicore.format_table(result)

    def test_fig15_covers_all_variants(self, campaign):
        result = run_experiment("fig15", cache=campaign)
        assert set(result.geomean) == set(fig15_ablation.ABLATION_ORDER)
        assert "design" in fig15_ablation.format_table(result)

    def test_fig16_bandwidth_sweep(self, campaign):
        result = run_experiment(
            "fig16", cache=campaign, bandwidths=(1.6, 12.8), schemes=("tlp",)
        )
        assert set(result.speedup) == {1.6, 12.8}
        assert "GB/s" in fig16_bandwidth.format_table(result)


class TestFigure17AndTable2:
    def test_fig17_structure(self, campaign):
        result = run_experiment("fig17", cache=campaign, schemes=("hermes_7kb", "tlp"))
        prefetcher = campaign.config.l1d_prefetchers[0]
        assert set(result.geomean_speedup[prefetcher]) == {"hermes_7kb", "tlp"}

    def test_table2_storage_near_7kb(self, campaign):
        breakdown = run_experiment("table02", cache=campaign)
        assert 5.0 < breakdown.total < 9.0
        assert "Total" in table02_storage.format_table(breakdown)


class TestCampaignCache:
    def test_results_are_cached(self, campaign):
        workload = campaign.config.workloads()[0]
        spec = api.SweepSpec(single_core=(api.SingleCoreSweep(
            workloads=(workload,), l1d_prefetchers=("ipcp",),
        ),))
        first, second = (
            api.run_sweep(spec, cache=campaign).single_core(
                workload, "baseline", "ipcp"
            )
            for _ in range(2)
        )
        assert first is second

    def test_traces_are_cached(self, campaign):
        workload = campaign.config.workloads()[0]
        budget, scale = campaign.config.memory_accesses, campaign.config.gap_scale
        trace = campaign.engine.trace(workload, budget, scale)
        assert campaign.engine.trace(workload, budget, scale) is trace

    def test_config_suite_of(self, campaign):
        assert campaign.config.suite_of("spec.mcf_like") == "spec"
        assert campaign.config.suite_of("bfs.urand") == "gap"
