"""Integration tests: scenario building, single-core and multi-core drivers."""

import math

import numpy as np
import pytest

from repro.common.config import cascade_lake_multi_core, cascade_lake_single_core
from repro.core.flp import FirstLevelPerceptron
from repro.core.slp import SecondLevelPerceptron
from repro.predictors.base import NullOffChipPredictor
from repro.predictors.hermes import HermesPredictor
from repro.prefetchers.berti import BertiPrefetcher
from repro.prefetchers.ipcp import IPCPPrefetcher
from repro.prefetchers.ppf import PerceptronPrefetchFilter
from repro.prefetchers.spp import SPPPrefetcher
from repro.sim.multi_core import run_multicore_mix
from repro.sim.scenarios import SCHEMES, Scenario, build_hierarchy, build_scenario
from repro.sim.single_core import run_single_core


class TestScenarioBuilding:
    def test_all_schemes_buildable(self):
        for scheme in SCHEMES:
            hierarchy = build_hierarchy(build_scenario(scheme))
            assert hierarchy is not None

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            build_scenario("magic")

    def test_scenario_name(self):
        scenario = build_scenario("tlp", l1d_prefetcher="berti")
        assert scenario.name == "tlp/berti"

    def test_baseline_has_no_predictor_or_filter(self):
        hierarchy = build_hierarchy(build_scenario("baseline"))
        from repro.predictors.base import NullOffChipPredictor

        assert isinstance(hierarchy.offchip_predictor, NullOffChipPredictor)
        assert hierarchy.l1d_prefetch_filter is None
        assert hierarchy.l2_prefetch_filter is None
        assert isinstance(hierarchy.l1d_prefetcher, IPCPPrefetcher)

    def test_hermes_scheme_attaches_hermes(self):
        # Hermes is FLP without selective delay (TestHermesIsFLP).
        hierarchy = build_hierarchy(build_scenario("hermes"))
        assert type(hierarchy.offchip_predictor) is FirstLevelPerceptron
        assert hierarchy.offchip_predictor.selective_delay is False

    def test_ppf_scheme_attaches_filter_at_l2(self):
        hierarchy = build_hierarchy(build_scenario("ppf"))
        assert isinstance(hierarchy.l2_prefetch_filter, PerceptronPrefetchFilter)

    def test_tlp_scheme_attaches_flp_and_slp(self):
        hierarchy = build_hierarchy(build_scenario("tlp"))
        assert isinstance(hierarchy.offchip_predictor, FirstLevelPerceptron)
        assert isinstance(hierarchy.l1d_prefetch_filter, SecondLevelPerceptron)

    def test_berti_prefetcher_selected(self):
        hierarchy = build_hierarchy(build_scenario("baseline", l1d_prefetcher="berti"))
        assert isinstance(hierarchy.l1d_prefetcher, BertiPrefetcher)

    def test_prefetcher_7kb_enlarges_tables(self):
        hierarchy = build_hierarchy(build_scenario("prefetcher_7kb"))
        assert hierarchy.l1d_prefetcher.ip_table_entries > IPCPPrefetcher().ip_table_entries

    def test_hermes_7kb_enlarges_tables(self):
        small = HermesPredictor()
        hierarchy = build_hierarchy(build_scenario("hermes_7kb"))
        assert hierarchy.offchip_predictor.storage_kib() > small.storage_kib()

    @pytest.mark.parametrize("name", ["bingo", "IPCP", "Berti", "NONE", ""])
    def test_unknown_or_misspelled_prefetcher_rejected(self, name):
        # Names are exact, as the engine's point check spells them: a
        # scenario that builds must be a point the engine accepts.
        with pytest.raises(ValueError, match="unknown L1D prefetcher"):
            build_scenario("tlp", l1d_prefetcher=name)

    @pytest.mark.parametrize("make", [Scenario, build_scenario])
    def test_l2_prefetcher_is_not_a_knob(self, make):
        # SPP is the L2 prefetcher of every scheme (TestSchemeTable pins
        # its preset); a name that would not change it is refused.
        with pytest.raises(TypeError, match="l2_prefetcher"):
            make("baseline", l2_prefetcher="bop")

    def test_ablation_schemes_attach_expected_components(self):
        slp_only = build_hierarchy(build_scenario("slp"))
        from repro.predictors.base import NullOffChipPredictor

        assert isinstance(slp_only.offchip_predictor, NullOffChipPredictor)
        assert isinstance(slp_only.l1d_prefetch_filter, SecondLevelPerceptron)
        tsp = build_hierarchy(build_scenario("selective_tsp"))
        assert tsp.offchip_predictor.selective_delay is True


FLP, SLP, PPF = FirstLevelPerceptron, SecondLevelPerceptron, PerceptronPrefetchFilter

#: Scheme -> the types of the off-chip predictor, L1D prefetch filter and L2
#: prefetch filter it adds (None: it adds none), and whether its SPP runs
#: aggressively.
SCHEME_PARTS = {
    "baseline": (NullOffChipPredictor, None, None, False),
    "ppf": (NullOffChipPredictor, None, PPF, True),
    "hermes": (FLP, None, None, False),
    "hermes_ppf": (FLP, None, PPF, True),
    "tlp": (FLP, SLP, None, False),
    "flp": (FLP, None, None, False),
    "slp": (NullOffChipPredictor, SLP, None, False),
    "tsp": (FLP, SLP, None, False),
    "delayed_tsp": (FLP, SLP, None, False),
    "selective_tsp": (FLP, SLP, None, False),
    "hermes_7kb": (FLP, None, None, False),
    "prefetcher_7kb": (NullOffChipPredictor, None, None, False),
}

#: FLP's (selective_delay, tau_high, tau_low) and SLP's use_leveling_feature:
#: the Figure 15 switches, and Hermes, which is FLP without selective delay.
TWO_LEVEL_SWITCHES = {
    "hermes": ((False, 16, 2), None),
    "hermes_ppf": ((False, 16, 2), None),
    "hermes_7kb": ((False, 16, 2), None),
    "tlp": ((True, 16, 2), True),
    "flp": ((False, 16, 2), None),
    "slp": (None, False),
    "tsp": ((False, 16, 2), False),
    "delayed_tsp": ((True, math.inf, 2), False),
    "selective_tsp": ((True, 16, 2), False),
}

#: FLP's (and so Hermes') five weight tables at their default sizes.
LEGACY_TABLES = (1024, 1024, 512, 512, 1024)

#: Each L1D prefetcher's table sizes, as set and as built: IPCP's IP and
#: CPLX tables, Berti's history table.  ``prefetcher_7kb`` enlarges them.
PREFETCHER_TABLES = {
    "ipcp": ((1024, 1024, 4096, 4096), (4096, 4096, 16384, 16384)),
    "berti": ((512, 512), (2048, 2048)),
}


def _built(hierarchy) -> dict:
    """A hierarchy's component types and the values that tell schemes
    apart."""
    l1d, spp = hierarchy.l1d_prefetcher, hierarchy.l2_prefetcher
    offchip, l1d_filter = hierarchy.offchip_predictor, hierarchy.l1d_prefetch_filter
    parts = (l1d, spp, offchip, l1d_filter, hierarchy.l2_prefetch_filter)
    built = {
        "types": tuple(None if part is None else type(part) for part in parts),
        "spp": (spp.lookahead_confidence, spp.l2_fill_confidence,
                spp.max_lookahead_depth),
    }
    if isinstance(offchip, FLP):
        built["flp"] = (offchip.selective_delay, offchip.tau_high, offchip.tau_low)
    if isinstance(l1d_filter, SLP):
        built["slp_leveling"] = l1d_filter.use_leveling_feature
    if isinstance(offchip, FLP):
        built["offchip_tables"] = tuple(
            spec.table_entries for spec in offchip.perceptron.features
        )
    if isinstance(l1d, IPCPPrefetcher):
        built["l1d_tables"] = (l1d.ip_table_entries, len(l1d._ip_last),
                               l1d.cplx_table_entries, len(l1d._cplx_stride))
    if isinstance(l1d, BertiPrefetcher):
        built["l1d_tables"] = (l1d.table_entries, len(l1d._pages))
    return built


def _expected(scheme: str, prefetcher: str) -> dict:
    offchip, l1d_filter, l2_filter, aggressive = SCHEME_PARTS[scheme]
    l1d = {"ipcp": IPCPPrefetcher, "berti": BertiPrefetcher}.get(prefetcher)
    expected = {
        "types": (l1d, SPPPrefetcher, offchip, l1d_filter, l2_filter),
        "spp": (0.10, 0.25, 8) if aggressive else (0.25, 0.5, 4),
    }
    flp, leveling = TWO_LEVEL_SWITCHES.get(scheme, (None, None))
    if flp is not None:
        expected["flp"] = flp
    if leveling is not None:
        expected["slp_leveling"] = leveling
    if offchip is FLP:
        expected["offchip_tables"] = (
            (2048,) * 5 if scheme == "hermes_7kb" else LEGACY_TABLES
        )
    if l1d is not None:
        default, enlarged = PREFETCHER_TABLES[prefetcher]
        expected["l1d_tables"] = enlarged if scheme == "prefetcher_7kb" else default
    return expected


class TestSchemeTable:
    """What every scheme builds with every L1D prefetcher, pinned."""

    def test_every_scheme_is_pinned(self):
        assert tuple(SCHEME_PARTS) == SCHEMES

    @pytest.mark.parametrize("prefetcher", ["ipcp", "berti", "none"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_components(self, scheme, prefetcher):
        scenario = build_scenario(scheme, l1d_prefetcher=prefetcher)
        hierarchy = build_hierarchy(scenario)
        assert _built(hierarchy) == _expected(scheme, prefetcher)


#: The schemes that build Hermes, FLP without selective delay, and the
#: weight-table sizes of each.
HERMES_TABLES = {
    "hermes": LEGACY_TABLES,
    "hermes_ppf": LEGACY_TABLES,
    "hermes_7kb": (2048,) * 5,
    "flp": LEGACY_TABLES,
}


def _fields(value):
    """``value`` as plain data, attribute by attribute: arrays and
    memoryviews as lists, objects as their type and attributes."""
    if isinstance(value, (np.ndarray, memoryview)):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _fields(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fields(item) for item in value]
    if callable(value) or not hasattr(value, "__dict__") and not hasattr(value, "__slots__"):
        return value
    slots = [
        name for cls in type(value).__mro__ for name in vars(cls).get("__slots__", ())
        if hasattr(value, name) and not name.startswith("__")
    ]
    attributes = {name: getattr(value, name) for name in slots}
    attributes.update(getattr(value, "__dict__", {}))
    return (type(value), _fields(attributes))


class TestHermesIsFLP:
    """Hermes fires an immediate request on confidence >= 2: FLP with
    tau_low = 2 and no selective delay."""

    @pytest.mark.parametrize("scheme", sorted(HERMES_TABLES))
    def test_builds_flp_without_selective_delay(self, scheme):
        predictor = build_hierarchy(build_scenario(scheme)).offchip_predictor
        assert type(predictor) is FLP
        assert (predictor.selective_delay, predictor.tau_low) == (False, 2)
        assert tuple(
            spec.table_entries for spec in predictor.perceptron.features
        ) == HERMES_TABLES[scheme]

    def test_flp_and_hermes_predictors_are_equal_field_for_field(self):
        flp, hermes, hermes_ppf = (
            build_hierarchy(build_scenario(scheme)).offchip_predictor
            for scheme in ("flp", "hermes", "hermes_ppf")
        )
        assert {"selective_delay", "tau_low", "perceptron", "history"} <= set(
            _fields(flp)[1]
        )
        assert _fields(hermes) == _fields(flp)
        assert _fields(hermes_ppf) == _fields(flp)
        assert _fields(HermesPredictor()) == _fields(flp)


class TestSingleCoreDriver:
    def test_baseline_run_produces_sane_metrics(self, small_random_trace):
        result = run_single_core(small_random_trace, build_scenario("baseline"))
        assert result.instructions > 0
        assert 0.0 < result.ipc < 4.0
        assert result.dram_transactions > 0
        assert result.mpki_by_level["L1D"] >= result.mpki_by_level["LLC"]

    def test_warmup_fraction_validated(self, small_random_trace):
        with pytest.raises(ValueError):
            run_single_core(small_random_trace, build_scenario("baseline"), warmup_fraction=1.0)

    def test_results_deterministic(self, small_random_trace):
        first = run_single_core(small_random_trace, build_scenario("baseline"))
        second = run_single_core(small_random_trace, build_scenario("baseline"))
        assert first.ipc == pytest.approx(second.ipc)
        assert first.dram_transactions == second.dram_transactions

    def test_hermes_issues_speculative_requests(self, small_chase_trace):
        result = run_single_core(small_chase_trace, build_scenario("hermes"))
        assert result.speculative_requests > 0

    def test_tlp_filters_prefetches(self, small_random_trace):
        baseline = run_single_core(small_random_trace, build_scenario("baseline"))
        tlp = run_single_core(small_random_trace, build_scenario("tlp"))
        assert (
            tlp.l1d_prefetches_filtered > 0
            or tlp.l1d_prefetches_issued <= baseline.l1d_prefetches_issued
        )

    def test_gap_trace_runs_all_schemes(self, small_gap_trace):
        for scheme in ("baseline", "hermes", "ppf", "tlp"):
            result = run_single_core(small_gap_trace, build_scenario(scheme))
            assert result.instructions > 0

    def test_prefetch_accuracy_in_unit_range(self, small_stream_trace):
        result = run_single_core(small_stream_trace, build_scenario("baseline"))
        assert 0.0 <= result.l1d_prefetch_accuracy <= 1.0

    def test_served_by_accounts_for_all_loads(self, small_random_trace):
        result = run_single_core(small_random_trace, build_scenario("baseline"))
        served = sum(result.served_by.values())
        assert served > 0


class TestMultiCoreDriver:
    def test_four_core_mix_runs(self, small_random_trace, small_stream_trace):
        traces = [small_random_trace, small_stream_trace] * 2
        result = run_multicore_mix(traces, build_scenario("baseline"))
        assert len(result.ipcs) == 4
        assert all(ipc > 0 for ipc in result.ipcs)
        assert result.dram_transactions > 0

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            run_multicore_mix([], build_scenario("baseline"))

    def test_shared_bandwidth_slows_cores_down(self, small_chase_trace):
        single = run_single_core(
            small_chase_trace,
            build_scenario("baseline"),
            config=cascade_lake_multi_core(4),
        )
        mix = run_multicore_mix(
            [small_chase_trace] * 4,
            build_scenario("baseline"),
            config=cascade_lake_multi_core(4),
        )
        assert max(mix.ipcs) <= single.ipc * 1.05

    def test_weighted_speedup_helper(self, small_random_trace):
        mix = run_multicore_mix([small_random_trace] * 2, build_scenario("baseline"))
        ws = mix.weighted_speedup([1.0, 1.0])
        assert ws == pytest.approx(sum(mix.ipcs))

    def test_scheme_comparison_runs(self, small_random_trace):
        traces = [small_random_trace] * 2
        baseline = run_multicore_mix(traces, build_scenario("baseline"))
        tlp = run_multicore_mix(traces, build_scenario("tlp"))
        assert tlp.dram_transactions > 0
        assert baseline.dram_transactions > 0
