"""Tests for Hermes, FLP, SLP, TLP and the ablation variants."""

import pytest

from repro.core.flp import FirstLevelPerceptron
from repro.core.slp import SecondLevelPerceptron
from repro.core.storage import tlp_storage_breakdown
from repro.core.tlp import TLPConfig, TwoLevelPerceptron
from repro.core.variants import ABLATION_VARIANTS, build_ablation_variant
from repro.predictors.base import NullOffChipPredictor, OffChipAction
from repro.predictors.hermes import HermesPredictor
from repro.prefetchers.base import PrefetchRequest


def train_predictor(predictor, pc, vaddr, outcome, repetitions=20):
    """Repeatedly predict+train the same access with a fixed outcome."""
    decision = None
    for _ in range(repetitions):
        decision = predictor.predict(pc, vaddr, cycle=0)
        predictor.train(decision.metadata, outcome)
    return predictor.predict(pc, vaddr, cycle=0)


class TestNullPredictor:
    def test_never_predicts_offchip(self):
        predictor = NullOffChipPredictor()
        decision = predictor.predict(0x400, 0x1000, 0)
        assert decision.action is OffChipAction.NONE
        assert not decision.predicted_offchip


class TestHermes:
    def test_learns_offchip_loads(self):
        hermes = HermesPredictor(activation_threshold=2)
        decision = train_predictor(hermes, 0x400, 0x1000, outcome=True)
        assert decision.predicted_offchip
        assert decision.action is OffChipAction.IMMEDIATE

    def test_learns_onchip_loads(self):
        hermes = HermesPredictor(activation_threshold=2)
        decision = train_predictor(hermes, 0x404, 0x2000, outcome=False)
        assert not decision.predicted_offchip
        assert decision.action is OffChipAction.NONE

    def test_last_prediction_exposed(self):
        hermes = HermesPredictor()
        train_predictor(hermes, 0x400, 0x1000, outcome=True)
        assert hermes.last_prediction is True

    def test_storage_is_a_few_kib(self):
        hermes = HermesPredictor()
        assert 2.0 < hermes.storage_kib() < 6.0

    def test_reset(self):
        hermes = HermesPredictor()
        train_predictor(hermes, 0x400, 0x1000, outcome=True)
        hermes.reset()
        decision = hermes.predict(0x400, 0x1000, 0)
        assert decision.confidence == 0


class TestFLP:
    def test_three_band_decisions(self):
        flp = FirstLevelPerceptron(tau_high=16, tau_low=2)
        offchip = train_predictor(flp, 0x400, 0x1000, outcome=True, repetitions=40)
        assert offchip.action is OffChipAction.IMMEDIATE
        onchip = train_predictor(flp, 0x500, 0x9000, outcome=False, repetitions=40)
        assert onchip.action is OffChipAction.NONE

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            FirstLevelPerceptron(tau_high=1, tau_low=5)

    def test_selective_delay_disabled_promotes_to_immediate(self):
        flp = FirstLevelPerceptron(tau_high=10_000, tau_low=-100, selective_delay=False)
        decision = flp.predict(0x400, 0x1000, 0)
        # With tau_low below any confidence and delay disabled, the mid band
        # maps to IMMEDIATE.
        assert decision.action is OffChipAction.IMMEDIATE

    def test_mid_band_is_delayed_with_selective_delay(self):
        flp = FirstLevelPerceptron(tau_high=10_000, tau_low=-100, selective_delay=True)
        decision = flp.predict(0x400, 0x1000, 0)
        assert decision.action is OffChipAction.DELAYED
        assert decision.predicted_offchip

    def test_decision_counters(self):
        flp = FirstLevelPerceptron(tau_high=10_000, tau_low=10_000)
        flp.predict(0x1, 0x2, 0)
        assert flp.negative_decisions == 1

    def test_storage_matches_hermes_scale(self):
        flp = FirstLevelPerceptron()
        assert 2.5 < flp.storage_kib() < 4.0


class TestSLP:
    def make_request(self, vaddr=0x2000, pc=0x400):
        return PrefetchRequest(vaddr=vaddr, trigger_pc=pc, trigger_vaddr=vaddr - 64)

    def test_initially_issues_prefetches(self):
        slp = SecondLevelPerceptron(tau_pref=8)
        decision = slp.consult(self.make_request(), 0x2000, False, 0)
        assert decision.issue

    def test_learns_to_discard_offchip_prefetches(self):
        slp = SecondLevelPerceptron(tau_pref=8)
        request = self.make_request()
        for _ in range(40):
            decision = slp.consult(request, 0x2000, True, 0)
            slp.train(decision.metadata, True)
        final = slp.consult(request, 0x2000, True, 0)
        assert not final.issue
        assert slp.discard_rate > 0.0

    def test_learns_to_keep_onchip_prefetches(self):
        slp = SecondLevelPerceptron(tau_pref=8)
        request = self.make_request()
        for _ in range(40):
            decision = slp.consult(request, 0x2000, False, 0)
            slp.train(decision.metadata, False)
        assert slp.consult(request, 0x2000, False, 0).issue

    def test_leveling_feature_changes_prediction_inputs(self):
        request = self.make_request()
        with_bit = SecondLevelPerceptron(use_leveling_feature=True).consult(
            request, 0x2000, True, 0
        )
        without_bit = SecondLevelPerceptron(use_leveling_feature=True).consult(
            request, 0x2000, False, 0
        )
        assert with_bit.metadata["indices"] != without_bit.metadata["indices"]

    def test_leveling_feature_can_be_disabled(self):
        request = self.make_request()
        with_bit = SecondLevelPerceptron(use_leveling_feature=False).consult(
            request, 0x2000, True, 0
        )
        without_bit = SecondLevelPerceptron(use_leveling_feature=False).consult(
            request, 0x2000, False, 0
        )
        assert with_bit.metadata["indices"] == without_bit.metadata["indices"]

    def test_reset(self):
        slp = SecondLevelPerceptron()
        request = self.make_request()
        decision = slp.consult(request, 0x2000, False, 0)
        slp.train(decision.metadata, True)
        slp.reset()
        assert slp.consultations == 0
        assert slp.consult(request, 0x2000, False, 0).confidence == 0


class TestTLP:
    def test_bundles_flp_and_slp(self):
        tlp = TwoLevelPerceptron()
        assert isinstance(tlp.flp, FirstLevelPerceptron)
        assert isinstance(tlp.slp, SecondLevelPerceptron)

    def test_storage_budget_close_to_7kb(self):
        breakdown = tlp_storage_breakdown(TwoLevelPerceptron())
        assert 5.0 < breakdown.total < 9.0
        assert breakdown.flp_total < 4.0
        assert breakdown.slp_total < 4.5

    def test_storage_table_rows(self):
        breakdown = tlp_storage_breakdown()
        table = breakdown.as_table()
        assert table[-1][0] == "Total"
        assert table[-1][1] == pytest.approx(breakdown.total)

    def test_config_propagates_thresholds(self):
        tlp = TwoLevelPerceptron(TLPConfig(tau_high=30, tau_low=5, tau_pref=12))
        assert tlp.flp.tau_high == 30
        assert tlp.flp.tau_low == 5
        assert tlp.slp.tau_pref == 12

    def test_attach_wires_hierarchy(self):
        from repro.memory.hierarchy import MemoryHierarchy
        from repro.common.config import cascade_lake_single_core

        hierarchy = MemoryHierarchy(cascade_lake_single_core())
        tlp = TwoLevelPerceptron()
        tlp.attach(hierarchy)
        assert hierarchy.offchip_predictor is tlp.flp
        assert hierarchy.l1d_prefetch_filter is tlp.slp

    def test_summary_keys(self):
        summary = TwoLevelPerceptron().summary()
        assert "storage_kib" in summary
        assert "slp_discard_rate" in summary

    def test_reset(self):
        tlp = TwoLevelPerceptron()
        tlp.flp.predict(1, 2, 0)
        tlp.reset()
        assert tlp.flp.perceptron.stats.predictions == 0


class TestAblationVariants:
    def test_all_variants_buildable(self):
        for name in ABLATION_VARIANTS:
            variant = build_ablation_variant(name)
            assert variant.name == name

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            build_ablation_variant("nope")

    def test_flp_variant_has_no_filter(self):
        variant = build_ablation_variant("flp")
        assert variant.offchip_predictor is not None
        assert variant.l1d_prefetch_filter is None

    def test_slp_variant_has_no_offchip_predictor(self):
        variant = build_ablation_variant("slp")
        assert variant.offchip_predictor is None
        assert variant.l1d_prefetch_filter is not None

    def test_tsp_disables_selective_delay_and_leveling(self):
        variant = build_ablation_variant("tsp")
        assert variant.offchip_predictor.selective_delay is False
        assert variant.l1d_prefetch_filter.use_leveling_feature is False

    def test_tlp_variant_enables_everything(self):
        variant = build_ablation_variant("tlp")
        assert variant.offchip_predictor.selective_delay is True
        assert variant.l1d_prefetch_filter.use_leveling_feature is True

    def test_always_delayed_flp_never_immediate(self):
        predictor = build_ablation_variant("delayed_tsp").offchip_predictor
        predictor.tau_low = -200  # every confidence flags the load
        decision = predictor.predict(0x400, 0x1000, 0)
        assert decision.action is OffChipAction.DELAYED
        assert predictor.immediate_decisions == 0
