"""First Level Perceptron (FLP) predictor -- Section IV-A of the paper.

FLP is an off-chip predictor located next to the core.  It uses the same
program features as Hermes (virtual addresses, since the L1D is VIPT and the
prediction proceeds in parallel with the lookup) but replaces Hermes' single
activation threshold with two thresholds implementing the *selective delay*
mechanism:

* confidence > ``tau_high``: the load is very likely to miss everywhere, so a
  speculative DRAM request is fired immediately, in parallel with the L1D
  lookup (same behaviour as Hermes);
* ``tau_low`` <= confidence <= ``tau_high``: the load is flagged as predicted
  off-chip, but the speculative DRAM request is only fired if the load misses
  in the L1D.  This is the mechanism motivated by Finding 3: a large fraction
  of Hermes' wrong off-chip predictions are actually served by the L1D, so
  waiting for the (cheap, 4-cycle) L1D lookup eliminates those useless DRAM
  transactions while only slightly delaying the truly off-chip loads;
* confidence < ``tau_low``: the load proceeds normally.

FLP is trained when the demand load completes, positively if it was served
from DRAM and negatively otherwise.
"""

from __future__ import annotations

from repro.common.counters import Counters
from repro.predictors.base import OffChipAction, OffChipDecision, OffChipPredictor
from repro.predictors.features import FeatureHistory, legacy_hermes_features
from repro.predictors.perceptron import HashedPerceptron


class FirstLevelPerceptron(OffChipPredictor, Counters, fields=(
    "immediate_decisions", "delayed_decisions", "negative_decisions",
)):
    """FLP: Hermes-style off-chip prediction with selective delay."""

    name = "flp"

    def __init__(
        self,
        tau_high: float = 16,
        tau_low: int = 2,
        table_entries: int | None = None,
        weight_bits: int = 5,
        training_threshold: int = 34,
        page_buffer_entries: int = 128,
        selective_delay: bool = True,
    ) -> None:
        if tau_low > tau_high:
            raise ValueError(
                f"tau_low ({tau_low}) must not exceed tau_high ({tau_high})"
            )
        self.tau_high = tau_high
        self.tau_low = tau_low
        self.selective_delay = selective_delay
        self.perceptron = HashedPerceptron(
            legacy_hermes_features(table_entries, weight_bits),
            training_threshold=training_threshold,
        )
        self.history = FeatureHistory(page_buffer_entries=page_buffer_entries)
        #: Last binary off-chip prediction; consumed by SLP's leveling feature
        #: for prefetches triggered by this demand access.
        self.last_prediction = False
        Counters.__init__(self)

    def predict(self, pc: int, vaddr: int, cycle: int) -> OffChipDecision:
        context = self.history.context(pc, vaddr)
        confidence, indices = self.perceptron.predict(context)
        self.history.observe(pc, vaddr)

        counts = self.counts
        if confidence > self.tau_high:
            action = OffChipAction.IMMEDIATE
            predicted_offchip = True
            counts[_F.immediate_decisions] += 1
        elif confidence >= self.tau_low:
            predicted_offchip = True
            if self.selective_delay:
                action = OffChipAction.DELAYED
                counts[_F.delayed_decisions] += 1
            else:
                action = OffChipAction.IMMEDIATE
                counts[_F.immediate_decisions] += 1
        else:
            action = OffChipAction.NONE
            predicted_offchip = False
            counts[_F.negative_decisions] += 1

        self.last_prediction = predicted_offchip
        return OffChipDecision(
            action=action,
            predicted_offchip=predicted_offchip,
            confidence=confidence,
            metadata={"indices": indices, "confidence": confidence},
        )

    def train(self, metadata: dict, went_offchip: bool) -> None:
        indices = metadata.get("indices")
        if indices is None:
            return
        self.perceptron.train(indices, went_offchip, metadata.get("confidence", 0))

    def reset(self) -> None:
        self.perceptron.reset()
        self.history.reset()
        self.last_prediction = False
        self.zero()

    def storage_kib(self) -> float:
        """FLP storage (weight tables plus page buffer), in KiB."""
        bits = self.perceptron.storage_bits() + self.history.storage_bits()
        return bits / 8.0 / 1024.0


_F = FirstLevelPerceptron.SLOT
