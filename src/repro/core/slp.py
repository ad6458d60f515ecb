"""Second Level Perceptron (SLP) predictor -- Section IV-B of the paper.

SLP is an off-chip predictor for *L1D prefetch requests*, used as a prefetch
filter.  The observation motivating it (Finding 4, Figures 5/6) is that the
vast majority of L1D prefetches that end up being served from DRAM are
inaccurate, so "this prefetch will go off-chip" is a strong proxy for "this
prefetch is useless".

SLP reuses the FLP feature set adapted to physical addresses (it sits below
the L1D, after translation) and adds the *leveling feature*: the FLP
prediction bit of the demand access that triggered the prefetch, combined
with the cacheline offset of the prefetch target within its physical page.

When the L1D prefetcher proposes a candidate, SLP computes a confidence
value; if it exceeds ``tau_pref`` the prefetch is predicted to be served
off-chip and is discarded.  SLP is trained when the (issued) prefetch
completes, positively if it was served from DRAM and negatively otherwise.
"""

from __future__ import annotations

from repro.common.counters import Counters
from repro.predictors.features import FeatureHistory, slp_features
from repro.predictors.perceptron import HashedPerceptron
from repro.prefetchers.base import FilterDecision, PrefetchFilter, PrefetchRequest


class SecondLevelPerceptron(
    PrefetchFilter, Counters, fields=("consultations", "discarded", "issued"),
):
    """SLP: off-chip prediction used as an adaptive L1D prefetch filter."""

    name = "slp"

    def __init__(
        self,
        tau_pref: int = 8,
        table_entries: int | None = None,
        weight_bits: int = 5,
        training_threshold: int = 34,
        page_buffer_entries: int = 128,
        use_leveling_feature: bool = True,
    ) -> None:
        self.tau_pref = tau_pref
        self.use_leveling_feature = use_leveling_feature
        self.perceptron = HashedPerceptron(
            slp_features(table_entries, weight_bits),
            training_threshold=training_threshold,
        )
        self.history = FeatureHistory(page_buffer_entries=page_buffer_entries)
        Counters.__init__(self)

    def consult(
        self,
        request: PrefetchRequest,
        paddr: int,
        trigger_offchip_prediction: bool,
        cycle: int,
    ) -> FilterDecision:
        """Decide whether the L1D prefetch candidate should be issued."""
        issue, confidence, indices = self.consult_step(
            request.trigger_pc, paddr, trigger_offchip_prediction
        )
        return FilterDecision(
            issue=issue,
            confidence=confidence,
            metadata={
                "indices": indices,
                "confidence": confidence,
                "predicted_offchip": not issue,
            },
        )

    def consult_step(
        self, trigger_pc: int, paddr: int, trigger_offchip_prediction: bool
    ) -> tuple[bool, int, list[int]]:
        """Score one candidate; returns ``(issue, confidence, indices)``.

        The kernel behind :meth:`consult` (no request/decision objects).
        """
        counts = self.counts
        counts[_S.consultations] += 1
        flp_bit = trigger_offchip_prediction if self.use_leveling_feature else False
        history = self.history
        context = history.context(trigger_pc, paddr, flp_prediction=flp_bit)
        confidence, indices = self.perceptron.predict(context)
        history.observe(trigger_pc, paddr)
        issue = confidence < self.tau_pref
        counts[_S.issued if issue else _S.discarded] += 1
        return issue, confidence, indices

    def train(self, metadata, outcome: bool) -> None:
        """Train with ``outcome`` = True when the prefetch was served off-chip.

        ``metadata`` is either the consult decision's metadata dict or the
        raw ``(indices, confidence)`` tuple the batch core tracks.
        """
        if type(metadata) is tuple:
            indices, confidence = metadata
        else:
            indices = metadata.get("indices")
            if indices is None:
                return
            confidence = metadata.get("confidence", 0)
        self.perceptron.train(indices, outcome, confidence)

    def reset(self) -> None:
        self.perceptron.reset()
        self.history.reset()
        self.zero()

    @property
    def discard_rate(self) -> float:
        """Fraction of consulted prefetch candidates that were discarded."""
        if self.consultations == 0:
            return 0.0
        return self.discarded / self.consultations

    def storage_kib(self) -> float:
        """SLP storage (weight tables plus page buffer), in KiB."""
        bits = self.perceptron.storage_bits() + self.history.storage_bits()
        return bits / 8.0 / 1024.0


_S = SecondLevelPerceptron.SLOT
