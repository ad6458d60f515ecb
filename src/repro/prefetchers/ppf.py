"""PPF: Perceptron-based Prefetch Filtering (ISCA 2019), the filter baseline.

PPF sits behind an aggressive SPP configuration at the L2 and decides, for
every prefetch candidate SPP produces, whether it is likely to be useful.  It
is a hashed perceptron over features of the candidate (PC, physical address,
page offset, delta, signature, lookahead depth, path confidence) trained with
the *usefulness* outcome: positively when the prefetched block is demanded
before eviction, negatively when it is evicted unused.

The paper highlights two drawbacks that TLP addresses: PPF is tuned to a
specific underlying prefetcher (SPP) and requires roughly 40KB of storage.
The default table sizes below reproduce that storage footprint.

PPF computes its nine candidate feature values itself and scores and trains
them through a :class:`HashedPerceptron` (weights, saturating limits,
value->index hashing and update rule) whose decision threshold is the issue
threshold.  Selected indices travel as a list in ``FEATURES`` order, shared
by the scalar :meth:`consult`/:meth:`train` interface and the batch core,
which scores candidates in C on the same weights and hands their
``(indices, confidence)`` back to :meth:`train`.
"""

from __future__ import annotations

from repro.common.counters import Counters
from repro.predictors.features import FeatureSpec
from repro.predictors.perceptron import HashedPerceptron
from repro.prefetchers.base import (
    FilterDecision,
    PrefetchFilter,
    PrefetchRequest,
    check_table_sizes,
)


class PerceptronPrefetchFilter(
    PrefetchFilter, Counters, fields=("consultations", "rejected", "accepted"),
):
    """Perceptron filter over SPP prefetch candidates (PPF)."""

    name = "ppf"

    #: Feature names; each gets its own weight table, in this order.
    FEATURES = (
        "pc",
        "pc_xor_depth",
        "address",
        "cacheline_offset",
        "page_xor_delta",
        "signature_xor_delta",
        "confidence_bucket",
        "pc_xor_offset",
        "delta",
    )

    def __init__(
        self,
        table_entries: int = 4096,
        weight_bits: int = 5,
        issue_threshold: int = -8,
        training_threshold: int = 40,
    ) -> None:
        check_table_sizes("PPF", table_entries=table_entries)
        self.perceptron = HashedPerceptron(
            [FeatureSpec(name, None, table_entries, weight_bits) for name in self.FEATURES],
            training_threshold=training_threshold,
            threshold=issue_threshold,
        )
        Counters.__init__(self)

    # ------------------------------------------------------------------
    # Filter interface (scalar reference path)
    # ------------------------------------------------------------------
    def consult(
        self,
        request: PrefetchRequest,
        paddr: int,
        trigger_offchip_prediction: bool,
        cycle: int,
    ) -> FilterDecision:
        metadata = request.metadata
        issue, total, indices = self.consult_step(
            request.trigger_pc,
            paddr >> 6,
            metadata.get("signature", 0),
            metadata.get("delta", 0),
            metadata.get("depth", 0),
            metadata.get("path_confidence", request.confidence),
        )
        return FilterDecision(
            issue=issue,
            confidence=total,
            metadata={"indices": indices, "confidence": total},
        )

    def train(self, metadata, outcome: bool) -> None:
        """Train with ``outcome`` = True when the prefetch turned out useful.

        ``metadata`` is either the consult decision's metadata dict or the
        raw ``(indices, confidence)`` tuple the batch core tracks.
        """
        self.perceptron.train_on(metadata, outcome)

    def consult_step(
        self,
        trigger_pc: int,
        block: int,
        signature: int,
        delta: int,
        depth: int,
        path_confidence: float,
    ) -> tuple[bool, int, list[int]]:
        """Score one candidate; returns ``(issue, confidence, indices)``.

        ``block`` is the physical block address of the candidate
        (``paddr >> 6``); the page and in-page offset derive from it.
        """
        self.counts[_PPF.consultations] += 1
        offset = block & 63
        perceptron = self.perceptron
        # The two combined features are tuples, hashed together on a memo
        # miss only.
        total, indices = perceptron.score((
            trigger_pc,
            trigger_pc ^ (depth << 5),
            block,
            offset,
            (block >> 6, delta),
            (signature, delta),
            int(min(0.999, max(0.0, path_confidence)) * 8),
            trigger_pc ^ offset,
            delta & 0xFFF,
        ))
        issue = total >= perceptron.threshold
        self.counts[_PPF.accepted if issue else _PPF.rejected] += 1
        return issue, total, indices

    def reset(self) -> None:
        self.perceptron.reset()
        self.zero()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def storage_kib(self) -> float:
        """Weight storage in KiB (~40KB with the default configuration)."""
        return self.perceptron.storage_kib()

    @property
    def reject_rate(self) -> float:
        """Fraction of consulted candidates that were rejected."""
        if self.consultations == 0:
            return 0.0
        return self.rejected / self.consultations


_PPF = PerceptronPrefetchFilter.SLOT
