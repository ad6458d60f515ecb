"""Hashed perceptron predictor.

This is the shared neural machinery behind Hermes, PPF, FLP and SLP: one
small table of signed saturating weights per program feature, indexed by a
hash of the feature value.  A prediction sums the selected weights; training
increments or decrements them following the standard perceptron update rule
with a training threshold (weights stop moving once the prediction is both
correct and confident).

The prediction path is the hottest code in the simulator (every demand load
and every prefetch candidate consults a perceptron), so the implementation
precomputes per-feature index widths at construction time and memoizes the
``feature value -> table index`` hash per feature.  Feature values repeat
heavily across a trace (loads in loops see the same PCs and offsets), so the
memo turns most predictions into dictionary lookups while remaining
bit-identical to the direct hash computation.

Weight storage is one flat numpy ``int32`` buffer.  The scalar path indexes
it through per-feature :class:`memoryview` rows (plain-int reads and writes),
and the batch simulator core's compiled kernel reads and writes the same rows
in place through the buffer protocol, so there is nothing to synchronize.
"""

from __future__ import annotations

import numpy as np

from repro.common.counters import Counters
from repro.common.hashing import table_index
from repro.predictors.features import FeatureContext, FeatureSpec

#: Per-feature memo entries kept before the memo is cleared.  Feature values
#: come from hashes of PCs and addresses, so a trace touches a bounded set;
#: the cap only guards against pathological workloads.
_INDEX_MEMO_LIMIT = 1 << 16


class PerceptronStats(Counters, fields=(
    "predictions", "positive_predictions", "training_events", "weight_updates",
    "correct_predictions",
)):
    """Training/prediction counters of one perceptron instance."""

    @property
    def accuracy(self) -> float:
        """Fraction of trained predictions that matched the outcome."""
        if self.training_events == 0:
            return 0.0
        return self.correct_predictions / self.training_events


_P = PerceptronStats.SLOT


class HashedPerceptron:
    """A multi-feature hashed perceptron with saturating integer weights."""

    def __init__(
        self,
        features: list[FeatureSpec],
        training_threshold: int = 32,
    ) -> None:
        if not features:
            raise ValueError("a perceptron needs at least one feature")
        self.features = list(features)
        self.training_threshold = training_threshold
        # All weights live in one flat int32 buffer; each feature's table is
        # a zero-copy memoryview slice of it.  Memoryview subscripts return
        # plain Python ints, keeping the scalar loop cheap.
        offsets = [0]
        for spec in self.features:
            offsets.append(offsets[-1] + spec.table_entries)
        self._weights = np.zeros(offsets[-1], dtype=np.int32)
        buffer = memoryview(self._weights)
        self._tables: list[memoryview] = [
            buffer[offsets[i]:offsets[i + 1]] for i in range(len(self.features))
        ]
        self._weight_limits: list[tuple[int, int]] = []
        for spec in self.features:
            maximum = (1 << (spec.weight_bits - 1)) - 1
            minimum = -(1 << (spec.weight_bits - 1))
            self._weight_limits.append((minimum, maximum))
        # Hot-path plan: one row per feature holding everything the fused
        # prediction loop needs (extractor, index bits, entry count, weight
        # table, value->index memo), so predict() touches no attributes of
        # FeatureSpec and recomputes no bit widths.
        self._plan: list[tuple] = [
            (
                spec.extractor,
                max(1, (spec.table_entries - 1).bit_length()),
                spec.table_entries,
                table,
                {},
            )
            for spec, table in zip(self.features, self._tables)
        ]
        self.stats = PerceptronStats()

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, context: FeatureContext) -> tuple[int, list[int]]:
        """Return ``(confidence, indices)`` for a feature context: fused
        index selection and weight summation (the hot loop)."""
        total = 0
        indices = []
        append = indices.append
        for extractor, bits, entries, table, memo in self._plan:
            value = extractor(context)
            index = memo.get(value)
            if index is None:
                if len(memo) >= _INDEX_MEMO_LIMIT:
                    memo.clear()
                index = table_index(value, bits) % entries
                memo[value] = index
            append(index)
            total += table[index]
        counts = self.stats.counts
        counts[_P.predictions] += 1
        if total >= 0:
            counts[_P.positive_predictions] += 1
        return total, indices

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(self, indices: list[int], target_positive: bool, confidence: int) -> None:
        """Apply the perceptron update rule.

        Weights are updated when the prediction disagreed with the outcome or
        when its magnitude was below the training threshold.
        """
        counts = self.stats.counts
        counts[_P.training_events] += 1
        predicted_positive = confidence >= 0
        if predicted_positive == target_positive:
            counts[_P.correct_predictions] += 1
        needs_update = (
            predicted_positive != target_positive
            or abs(confidence) < self.training_threshold
        )
        if not needs_update:
            return
        delta = 1 if target_positive else -1
        for table, index, (minimum, maximum) in zip(
            self._tables, indices, self._weight_limits
        ):
            updated = table[index] + delta
            table[index] = min(maximum, max(minimum, updated))
        counts[_P.weight_updates] += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def storage_bits(self) -> int:
        """Total weight storage, in bits."""
        return sum(spec.storage_bits() for spec in self.features)

    def storage_kib(self) -> float:
        """Total weight storage, in KiB."""
        return self.storage_bits() / 8.0 / 1024.0

    def weight(self, feature_index: int, entry: int) -> int:
        """Read one weight (used by tests)."""
        return self._tables[feature_index][entry]

    def reset(self) -> None:
        """Zero every weight and clear statistics.

        The flat buffer is zeroed in place so the memoryview rows held by
        the prediction plan stay valid.
        """
        self._weights[:] = 0
        self.stats.zero()
