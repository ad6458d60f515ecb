"""Hashed perceptron predictor.

This is the one neural machinery behind FLP (and Hermes, which is FLP
without selective delay), SLP and PPF: one small table of signed saturating
weights per feature, indexed by a hash of the feature value.  A prediction
sums the selected weights and reads positive when the sum reaches the
decision ``threshold`` (0 for FLP and SLP, PPF's issue threshold for PPF);
training increments or decrements them following the standard perceptron
update rule with a training threshold (weights stop moving once the
prediction is both correct and confident).

FLP and SLP derive their feature values from a :class:`FeatureContext`
through each :class:`FeatureSpec`'s extractor (:meth:`predict`); PPF
computes its nine candidate values itself and scores them directly
(:meth:`score`).  A value is an int, or a tuple of ints hashed together
with :func:`hash_combine`.

The prediction path is the hottest code in the simulator (every demand load
and every prefetch candidate consults a perceptron), so the implementation
memoizes the ``feature value -> table index`` hash per feature.  Feature
values repeat heavily across a trace (loads in loops see the same PCs and
offsets), so the memo turns most predictions into dictionary lookups while
remaining bit-identical to the direct hash computation.

Weight storage is one flat numpy ``int32`` buffer.  The scalar path indexes
it through per-feature :class:`memoryview` rows (plain-int reads and writes),
and the batch simulator core's compiled kernel reads and writes the same rows
in place through the buffer protocol, so there is nothing to synchronize.
"""

from __future__ import annotations

import numpy as np

from repro.common.counters import Counters
from repro.common.hashing import hash_combine, table_index
from repro.predictors.features import FeatureContext, FeatureSpec

#: Per-feature memo entries kept before the memo is cleared.  Feature values
#: come from hashes of PCs and addresses, so a trace touches a bounded set;
#: the cap only guards against pathological workloads.
_INDEX_MEMO_LIMIT = 1 << 16


def _index(memo: dict, value, entries: int) -> int:
    """The slot of ``value`` in a table of ``entries`` weights (a tuple
    value hashes its parts together), memoized in ``memo``."""
    if len(memo) >= _INDEX_MEMO_LIMIT:
        memo.clear()
    hashed = hash_combine(*value) if type(value) is tuple else value
    index = table_index(hashed, max(1, (entries - 1).bit_length())) % entries
    memo[value] = index
    return index


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
        threshold: int = 0,
    ) -> None:
        if not features:
            raise ValueError("a perceptron needs at least one feature")
        self.features = list(features)
        self.training_threshold = training_threshold
        #: Decision boundary: a prediction is positive when its confidence
        #: is at least this.
        self.threshold = threshold
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
        self._weight_limits: list[tuple[int, int]] = [
            (-(1 << (spec.weight_bits - 1)), (1 << (spec.weight_bits - 1)) - 1)
            for spec in self.features
        ]
        self._extractors = [spec.extractor for spec in self.features]
        # One value->index memo per feature.
        self._memos: list[dict] = [{} for _ in self.features]
        self.stats = PerceptronStats()

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, context: FeatureContext) -> tuple[int, list[int]]:
        """Return ``(confidence, indices)`` for a feature context."""
        return self.score([extract(context) for extract in self._extractors])

    def score(self, values) -> tuple[int, list[int]]:
        """Return ``(confidence, indices)`` for one value per feature: fused
        index selection and weight summation (the hot loop)."""
        total = 0
        indices = []
        append = indices.append
        for value, memo, table in zip(values, self._memos, self._tables):
            index = memo.get(value)
            if index is None:
                index = _index(memo, value, len(table))
            append(index)
            total += table[index]
        counts = self.stats.counts
        counts[_P.predictions] += 1
        if total >= self.threshold:
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
        predicted_positive = confidence >= self.threshold
        if predicted_positive == target_positive:
            counts[_P.correct_predictions] += 1
            if abs(confidence) >= self.training_threshold:
                return
        delta = 1 if target_positive else -1
        for table, index, (minimum, maximum) in zip(
            self._tables, indices, self._weight_limits
        ):
            updated = table[index] + delta
            table[index] = (
                maximum if updated > maximum else minimum if updated < minimum else updated
            )
        counts[_P.weight_updates] += 1

    def train_on(self, metadata, target_positive: bool) -> None:
        """:meth:`train` on the prediction ``metadata`` describes: a
        decision's metadata dict with ``indices`` and ``confidence`` (no
        ``indices``: nothing to train), or the raw ``(indices,
        confidence)`` tuple the batch core tracks for a prefetch filter."""
        if type(metadata) is tuple:
            indices, confidence = metadata
        else:
            indices = metadata.get("indices")
            if indices is None:
                return
            confidence = metadata.get("confidence", 0)
        self.train(indices, target_positive, confidence)

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
