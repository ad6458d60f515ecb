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

State layout
------------

All weights live in one flat numpy ``int32`` buffer (the
:class:`HashedPerceptron` pattern), indexed through per-feature
:class:`memoryview` rows; :meth:`reset` zeroes the buffer in place so the
rows stay valid.  Selected indices travel as a list in ``FEATURES`` order
(not a name-keyed dict), shared by the scalar :meth:`consult`/:meth:`train`
interface and the batch core's direct :meth:`consult_step`/
:meth:`train_step` calls.
"""

from __future__ import annotations

import numpy as np

from repro.common.counters import Counters
from repro.common.hashing import fold_xor, hash_combine, jenkins32
from repro.prefetchers.base import (
    FilterDecision,
    PrefetchFilter,
    PrefetchRequest,
    check_table_sizes,
)

#: Per-feature memo entries kept before the memo is cleared (matches
#: HashedPerceptron's cap).
_INDEX_MEMO_LIMIT = 1 << 16


class PerceptronPrefetchFilter(
    PrefetchFilter, Counters, fields=("consultations", "rejected", "accepted"),
):
    """Perceptron filter over SPP prefetch candidates (PPF)."""

    name = "ppf"

    #: Feature names; each gets its own weight table (a memoryview row of
    #: the flat buffer, in this order).
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
        self.table_entries = table_entries
        self.weight_bits = weight_bits
        self.issue_threshold = issue_threshold
        self.training_threshold = training_threshold
        self._max_weight = (1 << (weight_bits - 1)) - 1
        self._min_weight = -(1 << (weight_bits - 1))
        n_features = len(self.FEATURES)
        self._weights = np.zeros(n_features * table_entries, dtype=np.int32)
        buffer = memoryview(self._weights)
        self._tables: list[memoryview] = [
            buffer[i * table_entries:(i + 1) * table_entries]
            for i in range(n_features)
        ]
        self._index_bits = max(1, (table_entries - 1).bit_length())
        # value -> index memo per feature; feature values repeat heavily so
        # this removes most hash computations from the consult hot path.
        self._index_memos: list[dict[int, int]] = [{} for _ in range(n_features)]
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
        if type(metadata) is tuple:
            indices, confidence = metadata
        else:
            indices = metadata.get("indices")
            if indices is None:
                return
            confidence = metadata.get("confidence", 0)
        self.train_step(indices, confidence, outcome)

    # ------------------------------------------------------------------
    # The kernels (shared with the batch core)
    # ------------------------------------------------------------------
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
        page = block >> 6
        offset = block & 63
        confidence = path_confidence
        confidence_bucket = int(min(0.999, max(0.0, confidence)) * 8)
        # Combined features are memoized on their raw component tuples so
        # hash_combine only runs on memo misses; the resulting index is the
        # same either way (same hash composition, different memo key).
        values = (
            trigger_pc,
            trigger_pc ^ (depth << 5),
            block,
            offset,
            (page, delta),
            (signature, delta),
            confidence_bucket,
            trigger_pc ^ offset,
            delta & 0xFFF,
        )
        total = 0
        indices: list[int] = []
        append = indices.append
        bits = self._index_bits
        entries = self.table_entries
        memos = self._index_memos
        tables = self._tables
        feature = 0
        for value in values:
            memo = memos[feature]
            index = memo.get(value)
            if index is None:
                if len(memo) >= _INDEX_MEMO_LIMIT:
                    memo.clear()
                hashed = hash_combine(*value) if type(value) is tuple else value
                index = fold_xor(jenkins32(hashed), bits) % entries
                memo[value] = index
            append(index)
            total += tables[feature][index]
            feature += 1
        issue = total >= self.issue_threshold
        self.counts[_PPF.accepted if issue else _PPF.rejected] += 1
        return issue, total, indices

    def train_step(self, indices: list[int], confidence: int, outcome: bool) -> None:
        """Apply the perceptron update for one resolved prefetch."""
        predicted_useful = confidence >= self.issue_threshold
        if predicted_useful == outcome and abs(confidence) >= self.training_threshold:
            return
        delta = 1 if outcome else -1
        tables = self._tables
        max_weight = self._max_weight
        min_weight = self._min_weight
        feature = 0
        for index in indices:
            updated = tables[feature][index] + delta
            if updated > max_weight:
                updated = max_weight
            elif updated < min_weight:
                updated = min_weight
            tables[feature][index] = updated
            feature += 1

    def reset(self) -> None:
        self._weights[:] = 0
        self.zero()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def storage_kib(self) -> float:
        """Weight storage in KiB (~40KB with the default configuration)."""
        bits = len(self.FEATURES) * self.table_entries * self.weight_bits
        return bits / 8.0 / 1024.0

    @property
    def reject_rate(self) -> float:
        """Fraction of consulted candidates that were rejected."""
        if self.consultations == 0:
            return 0.0
        return self.rejected / self.consultations


_PPF = PerceptronPrefetchFilter.SLOT
