"""SPP: Signature Path Prefetcher (MICRO 2016), the baseline L2 prefetcher.

SPP learns, per physical page, a compressed *signature* of the recent delta
history and uses a signature-indexed pattern table to predict the next delta
with a confidence.  Prediction is recursive ("lookahead"): after predicting a
delta, the signature is advanced as if the prediction had happened and the
table is consulted again, multiplying confidences down the path, until the
path confidence falls below a threshold.  High-confidence prefetches are
placed in the L2, low-confidence ones in the LLC -- which is what the paper
means by "SPP ... brings prefetched blocks into either the L2C or the LLC
depending on its internal prefetch logic".

State layout
------------

Both tables are flat typed arrays that the batch simulator core's compiled
kernel (``repro/sim/_fused.c``) uses in place.  The signature table is a
:class:`FifoTable` of ``signature_table_entries`` pages, ``_signatures``,
with each slot's ``(signature << 6) | last_offset`` in
``_signature_packed``.  The pattern table is direct-mapped by
``signature % pattern_table_entries`` and lives in flat one-byte arrays
(memoryviews over ``np.zeros`` buffers).  Per entry: a count per in-page
delta (indexed ``entry * 127 + delta + 63``), the deltas in insertion order
with their number, the counts' total and a memo of the first maximal delta and
its count (count 0: not memoized).  Training halves every count once the
total reaches 64, so no count or total exceeds 64.  The order-dependent
kernel is :meth:`step`, which returns plain prediction tuples;
:meth:`on_access` wraps them in :class:`PrefetchRequest` objects for the
scalar reference path.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.common.addresses import BLOCK_SIZE
from repro.common.counters import Counters
from repro.common.types import MemLevel
from repro.prefetchers.base import (
    DELTA_SPAN,
    FifoTable,
    L2Prefetcher,
    PrefetchRequest,
    check_table_sizes,
    flat_table,
)


class SPPPrefetcher(L2Prefetcher, Counters, fields=("lookahead_prefetches",)):
    """Signature path prefetcher with lookahead and confidence-based fill level."""

    name = "spp"

    def __init__(
        self,
        signature_table_entries: int = 256,
        pattern_table_entries: int = 512,
        lookahead_confidence: float = 0.25,
        l2_fill_confidence: float = 0.5,
        max_lookahead_depth: int = 4,
        aggressive: bool = False,
    ) -> None:
        check_table_sizes(
            "SPP", signature_table_entries=signature_table_entries,
            pattern_table_entries=pattern_table_entries,
        )
        self.signature_table_entries = signature_table_entries
        self.pattern_table_entries = pattern_table_entries
        self.lookahead_confidence = lookahead_confidence
        self.l2_fill_confidence = l2_fill_confidence
        self.max_lookahead_depth = max_lookahead_depth
        #: The "aggressive" preset is used when PPF is attached: the paper
        #: configures SPP as the PPF work indicates (lower thresholds, deeper
        #: lookahead) so that the filter has headroom to exploit.
        if aggressive:
            self.lookahead_confidence = 0.10
            self.l2_fill_confidence = 0.25
            self.max_lookahead_depth = 8
        self._clear_tables()
        Counters.__init__(self)

    # ------------------------------------------------------------------
    # Main hook (scalar reference path)
    # ------------------------------------------------------------------
    def on_access(
        self, paddr: int, pc: int, hit: bool, cycle: int
    ) -> list[PrefetchRequest]:
        predictions = self.step(paddr >> 6, pc)
        if not predictions:
            return []
        requests: list[PrefetchRequest] = []
        for block, fill_l2, signature, delta, depth, path_confidence in predictions:
            requests.append(
                PrefetchRequest(
                    vaddr=block * BLOCK_SIZE,
                    trigger_pc=pc,
                    trigger_vaddr=paddr,
                    fill_level=MemLevel.L2C if fill_l2 else MemLevel.LLC,
                    confidence=path_confidence,
                    metadata={
                        "signature": signature,
                        "delta": delta,
                        "depth": depth,
                        "path_confidence": path_confidence,
                    },
                )
            )
        return requests

    # ------------------------------------------------------------------
    # The order-dependent kernel
    # ------------------------------------------------------------------
    def step(
        self, block: int, pc: int
    ) -> list[tuple[int, bool, int, int, int, float]] | None:
        """Observe one L2 access (by block address) and predict ahead.

        Returns ``(block, fill_l2, signature, delta, depth, path_confidence)``
        tuples -- one per lookahead prediction -- or None.
        """
        page = block >> 6
        offset = block & 0x3F

        slot = self._signatures.find(page)
        if slot < 0:
            slot = self._signatures.insert(page)
            self._signature_packed[slot] = offset  # signature starts at 0
            return None

        packed = self._signature_packed[slot]
        delta = offset - (packed & 0x3F)
        if delta == 0:
            return None
        signature = packed >> 6

        # Train the pattern table with the observed delta for the previous
        # signature, then advance the signature.
        m = self.pattern_table_entries
        counts = self._pattern_counts
        deltas = self._pattern_deltas
        lengths = self._pattern_lengths
        totals = self._pattern_totals
        best_deltas = self._pattern_best_delta
        best_counts = self._pattern_best_count
        key = signature % m
        row = key * DELTA_SPAN
        at = row + delta + 63
        if counts[at] == 0:
            deltas[row + lengths[key]] = delta
            lengths[key] += 1
        counts[at] += 1
        total = totals[key] + 1
        if total >= 64:
            # Periodically halve the counters so stale deltas fade away.
            kept = total = 0
            for i in range(row, row + lengths[key]):
                d = deltas[i]
                count = counts[row + d + 63] // 2
                counts[row + d + 63] = count
                if count:
                    deltas[row + kept] = d
                    kept += 1
                    total += count
            lengths[key] = kept
        best_counts[key] = 0
        totals[key] = total

        signature = ((signature << 3) ^ (delta & 0x7F)) & 0xFFF
        self._signature_packed[slot] = (signature << 6) | offset

        # Lookahead prediction along the signature path.
        predictions: list[tuple[int, bool, int, int, int, float]] | None = None
        path_confidence = 1.0
        predicted_block = block
        lookahead_confidence = self.lookahead_confidence
        l2_fill_confidence = self.l2_fill_confidence
        for depth in range(self.max_lookahead_depth):
            key = signature % m
            total = totals[key]
            if total == 0:
                break
            if best_counts[key] == 0:
                # The first maximal count in insertion order.
                row = key * DELTA_SPAN
                for i in range(row, row + lengths[key]):
                    count = counts[row + deltas[i] + 63]
                    if count > best_counts[key]:
                        best_counts[key] = count
                        best_deltas[key] = deltas[i]
            predicted_delta = best_deltas[key]
            path_confidence *= best_counts[key] / total
            if path_confidence < lookahead_confidence:
                break
            predicted_block = predicted_block + predicted_delta
            if predicted_block <= 0:
                break
            if predictions is None:
                predictions = []
            predictions.append(
                (
                    predicted_block,
                    path_confidence >= l2_fill_confidence,
                    signature,
                    predicted_delta,
                    depth,
                    path_confidence,
                )
            )
            if depth > 0:
                self.counts[_LOOKAHEAD] += 1
            signature = ((signature << 3) ^ (predicted_delta & 0x7F)) & 0xFFF
        return predictions

    def reset(self) -> None:
        self._clear_tables()
        self.zero()

    def _clear_tables(self) -> None:
        self._signatures = FifoTable(self.signature_table_entries)
        self._signature_packed = array("q", [0]) * self.signature_table_entries
        m = self.pattern_table_entries
        self._pattern_counts = flat_table(m * DELTA_SPAN, np.uint8)
        self._pattern_deltas = flat_table(m * DELTA_SPAN, np.int8)
        self._pattern_lengths = flat_table(m, np.uint8)
        self._pattern_totals = flat_table(m, np.uint8)
        self._pattern_best_delta = flat_table(m, np.int8)
        self._pattern_best_count = flat_table(m, np.uint8)


_LOOKAHEAD = SPPPrefetcher.SLOT.lookahead_prefetches
