"""Berti: an accurate local-delta L1D prefetcher (MICRO 2022).

Berti is the second L1D prefetcher used in the paper's evaluation.  Its key
idea is to learn, per load PC, the set of *local deltas* (distances between
accesses of the same PC within a page) that would have produced timely and
accurate prefetches, and to only prefetch with the deltas whose observed
coverage exceeds a confidence threshold.  Compared to IPCP it issues far
fewer prefetches with much higher accuracy (Figure 5b vs 5a of the paper).

This implementation follows the published structure at the fidelity needed
for the study: a per-PC history of recent accesses within the current page,
from which delta coverage is computed, and a per-PC table of confirmed deltas
used to issue prefetches.

State layout
------------

The table is direct-mapped by ``pc % table_entries``; each entry is one row
of flat typed tables (``int64`` arrays and memoryviews over numpy buffers)
that the batch simulator core's compiled kernel (``repro/sim/_fused.c``)
uses in place with its own port of :meth:`_step`, bit-identical.  Per entry
``k``:

* ``_pages[k]``: the entry's current page (-1: untouched) and
  ``_totals[k]``: its observation count;
* the in-page offsets of its last ``_HISTORY_DEPTH`` accesses, oldest
  first: ``_history[k * _HISTORY_DEPTH:]``, of which ``_history_lengths[k]``
  are valid (all in the current page: a page change restarts the history);
* its delta counters in SPP's pattern-table layout: a count per in-page
  delta (``_delta_counts[k * DELTA_SPAN + delta + 63]``, 0: absent) and the
  deltas in insertion order (``_delta_order``, ``_delta_lengths[k]`` of
  them);
* its confirmed deltas, highest coverage first, with their coverage
  (``_confirmed_deltas``/``_confirmed_coverage``, ``_confirmed_lengths[k]``
  of them).

:meth:`on_demand_access` wraps the confirmed deltas in
:class:`PrefetchRequest` objects for the scalar reference path.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.common.addresses import PAGE_BITS
from repro.prefetchers.base import (
    DELTA_SPAN,
    L1DPrefetcher,
    PrefetchRequest,
    check_table_sizes,
    flat_table,
)

#: Recent-access history depth per table entry (deque maxlen of the original
#: implementation).
_HISTORY_DEPTH = 16


class BertiPrefetcher(L1DPrefetcher):
    """Local-delta prefetcher with per-delta coverage-based confidence."""

    name = "berti"

    def __init__(
        self,
        table_entries: int = 512,
        low_coverage: float = 0.35,
        max_prefetch_degree: int = 2,
        relearn_interval: int = 16,
    ) -> None:
        check_table_sizes("Berti", table_entries=table_entries)
        self.table_entries = table_entries
        self.low_coverage = low_coverage
        self.max_prefetch_degree = max_prefetch_degree
        self.relearn_interval = relearn_interval
        self._clear_tables()

    # ------------------------------------------------------------------
    # Main hook (scalar reference path)
    # ------------------------------------------------------------------
    def on_demand_access(
        self, pc: int, vaddr: int, hit: bool, cycle: int
    ) -> list[PrefetchRequest]:
        block = vaddr >> 6
        confirmed = self._step(pc % self.table_entries, block, vaddr >> PAGE_BITS)
        requests: list[PrefetchRequest] = []
        for slot in confirmed[: self.max_prefetch_degree]:
            delta = self._confirmed_deltas[slot]
            target_block = block + delta
            if target_block <= 0:
                continue
            # Low-coverage deltas are only worth prefetching into L1D when
            # coverage is moderate; Berti would send them to L2.  We model
            # both as L1D prefetches but keep the coverage as confidence.
            requests.append(
                PrefetchRequest(
                    vaddr=target_block << 6,
                    trigger_pc=pc,
                    trigger_vaddr=vaddr,
                    confidence=self._confirmed_coverage[slot],
                    metadata={"delta": delta},
                )
            )
        return requests

    # ------------------------------------------------------------------
    # The order-dependent kernel
    # ------------------------------------------------------------------
    def _step(self, key: int, block: int, page: int) -> range:
        """Learn from one access; returns the slots of the entry's
        confirmed deltas."""
        lengths = self._history_lengths
        if self._pages[key] != page:
            # New page for this PC: the local-delta history restarts.
            self._pages[key] = page
            lengths[key] = 0

        # Learn: every delta between the new access and the recent history of
        # the same PC within the page counts as an observation; deltas that
        # recur frequently get high coverage.  Coverage is normalised by the
        # number of accesses observed, so a delta seen on (almost) every
        # access approaches coverage 1.0.
        offset = block & 63
        history = self._history
        base = key * _HISTORY_DEPTH
        length = lengths[key]
        total = self._totals[key]
        if length:
            counts = self._delta_counts
            row = key * DELTA_SPAN
            seen_deltas = set()
            for i in range(base, base + length):
                delta = offset - history[i]
                if delta == 0 or delta in seen_deltas:
                    continue
                seen_deltas.add(delta)
                if counts[row + delta + 63] == 0:
                    self._delta_order[row + self._delta_lengths[key]] = delta
                    self._delta_lengths[key] += 1
                counts[row + delta + 63] += 1
            total += 1
        if length == _HISTORY_DEPTH:
            history[base:base + length - 1] = history[base + 1:base + length]
            history[base + length - 1] = offset
        else:
            history[base + length] = offset
            lengths[key] = length + 1

        if total >= self.relearn_interval:
            self._promote_deltas(key, total)
        else:
            self._totals[key] = total
        row = key * DELTA_SPAN
        return range(row, row + self._confirmed_lengths[key])

    def _promote_deltas(self, key: int, total: int) -> None:
        """Recompute the confirmed-delta list from the accumulated counters."""
        counts = self._delta_counts
        order = self._delta_order
        row = key * DELTA_SPAN
        end = row + self._delta_lengths[key]
        confirmed: list[tuple[int, float]] = []
        if total > 0:
            low = self.low_coverage
            for i in range(row, end):
                delta = order[i]
                coverage = counts[row + delta + 63] / total
                if coverage >= low:
                    confirmed.append(
                        (delta, coverage if coverage < 1.0 else 1.0)
                    )
        confirmed.sort(key=lambda item: item[1], reverse=True)
        self._confirmed_lengths[key] = len(confirmed)
        for slot, (delta, coverage) in enumerate(confirmed, row):
            self._confirmed_deltas[slot] = delta
            self._confirmed_coverage[slot] = coverage
        # Age the counters so the prefetcher adapts to phase changes: halve
        # each count, dropping the deltas that reach 0.
        kept = row
        for i in range(row, end):
            delta = order[i]
            count = counts[row + delta + 63] // 2
            counts[row + delta + 63] = count
            if count:
                order[kept] = delta
                kept += 1
        self._delta_lengths[key] = kept - row
        self._totals[key] = total // 2

    def reset(self) -> None:
        self._clear_tables()

    def _clear_tables(self) -> None:
        n = self.table_entries
        self._pages = array("q", [-1]) * n
        self._totals = array("q", [0]) * n
        self._history = flat_table(n * _HISTORY_DEPTH, np.int8)
        self._history_lengths = flat_table(n, np.uint8)
        self._delta_counts = flat_table(n * DELTA_SPAN, np.int32)
        self._delta_order = flat_table(n * DELTA_SPAN, np.int8)
        self._delta_lengths = flat_table(n, np.uint8)
        self._confirmed_deltas = flat_table(n * DELTA_SPAN, np.int8)
        self._confirmed_coverage = flat_table(n * DELTA_SPAN, np.float64)
        self._confirmed_lengths = flat_table(n, np.uint8)
