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

The table is direct-mapped by ``pc % table_entries``, so the per-entry state
lives in preallocated parallel rows: a numpy ``int64`` buffer (memoryview
rows) for current page and observation total, plus parallel lists for the
access history, the delta counters and the confirmed-delta list.  The
order-dependent kernel is :meth:`_step`; :meth:`on_demand_access` wraps its
output in :class:`PrefetchRequest` objects for the scalar reference path.
The batch simulator core runs its own port of :meth:`_step` in
``repro/sim/_fused.c`` over the same ``_page_buf``/``_total_buf`` rows and
flat copies of the per-entry containers, bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.common.addresses import PAGE_BITS
from repro.prefetchers.base import L1DPrefetcher, PrefetchRequest

#: Recent-access history depth per table entry (deque maxlen of the original
#: implementation).
_HISTORY_DEPTH = 16


class BertiPrefetcher(L1DPrefetcher):
    """Local-delta prefetcher with per-delta coverage-based confidence."""

    name = "berti"

    def __init__(
        self,
        table_entries: int = 512,
        high_coverage: float = 0.65,
        low_coverage: float = 0.35,
        max_prefetch_degree: int = 2,
        relearn_interval: int = 16,
    ) -> None:
        self.table_entries = table_entries
        self.high_coverage = high_coverage
        self.low_coverage = low_coverage
        self.max_prefetch_degree = max_prefetch_degree
        self.relearn_interval = relearn_interval
        n = table_entries
        # Flat rows: current page (-1 = untouched entry) and observation
        # totals, plus parallel per-entry containers.
        self._page_buf = np.zeros(n, dtype=np.int64)
        self._page_buf[:] = -1
        self._pages = memoryview(self._page_buf)
        self._total_buf = np.zeros(n, dtype=np.int64)
        self._totals = memoryview(self._total_buf)
        self._histories: list[list[int]] = [[] for _ in range(n)]
        #: delta -> hit counter (how often the delta re-occurred in history).
        self._delta_hits: list[dict[int, int]] = [{} for _ in range(n)]
        #: Deltas promoted to "confirmed" with their estimated coverage.
        self._confirmed: list[list[tuple[int, float]]] = [[] for _ in range(n)]

    # ------------------------------------------------------------------
    # Main hook (scalar reference path)
    # ------------------------------------------------------------------
    def on_demand_access(
        self, pc: int, vaddr: int, hit: bool, cycle: int
    ) -> list[PrefetchRequest]:
        block = vaddr >> 6
        confirmed = self._step(pc % self.table_entries, block, vaddr >> PAGE_BITS)
        if not confirmed:
            return []
        requests: list[PrefetchRequest] = []
        for delta, coverage in confirmed[: self.max_prefetch_degree]:
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
                    confidence=coverage,
                    metadata={"delta": delta},
                )
            )
        return requests

    # ------------------------------------------------------------------
    # The order-dependent kernel
    # ------------------------------------------------------------------
    def _step(self, key: int, block: int, page: int) -> list[tuple[int, float]]:
        """Learn from one access and return the entry's confirmed deltas."""
        history = self._histories[key]
        pages = self._pages
        if pages[key] != page:
            # New page for this PC: the local-delta history restarts.
            pages[key] = page
            if history:
                history.clear()

        # Learn: every delta between the new access and the recent history of
        # the same PC within the page counts as an observation; deltas that
        # recur frequently get high coverage.  Coverage is normalised by the
        # number of accesses observed, so a delta seen on (almost) every
        # access approaches coverage 1.0.
        totals = self._totals
        total = totals[key]
        if history:
            delta_hits = self._delta_hits[key]
            seen_deltas = set()
            add_seen = seen_deltas.add
            get_hits = delta_hits.get
            for previous_block in history:
                delta = block - previous_block
                if delta == 0 or delta in seen_deltas:
                    continue
                add_seen(delta)
                delta_hits[delta] = get_hits(delta, 0) + 1
            total += 1
        history.append(block)
        if len(history) > _HISTORY_DEPTH:
            del history[0]

        if total >= self.relearn_interval:
            self._promote_deltas(key, total)
        else:
            totals[key] = total
        return self._confirmed[key]

    def _promote_deltas(self, key: int, total: int) -> None:
        """Recompute the confirmed-delta list from the accumulated counters."""
        delta_hits = self._delta_hits[key]
        confirmed: list[tuple[int, float]] = []
        if total > 0:
            low = self.low_coverage
            for delta, hits in delta_hits.items():
                coverage = hits / total
                if coverage >= low:
                    confirmed.append(
                        (delta, coverage if coverage < 1.0 else 1.0)
                    )
        confirmed.sort(key=lambda item: item[1], reverse=True)
        self._confirmed[key] = confirmed
        # Age the counters so the prefetcher adapts to phase changes.
        self._delta_hits[key] = {
            delta: hits // 2 for delta, hits in delta_hits.items() if hits > 1
        }
        self._totals[key] = total // 2

    def reset(self) -> None:
        self._page_buf[:] = -1
        self._total_buf[:] = 0
        for i in range(self.table_entries):
            self._histories[i].clear()
            self._delta_hits[i].clear()
            self._confirmed[i] = []
