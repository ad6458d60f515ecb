"""Composition of the full memory hierarchy.

This module glues together the caches, DRAM, page table, prefetchers,
prefetch filters and the off-chip predictor into the per-core
:class:`MemoryHierarchy` used by the simulation drivers.  Shared state
between cores (the LLC and the DRAM channel) lives in :class:`SharedMemory`
so that the multi-core driver can instantiate one shared back-end and four
private front-ends.

The demand access flow mirrors the paper's Figure 9:

1. the core consults the off-chip predictor (Hermes/FLP) and obtains an
   :class:`~repro.predictors.base.OffChipDecision`;
2. ``IMMEDIATE`` decisions fire a speculative DRAM request in parallel with
   the L1D lookup, ``DELAYED`` decisions fire it only after an L1D miss,
   ``NONE`` decisions do nothing;
3. the demand access walks L1D -> L2C -> LLC -> DRAM accumulating latency;
4. the L1D prefetcher observes the access and produces candidates that the
   L1D prefetch filter (SLP in TLP, nothing in the baselines) may drop;
5. on an L1D miss the access reaches the L2, where SPP produces candidates
   filtered by PPF when present;
6. on completion the off-chip predictor and the filters are trained with the
   observed outcomes.
"""

from __future__ import annotations

import weakref
from typing import Optional

from repro.common.addresses import block_address
from repro.common.config import SystemConfig
from repro.common.counters import Counters
from repro.common.types import AccessOutcome, MemLevel, RequestSource
from repro.memory.cache import Cache, EvictionInfo
from repro.memory.dram import DRAMModel
from repro.memory.paging import PageTable
from repro.predictors.base import (
    NullOffChipPredictor,
    OffChipAction,
    OffChipPredictor,
)
from repro.prefetchers.base import (
    L1DPrefetcher,
    L2Prefetcher,
    PrefetchFilter,
    PrefetchRequest,
)


#: A per-level counter group: one slot per MemLevel, L1D to DRAM.
_BY_LEVEL = tuple(MemLevel)


class HierarchyStats(Counters, fields=(
    "demand_loads", "demand_stores", ("served_by", _BY_LEVEL),
    # Where the block actually resided when a speculative off-chip request
    # was issued (Figure 4 of the paper).
    ("offchip_prediction_location", _BY_LEVEL),
    "speculative_requests", "delayed_speculative_requests",
    "delayed_predictions_saved", "offchip_predictions",
    "l1d_prefetch_candidates", "l1d_prefetches_filtered",
    "l1d_prefetches_dropped_resident", "l1d_prefetches_dropped_queue_full",
    "l2c_prefetches_dropped_queue_full", "l1d_prefetches_issued",
    ("l1d_prefetch_served_by", _BY_LEVEL),
    "l2c_prefetch_candidates", "l2c_prefetches_filtered",
    "l2c_prefetches_dropped_resident", "l2c_prefetches_issued",
    "useful_l1d_prefetches", "useless_l1d_prefetches",
    # Accurate/inaccurate L1D prefetches broken down by the level that
    # served them (Figures 5 and 6).
    ("accurate_prefetch_source", _BY_LEVEL),
    ("inaccurate_prefetch_source", _BY_LEVEL),
)):
    """Aggregate statistics of one core's view of the hierarchy."""


#: Slots of :class:`HierarchyStats`, for the demand and prefetch paths.
_H = HierarchyStats.SLOT


class SharedMemory:
    """LLC and DRAM shared by all cores of a simulation."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.llc = Cache(config.scaled_llc())
        self.dram = DRAMModel(config.dram)


class MemoryHierarchy:
    """One core's private caches plus references to the shared back-end."""

    def __init__(
        self,
        config: SystemConfig,
        shared: Optional[SharedMemory] = None,
        core_id: int = 0,
        l1d_prefetcher: Optional[L1DPrefetcher] = None,
        l2_prefetcher: Optional[L2Prefetcher] = None,
        l1d_prefetch_filter: Optional[PrefetchFilter] = None,
        l2_prefetch_filter: Optional[PrefetchFilter] = None,
        offchip_predictor: Optional[OffChipPredictor] = None,
    ) -> None:
        self.config = config
        self.core_id = core_id
        self.shared = shared if shared is not None else SharedMemory(config)
        # The private caches report evictions through a weak reference: a
        # bound method would make hierarchy <-> cache a reference cycle, and
        # a finished hierarchy would then wait for the cyclic GC to free it.
        owner = weakref.ref(self)
        self.l1d = Cache(
            config.l1d,
            eviction_listener=lambda info: owner()._on_l1d_eviction(info),
        )
        self.l2c = Cache(
            config.l2c,
            eviction_listener=lambda info: owner()._on_l2c_eviction(info),
        )
        self.page_table = PageTable(core_id=core_id)
        self.l1d_prefetcher = l1d_prefetcher
        self.l2_prefetcher = l2_prefetcher
        self.l1d_prefetch_filter = l1d_prefetch_filter
        self.l2_prefetch_filter = l2_prefetch_filter
        self.offchip_predictor = (
            offchip_predictor if offchip_predictor is not None else NullOffChipPredictor()
        )
        self.stats = HierarchyStats()
        self._predictor_latency = config.core.offchip_predictor_latency
        # Prefetches that would go to DRAM are dropped once the channel
        # backlog exceeds this many cycles, modelling ChampSim's finite
        # prefetch queues (prefetchers cannot swamp a saturated channel).
        self._prefetch_drop_queue_cycles = 8 * self.shared.dram.cycles_per_transaction
        # PPF training metadata for blocks prefetched into L2/LLC by SPP.
        self._pending_l2c_prefetches: dict[int, dict] = {}

    # ------------------------------------------------------------------
    # Shared back-end helpers
    # ------------------------------------------------------------------
    @property
    def llc(self) -> Cache:
        """The shared last-level cache."""
        return self.shared.llc

    @property
    def dram(self) -> DRAMModel:
        """The shared DRAM channel."""
        return self.shared.dram

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------
    def demand_access(
        self, pc: int, vaddr: int, cycle: int, is_write: bool = False
    ) -> AccessOutcome:
        """Perform one demand access and return its outcome.

        The returned :class:`AccessOutcome` carries both the latency of the
        normal hierarchy path and the effective latency observed by the core
        after accounting for any speculative off-chip request that raced it.

        Speculative off-chip requests follow Hermes' semantics: the regular
        demand request still walks the cache hierarchy, but if it misses
        everywhere it *merges* with the in-flight speculative DRAM request at
        the memory controller instead of producing a second DRAM transaction.
        Wrong speculative requests (the block was on-chip) therefore cost one
        useless DRAM transaction each, which is exactly the overhead the
        paper quantifies in Figures 2/3.
        """
        counts = self.stats.counts
        l1d = self.l1d
        paddr = self.page_table.translate(vaddr)
        block = block_address(paddr)
        if is_write:
            counts[_H.demand_stores] += 1
        else:
            counts[_H.demand_loads] += 1

        decision = self.offchip_predictor.predict(pc, vaddr, cycle)
        if decision.predicted_offchip:
            counts[_H.offchip_predictions] += 1

        speculative_issued = False
        speculative_ready: Optional[int] = None
        if decision.action is OffChipAction.IMMEDIATE:
            speculative_issued = True
            counts[_H.speculative_requests] += 1
            self._record_offchip_prediction_location(block)
            dram_latency = self.dram.access(
                cycle + self._predictor_latency, RequestSource.SPECULATIVE_OFFCHIP
            )
            speculative_ready = self._predictor_latency + dram_latency

        # --- L1D lookup -------------------------------------------------
        latency = l1d.latency
        hit = l1d.lookup(block, is_write=is_write)
        l1d_hit = hit is not None
        prefetch_hit = False
        if l1d_hit:
            ready, prefetch_hit = hit
            if ready > cycle:
                # The block is present but its fill (typically an in-flight
                # prefetch) has not arrived yet; the demand access waits.
                latency = max(latency, ready - cycle)
            if prefetch_hit:
                self._resolve_l1d_prefetch_use(block)

        # The L1D prefetcher observes every demand access to the L1D.
        self._run_l1d_prefetcher(pc, vaddr, paddr, l1d_hit, cycle)

        # Selective delay (FLP): the speculative request is only fired once
        # the L1D lookup has resolved as a miss.
        if decision.action is OffChipAction.DELAYED:
            if l1d_hit:
                counts[_H.delayed_predictions_saved] += 1
            else:
                speculative_issued = True
                counts[_H.speculative_requests] += 1
                counts[_H.delayed_speculative_requests] += 1
                self._record_offchip_prediction_location(
                    block, already_missed_l1d=True
                )
                issue_at = cycle + l1d.latency + self._predictor_latency
                dram_latency = self.dram.access(
                    issue_at, RequestSource.SPECULATIVE_OFFCHIP
                )
                speculative_ready = (
                    l1d.latency + self._predictor_latency + dram_latency
                )

        if l1d_hit:
            served_by = MemLevel.L1D
        else:
            served_by, latency = self._walk_below_l1d(
                pc, paddr, block, cycle, latency, is_write,
                speculative_in_flight=speculative_ready is not None,
            )

        effective_latency = latency
        if speculative_ready is not None and served_by is MemLevel.DRAM:
            # The demand request merges with the speculative one: the data
            # arrives when the speculative fetch completes (which started
            # earlier than the demand's own DRAM access would have, hiding
            # the on-chip lookup latency).
            effective_latency = max(l1d.latency, speculative_ready)

        went_offchip = served_by is MemLevel.DRAM
        self.offchip_predictor.train(decision.metadata, went_offchip)

        counts[_H.served_by + served_by] += 1
        return AccessOutcome(
            served_by=served_by,
            latency=latency,
            effective_latency=effective_latency,
            offchip_prediction=decision.predicted_offchip,
            speculative_dram_issued=speculative_issued,
            prefetch_hit=prefetch_hit,
        )

    def _walk_below_l1d(
        self,
        pc: int,
        paddr: int,
        block: int,
        cycle: int,
        latency: int,
        is_write: bool,
        speculative_in_flight: bool,
    ) -> tuple[MemLevel, int]:
        """Walk L2C -> LLC -> DRAM after an L1D miss.

        Returns ``(served_by, total_latency)``.  When a speculative off-chip
        request is already in flight for this block, the DRAM access of the
        demand request merges with it and does not count as a transaction.
        """
        latency += self.l2c.latency
        hit = self.l2c.lookup(block, is_write=is_write)
        l2_hit = hit is not None
        if l2_hit:
            ready, l2_prefetch_hit = hit
            if ready > cycle:
                latency = max(latency, ready - cycle)
            if l2_prefetch_hit:
                self._resolve_l2c_prefetch_use(block)

        # SPP observes L2 demand accesses.
        self._run_l2_prefetcher(pc, paddr, l2_hit, cycle)

        if l2_hit:
            self.l1d.fill(block, cycle=cycle, ready_cycle=cycle + latency)
            return MemLevel.L2C, latency

        latency += self.llc.latency
        hit = self.llc.lookup(block, is_write=is_write)
        if hit is not None:
            ready = hit[0]
            if ready > cycle:
                latency = max(latency, ready - cycle)
            self.l1d.fill(block, cycle=cycle, ready_cycle=cycle + latency)
            self.l2c.fill(block, cycle=cycle, ready_cycle=cycle + latency)
            return MemLevel.LLC, latency

        if speculative_in_flight:
            # Merged with the speculative fetch at the memory controller:
            # the block still travels the fill path but no second DRAM
            # transaction is generated.
            dram_latency = self.dram.config.access_latency
        else:
            dram_latency = self.dram.access(cycle + latency, RequestSource.DEMAND)
        latency += dram_latency
        ready = cycle + latency
        self.llc.fill(block, cycle=cycle, ready_cycle=ready)
        self.l2c.fill(block, cycle=cycle, ready_cycle=ready)
        self.l1d.fill(block, cycle=cycle, ready_cycle=ready)
        return MemLevel.DRAM, latency

    def _record_offchip_prediction_location(
        self, block: int, already_missed_l1d: bool = False
    ) -> None:
        """Record where the block actually is when a speculative request fires."""
        if not already_missed_l1d and self.l1d.resident(block):
            location = MemLevel.L1D
        elif self.l2c.resident(block):
            location = MemLevel.L2C
        elif self.llc.resident(block):
            location = MemLevel.LLC
        else:
            location = MemLevel.DRAM
        self.stats.counts[_H.offchip_prediction_location + location] += 1

    # ------------------------------------------------------------------
    # L1D prefetch path
    # ------------------------------------------------------------------
    def _run_l1d_prefetcher(
        self, pc: int, vaddr: int, paddr: int, hit: bool, cycle: int
    ) -> None:
        if self.l1d_prefetcher is None:
            return
        candidates = self.l1d_prefetcher.on_demand_access(pc, vaddr, hit, cycle)
        if not candidates:
            return
        trigger_prediction = bool(getattr(self.offchip_predictor, "last_prediction", False))
        for request in candidates:
            self.stats.counts[_H.l1d_prefetch_candidates] += 1
            self._issue_l1d_prefetch(request, trigger_prediction, cycle)

    def _issue_l1d_prefetch(
        self, request: PrefetchRequest, trigger_offchip_prediction: bool, cycle: int
    ) -> None:
        target_paddr = self.page_table.translate(request.vaddr)
        block = block_address(target_paddr)
        if self.l1d.resident(block):
            self.stats.counts[_H.l1d_prefetches_dropped_resident] += 1
            return

        filter_metadata: dict = {}
        if self.l1d_prefetch_filter is not None:
            decision = self.l1d_prefetch_filter.consult(
                request, target_paddr, trigger_offchip_prediction, cycle
            )
            filter_metadata = decision.metadata
            if not decision.issue:
                self.stats.counts[_H.l1d_prefetches_filtered] += 1
                return

        # The L1D prefetch request travels to the L2 like any other L1D miss,
        # so the L2 prefetcher observes it and can stage the stream ahead
        # into the L2/LLC (ChampSim's prefetchers train on prefetch accesses
        # arriving from the level above as well as on demands).
        if self.l2_prefetcher is not None and not self.l2c.resident(block):
            self._run_l2_prefetcher(
                request.trigger_pc, target_paddr, hit=False, cycle=cycle
            )

        fetched = self._fetch_for_prefetch(block, cycle, RequestSource.L1D_PREFETCH)
        if fetched is None:
            self.stats.counts[_H.l1d_prefetches_dropped_queue_full] += 1
            return
        served_by, fetch_latency = fetched
        counts = self.stats.counts
        counts[_H.l1d_prefetches_issued] += 1
        counts[_H.l1d_prefetch_served_by + served_by] += 1
        # Pending until its first demand use (useful) or eviction (useless).
        self.l1d.fill(
            block,
            cycle=cycle,
            prefetched=True,
            prefetch_source_level=int(served_by),
            ready_cycle=cycle + fetch_latency,
            pending=True,
        )
        if self.l1d_prefetcher is not None:
            self.l1d_prefetcher.on_fill(request.vaddr, prefetched=True, cycle=cycle)

        # SLP trains on whether the prefetch was served off-chip, which is
        # known as soon as the prefetch completes.
        if self.l1d_prefetch_filter is not None and filter_metadata:
            self.l1d_prefetch_filter.train(
                filter_metadata, served_by is MemLevel.DRAM
            )

    def _fetch_for_prefetch(
        self, block: int, cycle: int, source: RequestSource
    ) -> Optional[tuple[MemLevel, int]]:
        """Locate a prefetch target below the requesting cache.

        Returns the level that served it and the latency of that path, or
        None when the prefetch would go to DRAM but the channel backlog is
        too deep (the prefetch is dropped, like a full prefetch queue).  The
        block is filled into the intermediate levels on its way up, matching
        ChampSim's fill behaviour.
        """
        if source is RequestSource.L1D_PREFETCH and self.l2c.resident(block):
            latency = self.l1d.latency + self.l2c.latency
            return MemLevel.L2C, latency
        if self.llc.resident(block):
            latency = self.l1d.latency + self.l2c.latency + self.llc.latency
            if source is RequestSource.L1D_PREFETCH:
                self.l2c.fill(block, cycle=cycle, ready_cycle=cycle + latency)
            return MemLevel.LLC, latency
        if self.dram.queue_delay(cycle) > self._prefetch_drop_queue_cycles:
            return None
        dram_latency = self.dram.access(cycle, source)
        latency = (
            self.l1d.latency + self.l2c.latency + self.llc.latency + dram_latency
        )
        ready = cycle + latency
        self.llc.fill(block, cycle=cycle, ready_cycle=ready)
        if source is RequestSource.L1D_PREFETCH:
            self.l2c.fill(block, cycle=cycle, ready_cycle=ready)
        return MemLevel.DRAM, latency

    def _resolve_l1d_prefetch_use(self, block: int) -> None:
        source = self.l1d.take_pending(block)
        if source >= 0:
            counts = self.stats.counts
            counts[_H.useful_l1d_prefetches] += 1
            counts[_H.accurate_prefetch_source + source] += 1

    def _on_l1d_eviction(self, info: EvictionInfo) -> None:
        if info.pending_source >= 0:
            counts = self.stats.counts
            counts[_H.useless_l1d_prefetches] += 1
            counts[_H.inaccurate_prefetch_source + info.pending_source] += 1

    # ------------------------------------------------------------------
    # L2 prefetch path (SPP + PPF)
    # ------------------------------------------------------------------
    def _run_l2_prefetcher(self, pc: int, paddr: int, hit: bool, cycle: int) -> None:
        if self.l2_prefetcher is None:
            return
        candidates = self.l2_prefetcher.on_access(paddr, pc, hit=hit, cycle=cycle)
        for request in candidates:
            self.stats.counts[_H.l2c_prefetch_candidates] += 1
            self._issue_l2c_prefetch(request, cycle)

    def _issue_l2c_prefetch(self, request: PrefetchRequest, cycle: int) -> None:
        # SPP works on physical addresses already (it sits below the L1D).
        block = block_address(request.vaddr)
        if self.l2c.resident(block):
            self.stats.counts[_H.l2c_prefetches_dropped_resident] += 1
            return

        filter_metadata: dict = {}
        if self.l2_prefetch_filter is not None:
            decision = self.l2_prefetch_filter.consult(
                request, request.vaddr, False, cycle
            )
            filter_metadata = decision.metadata
            if not decision.issue:
                self.stats.counts[_H.l2c_prefetches_filtered] += 1
                return

        llc_resident = self.llc.resident(block)
        fill_latency = self.l2c.latency + self.llc.latency
        if not llc_resident:
            if self.dram.queue_delay(cycle) > self._prefetch_drop_queue_cycles:
                self.stats.counts[_H.l2c_prefetches_dropped_queue_full] += 1
                return
            dram_latency = self.dram.access(cycle, RequestSource.L2C_PREFETCH)
            fill_latency += dram_latency
            self.llc.fill(
                block,
                cycle=cycle,
                prefetched=True,
                prefetch_source_level=int(MemLevel.DRAM),
                ready_cycle=cycle + fill_latency,
            )
        self.stats.counts[_H.l2c_prefetches_issued] += 1
        if request.fill_level is MemLevel.L2C:
            self.l2c.fill(
                block,
                cycle=cycle,
                prefetched=True,
                prefetch_source_level=int(MemLevel.DRAM),
                ready_cycle=cycle + fill_latency,
            )
            if filter_metadata:
                self._pending_l2c_prefetches[block] = filter_metadata
        elif filter_metadata:
            # LLC-targeted prefetches are still tracked for PPF training via
            # the LLC residency check in the demand path (approximation: we
            # train them as issued-but-unobserved only on replacement).
            self._pending_l2c_prefetches[block] = filter_metadata

    def _resolve_l2c_prefetch_use(self, block: int) -> None:
        metadata = self._pending_l2c_prefetches.pop(block, None)
        if metadata is None or self.l2_prefetch_filter is None:
            return
        self.l2_prefetch_filter.train(metadata, True)

    def _on_l2c_eviction(self, info: EvictionInfo) -> None:
        if not info.was_prefetched or info.prefetch_was_useful:
            return
        metadata = self._pending_l2c_prefetches.pop(info.block_addr, None)
        if metadata is None or self.l2_prefetch_filter is None:
            return
        self.l2_prefetch_filter.train(metadata, False)

    # ------------------------------------------------------------------
    # End-of-simulation bookkeeping
    # ------------------------------------------------------------------
    def reset_stats(self, include_shared: bool = True) -> None:
        """Zero all counters while keeping cache/predictor contents warm.

        Called between the warm-up and the measured portion of a run, like
        ChampSim's warm-up/simulation split.
        """
        self.stats.zero()
        self.l1d.reset_stats()
        self.l2c.reset_stats()
        if include_shared:
            self.llc.reset_stats()
            self.dram.reset_stats()
            self.dram.reset_timing()
        # Warm-up prefetches are never counted.
        self.l1d.take_all_pending()
        self._pending_l2c_prefetches.clear()

    def finalize(self) -> None:
        """Resolve prefetches still pending at the end of the simulation.

        Blocks that were prefetched but never demanded count as inaccurate,
        matching the conservative accounting used in the paper's analysis.
        """
        stats = self.stats
        for level, count in zip(MemLevel, self.l1d.take_all_pending()):
            stats.useless_l1d_prefetches += count
            stats.inaccurate_prefetch_source[level] += count

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def mpki(self, level: MemLevel, instructions: int) -> float:
        """Demand misses per kilo instruction for one cache level."""
        if instructions <= 0:
            raise ValueError(f"instructions must be positive, got {instructions}")
        if level is MemLevel.L1D:
            misses = self.l1d.stats.demand_misses
        elif level is MemLevel.L2C:
            misses = self.l2c.stats.demand_misses
        elif level is MemLevel.LLC:
            misses = self.llc.stats.demand_misses
        else:
            raise ValueError("MPKI is defined for cache levels only")
        return 1000.0 * misses / instructions
