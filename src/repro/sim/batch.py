"""Batch-vectorized simulator core (opt-in, bit-identical to the scalar path).

The scalar reference path steps one trace record at a time through
:meth:`repro.cpu.core.CoreRunner.run_trace`, calling
:meth:`repro.memory.hierarchy.MemoryHierarchy.demand_access` per memory
record.  That per-record call chain (core -> hierarchy -> predictor ->
feature extractors -> hash memos -> cache -> DRAM) is the dominant
simulation cost now that traces are columnar.

This module restructures the hot path around trace *chunks*:

1. **Vectorized precompute** -- everything about a chunk that is a pure
   function of the demand ``(pc, vaddr)`` stream is computed with numpy
   before any state advances: the off-chip predictor's five feature values,
   their Jenkins/folded-XOR weight-table indices
   (:func:`repro.common.hashing.table_index_np`), the page-buffer
   first-access bits and the last-4-PC window hashes.  This is sound
   because the FLP/Hermes feature history observes the demand stream only
   -- it does not depend on cache contents, timing or training state
   (weights *do*, so weight sums stay in the serialized loop below).

2. **Fused serialized loop** -- the stateful remainder (core dispatch/ROB
   timing, page translation, the L1D->L2C->LLC->DRAM walk with its LRU
   updates, speculative DRAM requests, perceptron weight sums and
   saturating training) runs in one Python loop with the per-record bodies
   of ``CoreRunner.step_values``, ``MemoryHierarchy.demand_access``,
   ``MemoryHierarchy._walk_below_l1d``, ``Cache.lookup``,
   ``DRAMModel.access`` and ``HashedPerceptron.predict``/``train`` inlined
   over the precomputed index columns.  A cache's LRU state is flat: one
   block dict keyed by block address, per-way stamp and block lists
   indexed by each block's ``slot``, and one clock per cache, so an
   inlined hit is a dict probe plus one stamp store.  Pure counters
   accumulate in locals and flush once per chunk.  The prefetch machinery
   is fused too: the recognised L1D prefetchers (IPCP, Berti) expose
   ``begin_batch``/``step_batch`` kernels -- per-chunk numpy precompute
   plus a thin order-dependent step -- and the loop drives SPP lookahead
   walks (``SPPPrefetcher.step``), PPF and SLP filter consults/training
   (``consult_step``/``train_step``) and cache fills (via
   :func:`_make_inline_fill`, a positional ``Cache.fill`` clone) without
   crossing the per-request object boundary.  The object
   implementations stay the pinned bit-identical reference; unrecognised
   prefetcher/filter combinations keep the object-call path inside the
   fused loop.

3. **Chunk scheduler with scalar fallback** -- chunks only run fused when
   every component is one the fused loop models exactly (stock
   :class:`MemoryHierarchy`/:class:`Cache`, and a Null / Hermes / FLP
   off-chip predictor over the Table I feature set).  Anything else --
   custom subclasses, exotic predictors -- drops to the pinned scalar
   reference path; :func:`batch_unsupported_reason` names the offending
   component, which is logged once per process and emitted as a
   ``sim.batch.fallback`` observability event on every fallback.  The
   loop is a per-core generator (:func:`fused_core_stepper`) that pauses
   before each load/store, so a multi-core mix interleaves its cores on
   the same kernel and falls back per core (:mod:`repro.sim.multi_core`).

The batch core is selected with ``SystemConfig(sim_core="batch")`` /
``--core batch`` and is bit-identical to the scalar path by construction:
every counter, weight, stamp and cycle is updated in the same order with
the same arithmetic, which the batch-vs-scalar equivalence suite pins.
"""

from __future__ import annotations

import logging
from collections import deque
from typing import Optional

import numpy as np

from repro.common.addresses import PAGE_BITS
from repro.common.hashing import hash_combine, hash_combine_np, table_index_np
from repro.common.types import MemLevel, RequestSource
from repro.core.flp import FirstLevelPerceptron
from repro.core.slp import SecondLevelPerceptron
from repro.cpu.core import CoreRunner
from repro.memory.cache import Cache, CacheBlock, EvictionInfo
from repro.memory.hierarchy import MemoryHierarchy, PrefetchRecord
from repro.obs import tracer as obs_tracer
from repro.predictors.base import NullOffChipPredictor
from repro.predictors.hermes import HermesPredictor
from repro.prefetchers.berti import BertiPrefetcher
from repro.prefetchers.ipcp import IPCPPrefetcher
from repro.prefetchers.ppf import PerceptronPrefetchFilter
from repro.prefetchers.spp import SPPPrefetcher
from repro.traces.trace import KIND_NON_MEM

_LOG = logging.getLogger("repro.sim.batch")

#: Records per fused chunk.  Large enough to amortize the vectorized
#: precompute, small enough to keep the index columns cache-resident.
DEFAULT_CHUNK_RECORDS = 8192

#: Feature layout the vectorized precompute reproduces (Table I order).
_LEGACY_FEATURE_NAMES = (
    "pc_xor_cacheline_offset",
    "pc_xor_byte_offset",
    "pc_plus_first_access",
    "offset_plus_first_access",
    "last_four_load_pcs",
)

_PK_NULL = 0
_PK_HERMES = 1
_PK_FLP = 2


def batch_unsupported_reason(hierarchy: MemoryHierarchy) -> Optional[str]:
    """Why ``hierarchy`` cannot run fused, or None when it can.

    The reason string names the offending component so the fallback event
    and warning are actionable.  Anything rejected here still simulates
    correctly -- the batch runner falls back to the scalar reference path.
    """
    if type(hierarchy) is not MemoryHierarchy:
        return f"hierarchy subclass {type(hierarchy).__name__}"
    for cache in (hierarchy.l1d, hierarchy.l2c, hierarchy.llc):
        # The fused loop inlines Cache.lookup/fill over the flat LRU state.
        if type(cache) is not Cache:
            return (
                f"{cache.name}: unmodelled cache shape"
                f" ({type(cache).__name__})"
            )
    predictor = hierarchy.offchip_predictor
    if type(predictor) is NullOffChipPredictor:
        return None
    if type(predictor) in (HermesPredictor, FirstLevelPerceptron):
        names = tuple(spec.name for spec in predictor.perceptron.features)
        if names != _LEGACY_FEATURE_NAMES:
            return (
                f"off-chip predictor {type(predictor).__name__}:"
                " non-standard feature set"
            )
        if predictor.history.pc_history_length != 4:
            return (
                f"off-chip predictor {type(predictor).__name__}:"
                f" pc_history_length {predictor.history.pc_history_length}"
            )
        return None
    return f"unmodelled off-chip predictor {type(predictor).__name__}"


def batch_supported(hierarchy: MemoryHierarchy) -> bool:
    """True when ``hierarchy`` can run on the fused batch path."""
    return batch_unsupported_reason(hierarchy) is None


#: Fallback reasons already warned about (once per reason per process; the
#: obs event still fires on every fallback so campaigns can count them).
_FALLBACK_LOGGED: set[str] = set()


def _note_scalar_fallback(reason: str) -> None:
    obs_tracer.event("sim.batch.fallback", reason=reason)
    if reason not in _FALLBACK_LOGGED:
        _FALLBACK_LOGGED.add(reason)
        _LOG.warning(
            "--core batch fell back to the scalar reference path: %s", reason
        )


def _precompute_offchip_indices(
    predictor, pcs: np.ndarray, vaddrs: np.ndarray
) -> list[list[int]]:
    """Vectorized per-chunk feature hashing for a Hermes/FLP predictor.

    Replays the predictor's :class:`FeatureHistory` over the chunk's demand
    stream (advancing the live page buffer and PC history to their
    end-of-chunk state -- the fused loop consumes the precomputed rows
    instead of calling ``context()``/``observe()``), and returns one index
    column per Table I feature, exactly what the scalar
    ``HashedPerceptron._compute`` would have produced access by access.
    """
    history = predictor.history
    n = len(pcs)

    # First-access bits: exact replay of the page-buffer LRU.
    page_buffer = history._page_buffer
    capacity = history.page_buffer_entries
    move_to_end = page_buffer.move_to_end
    popitem = page_buffer.popitem
    first_bits: list[int] = []
    append_first = first_bits.append
    for page in (vaddrs >> PAGE_BITS).tolist():
        if page in page_buffer:
            append_first(0)
            move_to_end(page)
        else:
            append_first(1)
            page_buffer[page] = None
            if len(page_buffer) > capacity:
                popitem(last=False)
    first = np.asarray(first_bits, dtype=np.uint64)

    # Last-4-PC window hashes: the context for access i folds the four PCs
    # observed before it, i.e. a sliding window over (prior history + chunk).
    prior = list(history._pc_history)
    len0 = len(prior)
    window = history.pc_history_length
    if len0:
        merged = np.concatenate([np.asarray(prior, dtype=np.int64), pcs])
    else:
        merged = pcs
    pcs_hash = np.empty(n, dtype=np.uint64)
    lead = max(0, window - len0)
    for i in range(min(lead, n)):
        short = merged[max(0, i + len0 - window): i + len0].tolist()
        pcs_hash[i] = hash_combine(*short) if short else 0
    if n > lead:
        base = lead + len0 - window
        count = n - lead
        pcs_hash[lead:] = hash_combine_np(
            *(merged[base + k: base + k + count] for k in range(window))
        )
    history._pc_history.extend(pcs.tolist())
    history._pcs_tuple = None
    history._pcs_hash = None

    # Feature values (Table I) and their table indices.
    upcs = pcs.astype(np.uint64)
    uvas = vaddrs.astype(np.uint64)
    cacheline_offset = (uvas >> np.uint64(6)) & np.uint64(63)
    values = (
        upcs ^ (cacheline_offset << np.uint64(2)),
        upcs ^ ((uvas & np.uint64(63)) << np.uint64(2)),
        hash_combine_np(upcs, first),
        hash_combine_np(cacheline_offset, first),
        pcs_hash,
    )
    columns: list[list[int]] = []
    for value, (_, bits, entries, _, _) in zip(values, predictor.perceptron._plan):
        indices = table_index_np(value, bits) % np.uint64(entries)
        columns.append(indices.astype(np.int64).tolist())
    return columns


def _make_inline_fill(cache: Cache):
    """Positional fast-path clone of ``Cache.fill`` over the flat LRU state.

    Only valid for a stock :class:`Cache` and for fills that never set
    ``dirty`` -- which is every fill the fused loop drives (demand fills and
    prefetch fills; writes dirty blocks via the lookup path, not fills).
    Identical arithmetic and update order to ``Cache.fill`` +
    ``Cache._evict``; the only shortcut is skipping the
    :class:`EvictionInfo` allocation when the cache has no eviction
    listener to observe it.  The clock is read from and written back to the
    cache on every fill, so a shared LLC stays ordered across the cores of
    a mix.
    """
    blocks = cache._blocks
    stamps = cache._stamps
    way_blocks = cache._way_blocks
    set_fill = cache._set_fill
    num_sets = cache.num_sets
    ways = cache.associativity
    stats = cache.stats
    listener = cache._eviction_listener

    def fill(
        block_addr: int,
        ready_cycle: int,
        prefetched: bool = False,
        prefetch_source_level: Optional[int] = None,
    ) -> None:
        existing = blocks.get(block_addr)
        if existing is not None:
            # Fill races with an earlier fill of the same block: keep the
            # stronger attribution (a demand fill overrides prefetched).
            if not prefetched:
                existing.prefetched = False
            if ready_cycle < existing.ready_cycle:
                existing.ready_cycle = ready_cycle
            return
        set_idx = block_addr % num_sets
        used = set_fill[set_idx]
        if used < ways:
            slot = set_idx * ways + used
            set_fill[set_idx] = used + 1
        else:
            base = set_idx * ways
            slot = stamps.index(min(stamps[base:base + ways]), base)
            victim = way_blocks[slot]
            del blocks[victim.block_addr]
            stats.evictions += 1
            if victim.dirty:
                stats.writebacks += 1
            if victim.prefetched:
                if victim.prefetch_useful:
                    stats.useful_prefetch_evictions += 1
                else:
                    stats.useless_prefetch_evictions += 1
            if listener is not None:
                listener(
                    EvictionInfo(
                        block_addr=victim.block_addr,
                        was_prefetched=victim.prefetched,
                        prefetch_was_useful=victim.prefetch_useful,
                        was_dirty=victim.dirty,
                    )
                )
        # Positional CacheBlock args in field order: block_addr, slot,
        # dirty, prefetched, prefetch_useful, prefetch_source_level,
        # ready_cycle.
        block = CacheBlock(
            block_addr, slot, False, prefetched, False,
            prefetch_source_level, ready_cycle,
        )
        blocks[block_addr] = block
        way_blocks[slot] = block
        clock = cache._clock + 1
        cache._clock = clock
        stamps[slot] = clock
        if prefetched:
            stats.prefetch_fills += 1
        else:
            stats.demand_fills += 1

    return fill


def run_core_trace_batched(
    runner: CoreRunner,
    trace,
    hierarchy: MemoryHierarchy,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    sample_hook=None,
    sample_interval: Optional[int] = None,
) -> bool:
    """Step ``trace`` through ``runner``/``hierarchy`` in fused chunks.

    Semantically identical to ``runner.run_trace(trace)`` with the runner's
    memory callback bound to ``hierarchy.demand_access``.  Returns True when
    the fused path ran, False when it fell back to the scalar reference.

    ``sample_hook(accesses, instructions, cycles)``, when given with a
    positive ``sample_interval``, is invoked at the first chunk boundary
    after every ``sample_interval`` cumulative demand accesses.  The hook
    only *reads* state, so it cannot perturb simulation metrics; callers
    wanting per-N-accesses granularity should also shrink
    ``chunk_records`` (chunking is result-invariant).
    """
    reason = batch_unsupported_reason(hierarchy)
    if reason is not None:
        _note_scalar_fallback(reason)
        runner.run_trace(trace)
        return False
    deque(fused_core_stepper(
        runner, trace, hierarchy, chunk_records, sample_hook, sample_interval
    ), maxlen=0)
    return True


def fused_core_stepper(
    runner: CoreRunner, trace, hierarchy: MemoryHierarchy, chunk_records: int,
    sample_hook=None, sample_interval: Optional[int] = None,
):
    """The fused loop as a per-core generator (supported hierarchies only).

    Runs compute records on its own and yields each load/store's dispatch
    cycle before performing it, so the shared LLC/DRAM is touched only
    after the driver resumes it.  Runner state is written back at the end.
    """
    pc_col, vaddr_col, kind_col = trace.columns()
    total_records = len(pc_col)

    predictor = hierarchy.offchip_predictor
    if type(predictor) is NullOffChipPredictor:
        predictor_kind = _PK_NULL
    elif type(predictor) is HermesPredictor:
        predictor_kind = _PK_HERMES
    else:
        predictor_kind = _PK_FLP

    # ---- immutable-for-the-run bindings ------------------------------
    l1d = hierarchy.l1d
    l2c = hierarchy.l2c
    llc = hierarchy.llc
    dram = hierarchy.dram
    page_table = hierarchy.page_table
    page_map = page_table._mapping
    allocate_frame = page_table._allocate_frame
    l1_blocks, l1_stamps, l1_latency = l1d._blocks, l1d._stamps, l1d.latency
    l2_blocks, l2_stamps, l2_latency = l2c._blocks, l2c._stamps, l2c.latency
    llc_blocks, llc_stamps, llc_latency = (
        llc._blocks, llc._stamps, llc.latency
    )
    # Positional fast-path fills (Cache.fill inlined; sound because
    # batch_unsupported_reason already required stock caches).  Hits below
    # bump each cache's own _clock in place rather than a local copy: the
    # shared LLC's clock also advances in the other cores of a mix while
    # this stepper is paused at a yield.
    l1_fill = _make_inline_fill(l1d)
    l2_fill = _make_inline_fill(l2c)
    llc_fill = _make_inline_fill(llc)
    record_location = hierarchy._record_offchip_prediction_location
    resolve_l1_prefetch_use = hierarchy._resolve_l1d_prefetch_use
    resolve_l2_prefetch_use = hierarchy._resolve_l2c_prefetch_use
    run_l2_prefetcher = hierarchy._run_l2_prefetcher
    issue_l1d_prefetch = hierarchy._issue_l1d_prefetch
    prefetcher = hierarchy.l1d_prefetcher
    on_demand_access = (
        prefetcher.on_demand_access if prefetcher is not None else None
    )
    predictor_latency = hierarchy._predictor_latency
    cycles_per_transaction = dram._cycles_per_transaction
    dram_access_latency = dram.config.access_latency
    LEVEL_L1D = MemLevel.L1D
    LEVEL_L2C = MemLevel.L2C
    LEVEL_LLC = MemLevel.LLC
    LEVEL_DRAM = MemLevel.DRAM
    KIND_COMPUTE = KIND_NON_MEM

    # Stats objects are stable within one call: reset_stats replaces them
    # only between the warm-up and measured phases, i.e. between calls.
    hstats = hierarchy.stats
    l1_stats = l1d.stats
    l2_stats = l2c.stats
    llc_stats = llc.stats
    dram_stats = dram.stats

    # ---- inline prefetch kernels (exact-type gated) ------------------
    # The fused paths below replicate _issue_l1d_prefetch /
    # _issue_l2c_prefetch for the exact component types whose kernels they
    # inline (IPCP/Berti + SLP above the L1D, SPP + PPF behind the L2C).
    # Any other combination keeps the object-call serialization points, so
    # nothing loses batch support -- it just runs the slower fused loop.
    l2pf = hierarchy.l2_prefetcher
    l2flt = hierarchy.l2_prefetch_filter
    l1flt = hierarchy.l1d_prefetch_filter
    inline_l2 = (
        (l2pf is None or type(l2pf) is SPPPrefetcher)
        and (l2flt is None or type(l2flt) is PerceptronPrefetchFilter)
    )
    inline_l1 = (
        inline_l2
        and type(prefetcher) in (IPCPPrefetcher, BertiPrefetcher)
        and (l1flt is None or type(l1flt) is SecondLevelPerceptron)
    )

    if inline_l2 and l2pf is not None:
        # _run_l2_prefetcher + _issue_l2c_prefetch fused over SPP's raw
        # prediction tuples: no PrefetchRequest/FilterDecision objects and
        # no metadata dicts on this path.  DRAM keeps its object calls
        # (prefetch DRAM transactions are rare) so its stats merge with the
        # chunk-local demand counters.  Default arguments re-bind the
        # shared state as closure locals, keeping the enclosing loop's
        # names plain fast locals rather than cells.
        def spp_inline(
            trigger_pc: int,
            tblock: int,
            cycle: int,
            spp_step=l2pf.step,
            ppf_consult=(l2flt.consult_step if l2flt is not None else None),
            hstats=hstats,
            l2_blocks=l2_blocks,
            llc_blocks=llc_blocks,
            l2_fill=l2_fill,
            llc_fill=llc_fill,
            base_latency=l2_latency + llc_latency,
            dram=dram,
            dram_access=dram.access,
            drop_cycles=hierarchy._prefetch_drop_queue_cycles,
            SRC_L2C_PREFETCH=RequestSource.L2C_PREFETCH,
            INT_DRAM=int(MemLevel.DRAM),
            pending_l2c=hierarchy._pending_l2c_prefetches,
        ) -> None:
            predictions = spp_step(tblock, trigger_pc)
            if not predictions:
                return
            for pblock, fill_l2, sig, pdelta, pdepth, pconf in predictions:
                hstats.l2c_prefetch_candidates += 1
                if pblock in l2_blocks:
                    hstats.l2c_prefetches_dropped_resident += 1
                    continue
                if ppf_consult is not None:
                    issue, ptotal, pindices = ppf_consult(
                        trigger_pc, pblock, sig, pdelta, pdepth, pconf
                    )
                    if not issue:
                        hstats.l2c_prefetches_filtered += 1
                        continue
                fill_latency = base_latency
                if pblock not in llc_blocks:
                    if dram._busy_until - cycle > drop_cycles:
                        hstats.l2c_prefetches_dropped_queue_full += 1
                        continue
                    fill_latency += dram_access(cycle, SRC_L2C_PREFETCH)
                    llc_fill(pblock, cycle + fill_latency, True, INT_DRAM)
                hstats.l2c_prefetches_issued += 1
                if fill_l2:
                    l2_fill(pblock, cycle + fill_latency, True, INT_DRAM)
                if ppf_consult is not None:
                    # PPF training metadata travels as a raw (indices,
                    # confidence) tuple; the eviction/use hooks hand it
                    # back to PerceptronPrefetchFilter.train unchanged.
                    pending_l2c[pblock] = (pindices, ptotal)
    else:
        spp_inline = None

    if inline_l1:
        pf_begin = prefetcher.begin_batch
        pf_step = prefetcher.step_batch
        slp_consult = l1flt.consult_step if l1flt is not None else None
        slp_train = l1flt.perceptron.train if l1flt is not None else None
        pending_l1 = hierarchy._pending_l1d_prefetches
        finalize_l1 = hierarchy._finalize_l1d_prefetch
        pf_served_by = hstats.l1d_prefetch_served_by
        dram_access = dram.access
        drop_cycles = hierarchy._prefetch_drop_queue_cycles
        SRC_L1D_PREFETCH = RequestSource.L1D_PREFETCH
    else:
        pf_begin = pf_step = None

    if predictor_kind != _PK_NULL:
        perceptron = predictor.perceptron
        table_0, table_1, table_2, table_3, table_4 = perceptron._tables
        limits = perceptron._weight_limits
        (lo0, hi0), (lo1, hi1), (lo2, hi2), (lo3, hi3), (lo4, hi4) = limits
        training_threshold = perceptron.training_threshold
        last_prediction = bool(predictor.last_prediction)
    else:
        last_prediction = False
    if predictor_kind == _PK_HERMES:
        activation_threshold = predictor.activation_threshold
    elif predictor_kind == _PK_FLP:
        tau_high = predictor.tau_high
        tau_low = predictor.tau_low
        selective_delay = predictor.selective_delay

    # ---- core-runner state (carried across chunks) -------------------
    retire_times = runner._retire_times
    rob_size = runner.rob_size
    dispatch_interval = runner.dispatch_interval
    dispatch_cycle = runner._dispatch_cycle
    last_retire = runner._last_retire
    popleft = retire_times.popleft
    append_retire = retire_times.append
    instructions = loads = stores = 0
    total_load_latency = 0.0
    next_sample = (
        sample_interval
        if sample_hook is not None and sample_interval
        else None
    )

    for start in range(0, total_records, chunk_records):
        stop = min(start + chunk_records, total_records)
        pcs_chunk = pc_col[start:stop]
        vaddrs_chunk = vaddr_col[start:stop]
        kinds_chunk = kind_col[start:stop]
        pcs = pcs_chunk.tolist()
        vaddrs = vaddrs_chunk.tolist()
        kinds = kinds_chunk.tolist()

        # Vectorized precompute over this chunk's demand records: the
        # off-chip feature indices and the L1D prefetcher's pure columns.
        if predictor_kind != _PK_NULL or pf_begin is not None:
            demand_mask = kinds_chunk != KIND_COMPUTE
            demand_pcs = pcs_chunk[demand_mask]
            demand_vaddrs = vaddrs_chunk[demand_mask]
        if predictor_kind != _PK_NULL:
            idx0, idx1, idx2, idx3, idx4 = _precompute_offchip_indices(
                predictor, demand_pcs, demand_vaddrs
            )
            predictions = positive = 0
            training_events = correct = weight_updates = 0
            flp_immediate = flp_delayed = flp_negative = 0
        if pf_begin is not None:
            pf_begin(demand_pcs, demand_vaddrs)
        demand_cursor = 0

        # Pure counters accumulate in locals below and flush once per
        # chunk; the delegated calls never touch these specific fields
        # (demand lookups happen only at the sites inlined here).
        demand_loads = demand_stores = offchip_predictions = 0
        speculative_requests = delayed_speculative = delayed_saved = 0
        prefetch_candidates = 0
        l1_pf_dropped_resident = l1_pf_filtered = 0
        l1_pf_dropped_queue = l1_pf_issued = 0
        served_l1d = served_l2c = served_llc = served_dram = 0
        l1_accesses = l1_hits = l1_misses = l1_pf_hits = 0
        l2_accesses = l2_hits = l2_misses = l2_pf_hits = 0
        llc_accesses = llc_hits = llc_misses = llc_pf_hits = 0
        dram_transactions = dram_demand = dram_speculative = 0
        dram_queue_cycles = dram_max_queue = 0

        # ---- fused serialized loop -----------------------------------
        for pc, vaddr, kind in zip(pcs, vaddrs, kinds):
            dispatch = dispatch_cycle
            if len(retire_times) >= rob_size:
                rob_constraint = popleft()
                if rob_constraint > dispatch:
                    dispatch = rob_constraint

            if kind == KIND_COMPUTE:
                latency = 1
            else:
                yield dispatch
                cycle = int(dispatch)
                is_write = kind == 1

                # -- page translation (PageTable.translate inlined) --
                vpage = vaddr >> 12
                frame = page_map.get(vpage)
                if frame is None:
                    frame = allocate_frame(vpage)
                paddr = (frame << 12) | (vaddr & 4095)
                block = paddr >> 6
                if is_write:
                    demand_stores += 1
                else:
                    demand_loads += 1

                # -- off-chip prediction (predictor.predict inlined) --
                if predictor_kind == _PK_NULL:
                    action = 0
                    predicted_offchip = False
                else:
                    i0 = idx0[demand_cursor]
                    i1 = idx1[demand_cursor]
                    i2 = idx2[demand_cursor]
                    i3 = idx3[demand_cursor]
                    i4 = idx4[demand_cursor]
                    demand_cursor += 1
                    confidence = (
                        table_0[i0] + table_1[i1] + table_2[i2]
                        + table_3[i3] + table_4[i4]
                    )
                    predictions += 1
                    if confidence >= 0:
                        positive += 1
                    if predictor_kind == _PK_HERMES:
                        predicted_offchip = confidence >= activation_threshold
                        action = 1 if predicted_offchip else 0
                    elif confidence > tau_high:
                        action = 1
                        predicted_offchip = True
                        flp_immediate += 1
                    elif confidence >= tau_low:
                        predicted_offchip = True
                        if selective_delay:
                            action = 2
                            flp_delayed += 1
                        else:
                            action = 1
                            flp_immediate += 1
                    else:
                        action = 0
                        predicted_offchip = False
                        flp_negative += 1
                    last_prediction = predicted_offchip
                if predicted_offchip:
                    offchip_predictions += 1

                # -- immediate speculative DRAM request --
                speculative_ready = None
                if action == 1:
                    speculative_requests += 1
                    record_location(block)
                    issue_at = cycle + predictor_latency
                    queue_delay = dram._busy_until - issue_at
                    if queue_delay < 0.0:
                        queue_delay = 0.0
                    dram._busy_until = issue_at + queue_delay + cycles_per_transaction
                    dram_transactions += 1
                    dram_speculative += 1
                    queue_cycles = int(queue_delay)
                    dram_queue_cycles += queue_cycles
                    if queue_cycles > dram_max_queue:
                        dram_max_queue = queue_cycles
                    speculative_ready = predictor_latency + int(
                        queue_delay + dram_access_latency
                    )

                # -- L1D probe + lookup (Cache.lookup inlined) --
                latency = l1_latency
                resident = l1_blocks.get(block)
                l1_accesses += 1
                if resident is None:
                    prefetch_hit = False
                    l1d_hit = False
                    l1_misses += 1
                else:
                    prefetch_hit = resident.prefetched and not resident.prefetch_useful
                    ready = resident.ready_cycle
                    if ready > cycle and ready - cycle > latency:
                        latency = ready - cycle
                    l1d_hit = True
                    l1_hits += 1
                    if prefetch_hit:
                        resident.prefetch_useful = True
                        l1_pf_hits += 1
                    if is_write:
                        resident.dirty = True
                    clock = l1d._clock + 1
                    l1d._clock = clock
                    l1_stamps[resident.slot] = clock
                    if prefetch_hit:
                        resolve_l1_prefetch_use(block)

                # -- L1D prefetcher --
                if pf_step is not None:
                    # Fused kernel path (IPCP/Berti): raw target vaddrs off
                    # the chunk cursor, _issue_l1d_prefetch inlined below.
                    targets = pf_step(l1d_hit)
                    if targets:
                        for tvaddr in targets:
                            prefetch_candidates += 1
                            tvpage = tvaddr >> 12
                            tframe = page_map.get(tvpage)
                            if tframe is None:
                                tframe = allocate_frame(tvpage)
                            tpaddr = (tframe << 12) | (tvaddr & 4095)
                            tblock = tpaddr >> 6
                            if tblock in l1_blocks:
                                l1_pf_dropped_resident += 1
                                continue
                            if slp_consult is not None:
                                s_issue, s_conf, s_indices = slp_consult(
                                    pc, tpaddr, last_prediction
                                )
                                if not s_issue:
                                    l1_pf_filtered += 1
                                    continue
                            # The L2 prefetcher observes the prefetch
                            # arriving from the level above.
                            if spp_inline is not None and (
                                tblock not in l2_blocks
                            ):
                                spp_inline(pc, tblock, cycle)
                            # _fetch_for_prefetch inlined (L1D source).  The
                            # L2 residency re-check matters: spp_inline may
                            # have just filled this block into the L2.
                            if tblock in l2_blocks:
                                served_level = LEVEL_L2C
                                fetch_latency = l1_latency + l2_latency
                            elif tblock in llc_blocks:
                                served_level = LEVEL_LLC
                                fetch_latency = (
                                    l1_latency + l2_latency + llc_latency
                                )
                                l2_fill(tblock, cycle + fetch_latency)
                            else:
                                if dram._busy_until - cycle > drop_cycles:
                                    l1_pf_dropped_queue += 1
                                    continue
                                served_level = LEVEL_DRAM
                                fetch_latency = (
                                    l1_latency + l2_latency + llc_latency
                                    + dram_access(cycle, SRC_L1D_PREFETCH)
                                )
                                ready = cycle + fetch_latency
                                llc_fill(tblock, ready)
                                l2_fill(tblock, ready)
                            l1_pf_issued += 1
                            pf_served_by[served_level] += 1
                            l1_fill(
                                tblock,
                                cycle + fetch_latency,
                                True,
                                int(served_level),
                            )
                            # on_fill is the L1DPrefetcher base no-op for
                            # IPCP/Berti; SLP trains as soon as the serve
                            # level is known.
                            if slp_consult is not None:
                                slp_train(
                                    s_indices,
                                    served_level is LEVEL_DRAM,
                                    s_conf,
                                )
                            previous = pending_l1.get(tblock)
                            if previous is not None:
                                finalize_l1(previous, False)
                            pending_l1[tblock] = PrefetchRecord(
                                block_addr=tblock,
                                served_by=served_level,
                                issue_cycle=cycle,
                            )
                elif on_demand_access is not None:
                    # Serialization point: object call for prefetcher types
                    # the fused path does not model.
                    candidates = on_demand_access(pc, vaddr, l1d_hit, cycle)
                    if candidates:
                        for request in candidates:
                            prefetch_candidates += 1
                            issue_l1d_prefetch(request, last_prediction, cycle)

                # -- selective delay (FLP) --
                if action == 2:
                    if l1d_hit:
                        delayed_saved += 1
                    else:
                        speculative_requests += 1
                        delayed_speculative += 1
                        record_location(block, True)
                        issue_at = cycle + l1_latency + predictor_latency
                        queue_delay = dram._busy_until - issue_at
                        if queue_delay < 0.0:
                            queue_delay = 0.0
                        dram._busy_until = (
                            issue_at + queue_delay + cycles_per_transaction
                        )
                        dram_transactions += 1
                        dram_speculative += 1
                        queue_cycles = int(queue_delay)
                        dram_queue_cycles += queue_cycles
                        if queue_cycles > dram_max_queue:
                            dram_max_queue = queue_cycles
                        speculative_ready = l1_latency + predictor_latency + int(
                            queue_delay + dram_access_latency
                        )

                if l1d_hit:
                    served_l1d += 1
                    went_offchip = False
                    effective_latency = latency
                else:
                    # -- below-L1D walk (_walk_below_l1d inlined; SPP and
                    #    cache fills stay object calls) --
                    latency += l2_latency
                    l2_block = l2_blocks.get(block)
                    l2_accesses += 1
                    if l2_block is None:
                        l2_hit = False
                        l2_misses += 1
                    else:
                        l2_prefetch_hit = (
                            l2_block.prefetched and not l2_block.prefetch_useful
                        )
                        ready = l2_block.ready_cycle
                        if ready > cycle and ready - cycle > latency:
                            latency = ready - cycle
                        l2_hit = True
                        l2_hits += 1
                        if l2_prefetch_hit:
                            l2_block.prefetch_useful = True
                            l2_pf_hits += 1
                        if is_write:
                            l2_block.dirty = True
                        clock = l2c._clock + 1
                        l2c._clock = clock
                        l2_stamps[l2_block.slot] = clock
                        if l2_prefetch_hit:
                            resolve_l2_prefetch_use(block)

                    # SPP observes L2 demand accesses.
                    if spp_inline is not None:
                        spp_inline(pc, block, cycle)
                    else:
                        run_l2_prefetcher(pc, paddr, l2_hit, cycle)

                    if l2_hit:
                        l1_fill(block, cycle + latency)
                        served_l2c += 1
                        went_offchip = False
                    else:
                        latency += llc_latency
                        llc_block = llc_blocks.get(block)
                        llc_accesses += 1
                        if llc_block is None:
                            llc_hit = False
                            llc_misses += 1
                        else:
                            ready = llc_block.ready_cycle
                            if ready > cycle and ready - cycle > latency:
                                latency = ready - cycle
                            llc_hit = True
                            llc_hits += 1
                            if llc_block.prefetched and not llc_block.prefetch_useful:
                                llc_block.prefetch_useful = True
                                llc_pf_hits += 1
                            if is_write:
                                llc_block.dirty = True
                            clock = llc._clock + 1
                            llc._clock = clock
                            llc_stamps[llc_block.slot] = clock
                        if llc_hit:
                            l1_fill(block, cycle + latency)
                            l2_fill(block, cycle + latency)
                            served_llc += 1
                            went_offchip = False
                        else:
                            if speculative_ready is not None:
                                # Merged with the in-flight speculative fetch
                                # at the memory controller: no second DRAM
                                # transaction.
                                dram_latency = dram_access_latency
                            else:
                                issue_at = cycle + latency
                                queue_delay = dram._busy_until - issue_at
                                if queue_delay < 0.0:
                                    queue_delay = 0.0
                                dram._busy_until = (
                                    issue_at + queue_delay + cycles_per_transaction
                                )
                                dram_transactions += 1
                                dram_demand += 1
                                queue_cycles = int(queue_delay)
                                dram_queue_cycles += queue_cycles
                                if queue_cycles > dram_max_queue:
                                    dram_max_queue = queue_cycles
                                dram_latency = int(
                                    queue_delay + dram_access_latency
                                )
                            latency += dram_latency
                            ready = cycle + latency
                            llc_fill(block, ready)
                            l2_fill(block, ready)
                            l1_fill(block, ready)
                            served_dram += 1
                            went_offchip = True

                    effective_latency = latency
                    if speculative_ready is not None and went_offchip:
                        effective_latency = (
                            speculative_ready
                            if speculative_ready > l1_latency
                            else l1_latency
                        )

                # -- training (predictor.train inlined) --
                if predictor_kind != _PK_NULL:
                    training_events += 1
                    predicted_positive = confidence >= 0
                    if predicted_positive == went_offchip:
                        correct += 1
                    if predicted_positive != went_offchip or (
                        confidence if confidence >= 0 else -confidence
                    ) < training_threshold:
                        if went_offchip:
                            weight = table_0[i0] + 1
                            table_0[i0] = weight if weight <= hi0 else hi0
                            weight = table_1[i1] + 1
                            table_1[i1] = weight if weight <= hi1 else hi1
                            weight = table_2[i2] + 1
                            table_2[i2] = weight if weight <= hi2 else hi2
                            weight = table_3[i3] + 1
                            table_3[i3] = weight if weight <= hi3 else hi3
                            weight = table_4[i4] + 1
                            table_4[i4] = weight if weight <= hi4 else hi4
                        else:
                            weight = table_0[i0] - 1
                            table_0[i0] = weight if weight >= lo0 else lo0
                            weight = table_1[i1] - 1
                            table_1[i1] = weight if weight >= lo1 else lo1
                            weight = table_2[i2] - 1
                            table_2[i2] = weight if weight >= lo2 else lo2
                            weight = table_3[i3] - 1
                            table_3[i3] = weight if weight >= lo3 else lo3
                            weight = table_4[i4] - 1
                            table_4[i4] = weight if weight >= lo4 else lo4
                        weight_updates += 1

                if kind == 0:
                    latency = effective_latency
                    loads += 1
                    total_load_latency += effective_latency
                else:
                    latency = 1
                    stores += 1

            completion = dispatch + latency
            retire = last_retire + dispatch_interval
            if completion > retire:
                retire = completion
            append_retire(retire)
            last_retire = retire
            dispatch_cycle = dispatch + dispatch_interval
            instructions += 1

        # ---- chunk flush ---------------------------------------------
        hstats.demand_loads += demand_loads
        hstats.demand_stores += demand_stores
        hstats.offchip_predictions += offchip_predictions
        hstats.speculative_requests += speculative_requests
        hstats.delayed_speculative_requests += delayed_speculative
        hstats.delayed_predictions_saved += delayed_saved
        hstats.l1d_prefetch_candidates += prefetch_candidates
        hstats.l1d_prefetches_dropped_resident += l1_pf_dropped_resident
        hstats.l1d_prefetches_filtered += l1_pf_filtered
        hstats.l1d_prefetches_dropped_queue_full += l1_pf_dropped_queue
        hstats.l1d_prefetches_issued += l1_pf_issued
        served = hstats.served_by
        served[LEVEL_L1D] += served_l1d
        served[LEVEL_L2C] += served_l2c
        served[LEVEL_LLC] += served_llc
        served[LEVEL_DRAM] += served_dram
        l1_stats.demand_accesses += l1_accesses
        l1_stats.demand_hits += l1_hits
        l1_stats.demand_misses += l1_misses
        l1_stats.prefetch_hits += l1_pf_hits
        l2_stats.demand_accesses += l2_accesses
        l2_stats.demand_hits += l2_hits
        l2_stats.demand_misses += l2_misses
        l2_stats.prefetch_hits += l2_pf_hits
        llc_stats.demand_accesses += llc_accesses
        llc_stats.demand_hits += llc_hits
        llc_stats.demand_misses += llc_misses
        llc_stats.prefetch_hits += llc_pf_hits
        dram_stats.total_transactions += dram_transactions
        dram_stats.demand_transactions += dram_demand
        dram_stats.speculative_transactions += dram_speculative
        dram_stats.total_queue_cycles += dram_queue_cycles
        if dram_max_queue > dram_stats.max_queue_cycles:
            dram_stats.max_queue_cycles = dram_max_queue
        if predictor_kind != _PK_NULL:
            pstats = predictor.perceptron.stats
            pstats.predictions += predictions
            pstats.positive_predictions += positive
            pstats.training_events += training_events
            pstats.correct_predictions += correct
            pstats.weight_updates += weight_updates
            predictor.last_prediction = last_prediction
            if predictor_kind == _PK_FLP:
                predictor.immediate_decisions += flp_immediate
                predictor.delayed_decisions += flp_delayed
                predictor.negative_decisions += flp_negative

        if next_sample is not None:
            accesses = hstats.demand_loads + hstats.demand_stores
            if accesses >= next_sample:
                sample_hook(
                    accesses, runner.instructions + instructions, last_retire
                )
                next_sample = (accesses // sample_interval + 1) * sample_interval

    runner._dispatch_cycle = dispatch_cycle
    runner._last_retire = last_retire
    runner.instructions += instructions
    runner.loads += loads
    runner.stores += stores
    runner.total_load_latency += total_load_latency


def run_single_core_batched(
    trace,
    hierarchy: MemoryHierarchy,
    core_config,
    warmup_fraction: float,
    chunk_records: Optional[int] = None,
    sample_hook=None,
    sample_interval: Optional[int] = None,
) -> CoreRunner:
    """Warm-up + measured run of one trace on the batch core.

    Mirrors the scalar driver exactly: a fresh runner per phase, statistics
    reset after warm-up, returns the measured-phase runner (call
    ``finish()`` for the :class:`~repro.cpu.core.CoreResult`).

    ``sample_hook``/``sample_interval`` apply to the measured phase only
    (warm-up statistics are discarded); with sampling active the chunk
    size is capped near the interval so snapshots land close to every
    ``sample_interval`` demand accesses.  Chunking is result-invariant,
    so sampling never changes metrics.
    """
    chunk = chunk_records if chunk_records else DEFAULT_CHUNK_RECORDS
    warmup, measured = trace.split(warmup_fraction)
    if len(warmup):
        warmup_runner = CoreRunner(core_config, hierarchy.demand_access)
        run_core_trace_batched(warmup_runner, warmup, hierarchy, chunk)
        hierarchy.reset_stats(include_shared=True)

    measured_chunk = chunk
    if sample_hook is not None and sample_interval:
        measured_chunk = max(1024, min(chunk, sample_interval))
    runner = CoreRunner(core_config, hierarchy.demand_access)
    run_core_trace_batched(
        runner, measured, hierarchy, measured_chunk,
        sample_hook=sample_hook, sample_interval=sample_interval,
    )
    return runner
