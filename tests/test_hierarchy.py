"""Tests for the composed memory hierarchy."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.addresses import BLOCK_SIZE, block_address
from repro.common.config import (
    CacheConfig,
    cascade_lake_multi_core,
    cascade_lake_single_core,
)
from repro.common.types import MemLevel
from repro.core.slp import SecondLevelPerceptron
from repro.core.tlp import TwoLevelPerceptron
from repro.memory.cache import PREFETCH_PENDING, PREFETCHED
from repro.memory.hierarchy import MemoryHierarchy, SharedMemory
from repro.predictors.base import (
    OffChipAction,
    OffChipDecision,
    OffChipPredictor,
)
from repro.prefetchers.base import L1DPrefetcher, PrefetchRequest


class ForcedPredictor(OffChipPredictor):
    """Test double that always returns a fixed action."""

    name = "forced"

    def __init__(self, action):
        self.action = action
        self.trained = []
        self.last_prediction = action is not OffChipAction.NONE

    def predict(self, pc, vaddr, cycle):
        return OffChipDecision(
            action=self.action,
            predicted_offchip=self.action is not OffChipAction.NONE,
            confidence=10,
            metadata={"token": (pc, vaddr)},
        )

    def train(self, metadata, went_offchip):
        self.trained.append((metadata.get("token"), went_offchip))


class NextBlockPrefetcher(L1DPrefetcher):
    """Test double that prefetches the next block on every demand access."""

    name = "next_block"

    def on_demand_access(self, pc, vaddr, hit, cycle):
        return [PrefetchRequest(vaddr=vaddr + BLOCK_SIZE, trigger_pc=pc, trigger_vaddr=vaddr)]


def make_hierarchy(**kwargs):
    return MemoryHierarchy(cascade_lake_single_core(), **kwargs)


class TestDemandPath:
    def test_cold_miss_goes_to_dram(self):
        hierarchy = make_hierarchy()
        outcome = hierarchy.demand_access(0x400, 0x10_0000, cycle=0)
        assert outcome.served_by is MemLevel.DRAM
        assert hierarchy.dram.stats.demand_transactions == 1

    def test_second_access_hits_l1d(self):
        hierarchy = make_hierarchy()
        hierarchy.demand_access(0x400, 0x10_0000, cycle=0)
        outcome = hierarchy.demand_access(0x400, 0x10_0000, cycle=1000)
        assert outcome.served_by is MemLevel.L1D
        assert outcome.latency >= hierarchy.l1d.latency

    def test_latency_accumulates_down_the_hierarchy(self):
        hierarchy = make_hierarchy()
        outcome = hierarchy.demand_access(0x400, 0x20_0000, cycle=0)
        expected_minimum = (
            hierarchy.l1d.latency
            + hierarchy.l2c.latency
            + hierarchy.llc.latency
            + hierarchy.dram.config.access_latency
        )
        assert outcome.latency >= expected_minimum

    def test_served_by_statistics(self):
        hierarchy = make_hierarchy()
        hierarchy.demand_access(0x400, 0x30_0000, cycle=0)
        hierarchy.demand_access(0x400, 0x30_0000, cycle=10)
        assert hierarchy.stats.served_by[MemLevel.DRAM] == 1
        assert hierarchy.stats.served_by[MemLevel.L1D] == 1

    def test_stores_counted_separately(self):
        hierarchy = make_hierarchy()
        hierarchy.demand_access(0x400, 0x40_0000, cycle=0, is_write=True)
        assert hierarchy.stats.demand_stores == 1
        assert hierarchy.stats.demand_loads == 0

    def test_mpki_helper(self):
        hierarchy = make_hierarchy()
        hierarchy.demand_access(0x400, 0x40_0000, cycle=0)
        assert hierarchy.mpki(MemLevel.L1D, 1000) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            hierarchy.mpki(MemLevel.DRAM, 1000)
        with pytest.raises(ValueError):
            hierarchy.mpki(MemLevel.L1D, 0)


class TestSpeculativeRequests:
    def test_immediate_prediction_counts_speculative_transaction(self):
        predictor = ForcedPredictor(OffChipAction.IMMEDIATE)
        hierarchy = make_hierarchy(offchip_predictor=predictor)
        outcome = hierarchy.demand_access(0x400, 0x50_0000, cycle=0)
        assert outcome.speculative_dram_issued
        assert hierarchy.dram.stats.speculative_transactions == 1
        # The demand merges with the speculative request: no demand transaction.
        assert hierarchy.dram.stats.demand_transactions == 0

    def test_correct_speculation_reduces_effective_latency(self):
        predictor = ForcedPredictor(OffChipAction.IMMEDIATE)
        hierarchy = make_hierarchy(offchip_predictor=predictor)
        outcome = hierarchy.demand_access(0x400, 0x50_0000, cycle=0)
        assert outcome.served_by is MemLevel.DRAM
        assert outcome.effective_latency < outcome.latency

    def test_wrong_speculation_wastes_a_transaction(self):
        predictor = ForcedPredictor(OffChipAction.IMMEDIATE)
        hierarchy = make_hierarchy(offchip_predictor=predictor)
        hierarchy.demand_access(0x400, 0x60_0000, cycle=0)
        before = hierarchy.dram.stats.total_transactions
        outcome = hierarchy.demand_access(0x400, 0x60_0000, cycle=1000)
        assert outcome.served_by is MemLevel.L1D
        assert hierarchy.dram.stats.total_transactions == before + 1

    def test_delayed_prediction_saved_on_l1d_hit(self):
        predictor = ForcedPredictor(OffChipAction.DELAYED)
        hierarchy = make_hierarchy(offchip_predictor=predictor)
        hierarchy.demand_access(0x400, 0x70_0000, cycle=0)
        before = hierarchy.dram.stats.speculative_transactions
        hierarchy.demand_access(0x400, 0x70_0000, cycle=1000)
        assert hierarchy.dram.stats.speculative_transactions == before
        assert hierarchy.stats.delayed_predictions_saved == 1

    def test_delayed_prediction_fires_on_l1d_miss(self):
        predictor = ForcedPredictor(OffChipAction.DELAYED)
        hierarchy = make_hierarchy(offchip_predictor=predictor)
        hierarchy.demand_access(0x400, 0x80_0000, cycle=0)
        assert hierarchy.stats.delayed_speculative_requests == 1
        assert hierarchy.dram.stats.speculative_transactions == 1

    def test_offchip_prediction_location_breakdown(self):
        predictor = ForcedPredictor(OffChipAction.IMMEDIATE)
        hierarchy = make_hierarchy(offchip_predictor=predictor)
        hierarchy.demand_access(0x400, 0x90_0000, cycle=0)   # DRAM resident
        hierarchy.demand_access(0x400, 0x90_0000, cycle=500)  # L1D resident
        locations = hierarchy.stats.offchip_prediction_location
        assert locations[MemLevel.DRAM] == 1
        assert locations[MemLevel.L1D] == 1

    def test_predictor_trained_with_true_outcome(self):
        predictor = ForcedPredictor(OffChipAction.NONE)
        hierarchy = make_hierarchy(offchip_predictor=predictor)
        hierarchy.demand_access(0x400, 0xA0_0000, cycle=0)
        hierarchy.demand_access(0x400, 0xA0_0000, cycle=100)
        assert predictor.trained[0][1] is True
        assert predictor.trained[1][1] is False


class TestPrefetchPath:
    def test_next_line_prefetch_issued_and_tracked(self):
        hierarchy = make_hierarchy(l1d_prefetcher=NextBlockPrefetcher())
        hierarchy.demand_access(0x400, 0xB0_0000, cycle=0)
        assert hierarchy.stats.l1d_prefetches_issued == 1
        assert hierarchy.dram.stats.l1d_prefetch_transactions >= 1

    def test_prefetch_hit_marks_useful(self):
        hierarchy = make_hierarchy(l1d_prefetcher=NextBlockPrefetcher())
        hierarchy.demand_access(0x400, 0xB0_0000, cycle=0)
        outcome = hierarchy.demand_access(0x400, 0xB0_0040, cycle=1000)
        assert outcome.served_by is MemLevel.L1D
        assert outcome.prefetch_hit
        assert hierarchy.stats.useful_l1d_prefetches == 1

    def test_unused_prefetch_counts_inaccurate_at_finalize(self):
        hierarchy = make_hierarchy(l1d_prefetcher=NextBlockPrefetcher())
        hierarchy.demand_access(0x400, 0xC0_0000, cycle=0)
        hierarchy.finalize()
        assert hierarchy.stats.useless_l1d_prefetches == 1

    def test_prefetch_already_resident_dropped(self):
        hierarchy = make_hierarchy(l1d_prefetcher=NextBlockPrefetcher())
        hierarchy.demand_access(0x400, 0xD0_0040, cycle=0)
        hierarchy.demand_access(0x400, 0xD0_0000, cycle=100)
        assert hierarchy.stats.l1d_prefetches_dropped_resident >= 1

    def test_in_flight_prefetch_charges_remaining_latency(self):
        hierarchy = make_hierarchy(l1d_prefetcher=NextBlockPrefetcher())
        hierarchy.demand_access(0x400, 0xE0_0000, cycle=0)
        # Access the prefetched block immediately: the fill has not arrived.
        outcome = hierarchy.demand_access(0x400, 0xE0_0040, cycle=1)
        assert outcome.served_by is MemLevel.L1D
        assert outcome.latency > hierarchy.l1d.latency

    def test_slp_filter_blocks_prefetches_when_trained(self):
        slp = SecondLevelPerceptron(tau_pref=0)
        hierarchy = make_hierarchy(
            l1d_prefetcher=NextBlockPrefetcher(), l1d_prefetch_filter=slp
        )
        base = 0xF0_0000
        for index in range(60):
            hierarchy.demand_access(0x400, base + index * 0x10_0000, cycle=index * 500)
        assert hierarchy.stats.l1d_prefetches_filtered > 0

    def test_prefetch_accuracy_sources_tracked(self):
        hierarchy = make_hierarchy(l1d_prefetcher=NextBlockPrefetcher())
        hierarchy.demand_access(0x400, 0x11_0000, cycle=0)
        hierarchy.demand_access(0x400, 0x11_0040, cycle=1000)
        hierarchy.finalize()
        total_accurate = sum(hierarchy.stats.accurate_prefetch_source.values())
        assert total_accurate == hierarchy.stats.useful_l1d_prefetches


class TestSharedMemory:
    def test_two_cores_share_llc_and_dram(self):
        config = cascade_lake_multi_core(2)
        shared = SharedMemory(config)
        core0 = MemoryHierarchy(config, shared=shared, core_id=0)
        core1 = MemoryHierarchy(config, shared=shared, core_id=1)
        core0.demand_access(0x400, 0x12_0000, cycle=0)
        core1.demand_access(0x400, 0x13_0000, cycle=0)
        assert shared.dram.stats.total_transactions == 2
        assert core0.llc is core1.llc

    def test_llc_scaled_by_core_count(self):
        config = cascade_lake_multi_core(4)
        shared = SharedMemory(config)
        assert shared.llc.config.size_bytes == 4 * 1408 * 1024

    def test_reset_stats_keeps_cache_contents(self):
        hierarchy = make_hierarchy()
        hierarchy.demand_access(0x400, 0x14_0000, cycle=0)
        hierarchy.reset_stats()
        assert hierarchy.stats.demand_loads == 0
        outcome = hierarchy.demand_access(0x400, 0x14_0000, cycle=10)
        assert outcome.served_by is MemLevel.L1D


class TestTLPIntegration:
    def test_tlp_attached_hierarchy_runs(self):
        tlp = TwoLevelPerceptron()
        hierarchy = make_hierarchy(
            l1d_prefetcher=NextBlockPrefetcher(),
            offchip_predictor=tlp.flp,
            l1d_prefetch_filter=tlp.slp,
        )
        for index in range(50):
            hierarchy.demand_access(0x400 + index % 3, 0x20_0000 + index * 0x1000, cycle=index * 50)
        assert hierarchy.stats.demand_loads == 50
        assert tlp.flp.perceptron.stats.predictions == 50


# ----------------------------------------------------------------------
# Pending L1D prefetches: the PREFETCH_PENDING bit against a dict oracle
# ----------------------------------------------------------------------
class ScriptedPrefetcher(L1DPrefetcher):
    """Prefetches, on the n-th demand access, the blocks at the n-th
    script entry's offsets from the demand block (0 is the demand block
    itself); nothing once the script runs out."""

    def __init__(self, script):
        self._script = iter(script)

    def on_demand_access(self, pc, vaddr, hit, cycle):
        return [
            PrefetchRequest(vaddr=vaddr + offset * BLOCK_SIZE, trigger_pc=pc, trigger_vaddr=vaddr)
            for offset in next(self._script, ())
        ]


class ReferenceHierarchy(MemoryHierarchy):
    """The oracle the PREFETCH_PENDING bit must match: a dict of issued L1D
    prefetches (block -> serve level), resolved on first use or on the
    eviction of a still-prefetched block, counted useless on a re-issue or
    at finalize and dropped at reset."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pending: dict[int, MemLevel] = {}
        self._fetched = None

    def _count(self, served_by, useful):
        stats = self.stats
        if useful:
            stats.useful_l1d_prefetches += 1
            stats.accurate_prefetch_source[served_by] += 1
        else:
            stats.useless_l1d_prefetches += 1
            stats.inaccurate_prefetch_source[served_by] += 1

    def _fetch_for_prefetch(self, block, cycle, source):
        self._fetched = super()._fetch_for_prefetch(block, cycle, source)
        return self._fetched

    def _issue_l1d_prefetch(self, request, trigger_offchip_prediction, cycle):
        issued = self.stats.l1d_prefetches_issued
        super()._issue_l1d_prefetch(request, trigger_offchip_prediction, cycle)
        if self.stats.l1d_prefetches_issued == issued:
            return
        block = block_address(self.page_table.translate(request.vaddr))
        previous = self.pending.pop(block, None)
        if previous is not None:
            self._count(previous, useful=False)
        self.pending[block] = self._fetched[0]

    def _resolve_l1d_prefetch_use(self, block):
        served_by = self.pending.pop(block, None)
        if served_by is not None:
            self._count(served_by, useful=True)

    def _on_l1d_eviction(self, info):
        if info.was_prefetched and info.block_addr in self.pending:
            self._count(self.pending.pop(info.block_addr), info.prefetch_was_useful)

    def reset_stats(self, include_shared=True):
        super().reset_stats(include_shared)
        self.pending.clear()

    def finalize(self):
        for served_by in self.pending.values():
            self._count(served_by, useful=False)
        self.pending.clear()


def _tiny_system():
    """Two-way caches of a few sets: prefetches are evicted, served from
    every level, and DRAM backs up."""
    return dataclasses.replace(
        cascade_lake_single_core(),
        l1d=CacheConfig("L1D", 4 * 2 * 64, 2, 4, 10),
        l2c=CacheConfig("L2C", 8 * 2 * 64, 2, 10, 16),
        llc=CacheConfig("LLC", 16 * 2 * 64, 2, 36, 64),
    )


def _prefetch_counts(hierarchy):
    stats = hierarchy.stats
    return {
        "issued": stats.l1d_prefetches_issued,
        "useful": stats.useful_l1d_prefetches,
        "useless": stats.useless_l1d_prefetches,
        "accurate": dict(stats.accurate_prefetch_source),
        "inaccurate": dict(stats.inaccurate_prefetch_source),
        "served": dict(stats.l1d_prefetch_served_by),
    }


BASE = 0x40_0000 + 0xC00
ACCESS = st.tuples(
    st.integers(-6, 6),  # step from the previous demand block
    st.booleans(),  # store
    st.integers(0, 60),  # cycles since the previous access
    st.lists(st.integers(-3, 3), max_size=3),  # prefetch offsets
)


@st.composite
def runs(draw):
    """Accesses plus the index of the warm-up reset (None: no reset)."""
    accesses = draw(st.lists(ACCESS, min_size=1, max_size=120))
    reset_at = draw(st.one_of(st.none(), st.integers(0, len(accesses) - 1)))
    return accesses, reset_at


class TestPendingPrefetches:
    @settings(max_examples=60, deadline=None)
    @given(run=runs())
    def test_flag_bit_matches_the_dict_bookkeeping(self, run):
        """Useful, useless and per-level counts equal the dict oracle's
        over random traces, with a warm-up reset anywhere in the run."""
        accesses, reset_at = run
        script = [offsets for _, _, _, offsets in accesses]
        hierarchies = [
            cls(_tiny_system(), l1d_prefetcher=ScriptedPrefetcher(script))
            for cls in (MemoryHierarchy, ReferenceHierarchy)
        ]
        for hierarchy in hierarchies:
            cycle = block = 0
            for index, (step, is_write, gap, _) in enumerate(accesses):
                if index == reset_at:
                    hierarchy.reset_stats()
                cycle += gap
                block = (block + step) % 40  # spans a page boundary
                hierarchy.demand_access(0x400, BASE + block * BLOCK_SIZE, cycle, is_write)
            hierarchy.finalize()
        counts, reference = (_prefetch_counts(h) for h in hierarchies)
        assert counts == reference
        assert counts["useful"] + counts["useless"] == counts["issued"]
        assert not any(
            flags & PREFETCH_PENDING for flags in hierarchies[0].l1d._flags
        )

    def test_prefetch_of_the_demand_block_counts_useless_at_eviction(self):
        """A prefetch issued for the missing demand block before the walk
        fills it: the demand fill clears PREFETCHED, so a later hit is no
        first use, and the prefetch counts useless when evicted.  The dict
        counted it when the block was prefetched again (or at finalize):
        the same totals."""
        # Accesses 0, 2 and 3 map to one two-way L1D set; access 4 prefetches
        # the evicted demand block of access 0 again.
        offsets = [0, 0, 4, 8, 1]
        script = [[0], [], [], [], [-1]]
        hierarchies = [
            cls(_tiny_system(), l1d_prefetcher=ScriptedPrefetcher(script))
            for cls in (MemoryHierarchy, ReferenceHierarchy)
        ]
        block = block_address(hierarchies[0].page_table.translate(BASE))
        l1d = hierarchies[0].l1d
        for hierarchy in hierarchies:
            outcomes = [
                hierarchy.demand_access(0x400, BASE + offset * BLOCK_SIZE, cycle=index * 1_000)
                for index, offset in enumerate(offsets[:2])
            ]
            assert outcomes[0].served_by is MemLevel.L2C
            assert outcomes[1].served_by is MemLevel.L1D
            assert not outcomes[1].prefetch_hit
        assert l1d._flags[l1d.find(block)] & (PREFETCHED | PREFETCH_PENDING) == (
            PREFETCH_PENDING
        )
        useless_at_eviction = []
        for hierarchy in hierarchies:
            for index, offset in enumerate(offsets[2:], start=2):
                if index == 4:
                    assert not hierarchy.l1d.resident(block)
                    useless_at_eviction.append(hierarchy.stats.useless_l1d_prefetches)
                hierarchy.demand_access(0x400, BASE + offset * BLOCK_SIZE, cycle=index * 1_000)
            hierarchy.finalize()
        assert useless_at_eviction == [1, 0]
        counts, reference = (_prefetch_counts(h) for h in hierarchies)
        assert counts == reference
        assert (counts["issued"], counts["useful"], counts["useless"]) == (2, 0, 2)
        assert counts["inaccurate"][MemLevel.DRAM] == 1

    def test_invalidating_a_pending_block_counts_it_useless(self):
        hierarchy = make_hierarchy(l1d_prefetcher=NextBlockPrefetcher())
        hierarchy.demand_access(0x400, BASE, cycle=0)
        target = block_address(hierarchy.page_table.translate(BASE + BLOCK_SIZE))
        assert hierarchy.l1d.invalidate(target)
        stats = hierarchy.stats
        assert (stats.useful_l1d_prefetches, stats.useless_l1d_prefetches) == (0, 1)
        assert stats.inaccurate_prefetch_source[MemLevel.DRAM] == 1
        hierarchy.finalize()
        assert stats.useless_l1d_prefetches == 1

    def test_reset_drops_warm_up_prefetches(self):
        hierarchy = make_hierarchy(l1d_prefetcher=NextBlockPrefetcher())
        hierarchy.demand_access(0x400, BASE, cycle=0)
        hierarchy.reset_stats()
        hierarchy.demand_access(0x400, BASE + 8 * BLOCK_SIZE, cycle=1_000)
        hierarchy.finalize()
        stats = hierarchy.stats
        assert stats.l1d_prefetches_issued == 1
        assert (stats.useful_l1d_prefetches, stats.useless_l1d_prefetches) == (0, 1)
