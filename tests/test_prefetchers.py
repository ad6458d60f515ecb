"""Tests for the prefetchers (IPCP, Berti, SPP) and PPF."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.addresses import BLOCK_SIZE
from repro.common.types import MemLevel
from repro.prefetchers.base import AlwaysIssueFilter, PrefetchRequest
from repro.prefetchers.berti import BertiPrefetcher
from repro.prefetchers.ipcp import IPCPPrefetcher
from repro.prefetchers.ppf import PerceptronPrefetchFilter
from repro.prefetchers.spp import DELTA_SPAN, SPPPrefetcher
from repro.sim.scenarios import build_hierarchy, build_scenario

BASE = 0x10_0000


class TestIPCP:
    def test_constant_stride_class_prefetches_ahead(self):
        prefetcher = IPCPPrefetcher()
        requests = []
        for i in range(8):
            requests = prefetcher.on_demand_access(0x400, BASE + i * BLOCK_SIZE, True, 0)
        assert prefetcher.class_counts["cs"] > 0
        targets = [r.vaddr for r in requests]
        assert BASE + 8 * BLOCK_SIZE + BLOCK_SIZE in targets or targets

    def test_next_line_fallback_on_miss(self):
        prefetcher = IPCPPrefetcher(nl_degree=1)
        requests = prefetcher.on_demand_access(0x999, BASE, hit=False, cycle=0)
        assert prefetcher.class_counts["nl"] == 1
        assert requests and requests[0].vaddr == BASE + BLOCK_SIZE

    def test_no_fallback_on_hit(self):
        prefetcher = IPCPPrefetcher()
        requests = prefetcher.on_demand_access(0x999, BASE, hit=True, cycle=0)
        assert requests == []

    def test_global_stream_class_on_dense_page(self):
        prefetcher = IPCPPrefetcher(gs_density_threshold=0.2)
        # One PC sweeping a page with irregular (non-constant) strides: once
        # the page is densely touched the GS class takes over.
        offsets = [(i * 7) % 64 for i in range(64)]
        for offset in offsets:
            prefetcher.on_demand_access(0x400, BASE + offset * BLOCK_SIZE, True, 0)
        assert prefetcher.class_counts["gs"] > 0

    def test_reset_clears_state(self):
        prefetcher = IPCPPrefetcher()
        for i in range(8):
            prefetcher.on_demand_access(0x400, BASE + i * BLOCK_SIZE, True, 0)
        prefetcher.reset()
        assert prefetcher.class_counts["cs"] == 0


class TestBerti:
    def test_learns_local_delta(self):
        prefetcher = BertiPrefetcher(relearn_interval=8, low_coverage=0.1)
        requests = []
        for i in range(32):
            requests = prefetcher.on_demand_access(0x400, BASE + i * BLOCK_SIZE, False, 0)
        assert requests, "Berti should learn the +1 block delta"
        deltas = [r.metadata["delta"] for r in requests]
        assert all(delta > 0 for delta in deltas)

    def test_confidence_reported_as_coverage(self):
        prefetcher = BertiPrefetcher(relearn_interval=8, low_coverage=0.1)
        requests = []
        for i in range(32):
            requests = prefetcher.on_demand_access(0x400, BASE + i * BLOCK_SIZE, False, 0)
        assert all(0.0 < r.confidence <= 1.0 for r in requests)

    def test_page_change_restarts_history(self):
        prefetcher = BertiPrefetcher()
        prefetcher.on_demand_access(0x400, BASE, False, 0)
        prefetcher.on_demand_access(0x400, BASE + (1 << 20), False, 0)
        key = 0x400 % prefetcher.table_entries
        assert prefetcher._history_lengths[key] == 1

    def test_reset(self):
        prefetcher = BertiPrefetcher()
        prefetcher.on_demand_access(0x400, BASE, False, 0)
        prefetcher.reset()
        key = 0x400 % prefetcher.table_entries
        assert prefetcher._history_lengths[key] == 0
        assert prefetcher._pages[key] == -1
        assert prefetcher._totals[key] == 0


class ReferenceIPCP(IPCPPrefetcher):
    """IPCP's region tracker as a FIFO-bounded dict of
    ``[touched mask, last offset, direction]`` lists, the oracle of the
    flat region FIFO.  Counts the regions it evicts."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._regions: dict[int, list[int]] = {}
        self._region_order: list[int] = []
        self.evictions = 0

    def _track_region(self, page: int, offset: int) -> tuple[int, int]:
        region = self._regions.get(page)
        if region is None:
            region = self._regions[page] = [0, -1, 1]
            self._region_order.append(page)
            if len(self._region_order) > self.region_entries:
                self.evictions += 1
                self._regions.pop(self._region_order.pop(0), None)
        if region[1] >= 0 and offset != region[1]:
            region[2] = 1 if offset > region[1] else -1
        region[1] = offset
        region[0] |= 1 << offset
        return region[0], region[2]


def _ipcp_requests(prefetcher, pc, vaddr, hit) -> list:
    return [
        (r.vaddr, r.confidence, r.metadata)
        for r in prefetcher.on_demand_access(pc, vaddr, hit, 0)
    ]


class TestIPCPRegions:
    """The flat region FIFO against the dict-based oracle: the same
    requests, class counts and regions in the same order, with the FIFO
    evicting."""

    @settings(max_examples=60, deadline=None)
    @given(
        region_entries=st.sampled_from([1, 2, 3, 8]),
        accesses=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 5), st.integers(0, 63),
                      st.booleans()),
            min_size=1, max_size=300,
        ),
    )
    def test_matches_reference(self, region_entries, accesses):
        options = dict(ip_table_entries=4, cplx_table_entries=8,
                       region_entries=region_entries, gs_density_threshold=0.1)
        flat, reference = IPCPPrefetcher(**options), ReferenceIPCP(**options)
        # A final sweep of twelve fresh pages always overflows the FIFO.
        stream = accesses + [(0, 10 + page, 5, False) for page in range(12)]
        for pc, page, offset, hit in stream:
            vaddr = (page << 12) | (offset << 6)
            assert _ipcp_requests(flat, pc, vaddr, hit) == _ipcp_requests(
                reference, pc, vaddr, hit
            )
        assert flat.class_counts == reference.class_counts
        assert flat._ip_buf == reference._ip_buf
        assert _fifo_items(
            flat._regions, flat._region_touched, flat._region_offset,
            flat._region_direction,
        ) == [(page, *reference._regions[page]) for page in reference._region_order]
        assert reference.evictions > 0


class ReferenceBerti:
    """Berti's per-entry state as Python containers -- block histories,
    insertion-ordered delta -> count dicts and ``(delta, coverage)`` lists --
    the oracle of the flat rows.  Counts the counter halvings it makes."""

    def __init__(self, table_entries, low_coverage, max_prefetch_degree,
                 relearn_interval) -> None:
        self.table_entries = table_entries
        self.low_coverage = low_coverage
        self.max_prefetch_degree = max_prefetch_degree
        self.relearn_interval = relearn_interval
        self.pages = [-1] * table_entries
        self.totals = [0] * table_entries
        self.histories = [[] for _ in range(table_entries)]
        self.delta_hits = [{} for _ in range(table_entries)]
        self.confirmed = [[] for _ in range(table_entries)]
        self.halvings = 0

    def on_demand_access(self, pc, vaddr) -> list:
        key, block, page = pc % self.table_entries, vaddr >> 6, vaddr >> 12
        history = self.histories[key]
        if self.pages[key] != page:
            self.pages[key] = page
            history.clear()
        total = self.totals[key]
        if history:
            hits = self.delta_hits[key]
            for delta in dict.fromkeys(block - previous for previous in history):
                if delta:
                    hits[delta] = hits.get(delta, 0) + 1
            total += 1
        history.append(block)
        if len(history) > 16:
            del history[0]
        if total >= self.relearn_interval:
            hits = self.delta_hits[key]
            confirmed = [
                (delta, min(count / total, 1.0)) for delta, count in hits.items()
                if total > 0 and count / total >= self.low_coverage
            ]
            confirmed.sort(key=lambda item: item[1], reverse=True)
            self.confirmed[key] = confirmed
            self.halvings += bool(hits)
            self.delta_hits[key] = {d: c // 2 for d, c in hits.items() if c > 1}
            self.totals[key] = total // 2
        else:
            self.totals[key] = total
        return [
            ((block + delta) << 6, coverage, {"delta": delta})
            for delta, coverage in self.confirmed[key][: self.max_prefetch_degree]
            if block + delta > 0
        ]


def _berti_state(berti: BertiPrefetcher) -> list:
    """Each entry's page, total, history blocks, (delta, count) pairs in
    insertion order and confirmed (delta, coverage) pairs."""
    entries = []
    for key in range(berti.table_entries):
        page, row = berti._pages[key], key * DELTA_SPAN
        depth = len(berti._history) // berti.table_entries
        offsets = berti._history[key * depth:key * depth + berti._history_lengths[key]]
        order = berti._delta_order[row:row + berti._delta_lengths[key]].tolist()
        confirmed = range(row, row + berti._confirmed_lengths[key])
        entries.append((
            page,
            berti._totals[key],
            [(page << 6) | offset for offset in offsets.tolist()],
            [(delta, berti._delta_counts[row + delta + 63]) for delta in order],
            [(berti._confirmed_deltas[i], berti._confirmed_coverage[i]) for i in confirmed],
        ))
    assert sum(berti._delta_counts.tolist()) == sum(
        count for entry in entries for _, count in entry[3]
    )
    return entries


class TestBertiTables:
    """The flat Berti rows against the container-based oracle: the same
    requests and the same state, through history wrap-around, page changes
    and counter halving."""

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.sampled_from([1, 2, 5]),
        relearn_interval=st.sampled_from([1, 4, 16]),
        low_coverage=st.sampled_from([0.0, 0.2, 0.35]),
        max_prefetch_degree=st.sampled_from([-1, 2, 200]),
        accesses=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 2), st.integers(0, 63)),
            max_size=300,
        ),
    )
    def test_matches_reference(self, entries, relearn_interval, low_coverage,
                               max_prefetch_degree, accesses):
        options = dict(table_entries=entries, relearn_interval=relearn_interval,
                       low_coverage=low_coverage,
                       max_prefetch_degree=max_prefetch_degree)
        flat, reference = BertiPrefetcher(**options), ReferenceBerti(**options)
        # A final walk of one page by one PC fills its history past 16
        # blocks and halves its counters.
        stream = accesses + [(3, 9, offset) for offset in range(0, 60, 2)]
        for pc, page, offset in stream:
            vaddr = (page << 12) | (offset << 6)
            assert [
                (r.vaddr, r.confidence, r.metadata)
                for r in flat.on_demand_access(pc, vaddr, False, 0)
            ] == reference.on_demand_access(pc, vaddr)
        assert _berti_state(flat) == [
            (reference.pages[k], reference.totals[k], reference.histories[k],
             list(reference.delta_hits[k].items()), reference.confirmed[k])
            for k in range(entries)
        ]
        assert reference.halvings > 0


class TestSPP:
    def test_learns_stream_and_prefetches(self):
        spp = SPPPrefetcher()
        requests = []
        for i in range(32):
            requests = spp.on_access(BASE + i * BLOCK_SIZE, 0x400, hit=False, cycle=0)
        assert requests, "SPP should follow the +1 delta signature path"
        assert all(r.fill_level in (MemLevel.L2C, MemLevel.LLC) for r in requests)

    def test_lookahead_confidence_decays(self):
        spp = SPPPrefetcher()
        requests = []
        for i in range(64):
            requests = spp.on_access(BASE + i * BLOCK_SIZE, 0x400, False, 0)
        confidences = [r.confidence for r in requests]
        assert confidences == sorted(confidences, reverse=True)

    def test_aggressive_preset_prefetches_deeper(self):
        conservative = SPPPrefetcher()
        aggressive = SPPPrefetcher(aggressive=True)
        assert aggressive.max_lookahead_depth > conservative.max_lookahead_depth

    def test_new_page_does_not_prefetch_immediately(self):
        spp = SPPPrefetcher()
        assert spp.on_access(BASE, 0x400, False, 0) == []

    def test_reset(self):
        spp = SPPPrefetcher()
        for i in range(16):
            spp.on_access(BASE + i * BLOCK_SIZE, 0x400, False, 0)
        spp.reset()
        assert spp.on_access(BASE, 0x400, False, 0) == []

    def test_reset_zeroes_every_table(self):
        spp = SPPPrefetcher(pattern_table_entries=4)
        for i in range(200):
            spp.step(((i % 3) << 6) | (i * 7 % 64), 0)
        assert all(np.asarray(table).any() for table in _pattern_tables(spp))
        spp.reset()
        assert not any(np.asarray(table).any() for table in _pattern_tables(spp))
        assert spp.lookahead_prefetches == 0
        assert _fifo_items(spp._signatures, spp._signature_packed) == []


def _fifo_items(table, *payloads) -> list:
    """A :class:`FifoTable`'s ``(page, payload...)`` items, oldest first (the
    next insertion's slot holds the oldest page once the table is full)."""
    pages = table.pages
    start = table.inserted[0] % len(pages)
    slots = list(range(start, len(pages))) + list(range(start))
    return [
        (pages[slot], *(payload[slot] for payload in payloads))
        for slot in slots if pages[slot] != -1
    ]


def _pattern_tables(spp: SPPPrefetcher) -> list:
    return [
        spp._pattern_counts, spp._pattern_deltas, spp._pattern_lengths,
        spp._pattern_totals, spp._pattern_best_count, spp._pattern_best_delta,
    ]


class ReferenceSPP(SPPPrefetcher):
    """SPP's signature table as a FIFO-bounded dict and its pattern table as
    a list of insertion-ordered delta -> count dicts (None: never trained),
    the oracle of the flat arrays.  Counts the halvings it makes and the
    best-delta scans that meet a tie."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._signatures: dict[int, int] = {}
        self._signature_order: list[int] = []
        m = self.pattern_table_entries
        self._pattern_dicts: list[dict[int, int] | None] = [None] * m
        self._pattern_sums = [0] * m
        self._pattern_best: list[tuple[int, int] | None] = [None] * m
        self.halvings = self.ties = 0

    def step(self, block: int, pc: int):
        page = block >> 6
        offset = block & 0x3F
        signatures = self._signatures
        packed = signatures.get(page)
        if packed is None:
            signatures[page] = offset
            order = self._signature_order
            order.append(page)
            if len(order) > self.signature_table_entries:
                signatures.pop(order.pop(0), None)
            return None
        delta = offset - (packed & 0x3F)
        if delta == 0:
            return None
        signature = packed >> 6
        m = self.pattern_table_entries
        key = signature % m
        deltas = self._pattern_dicts[key]
        if deltas is None:
            self._pattern_dicts[key] = {delta: 1}
            total = 1
        else:
            deltas[delta] = deltas.get(delta, 0) + 1
            total = self._pattern_sums[key] + 1
            if total >= 64:
                self.halvings += 1
                deltas = {d: c // 2 for d, c in deltas.items() if c > 1}
                self._pattern_dicts[key] = deltas
                total = sum(deltas.values())
        self._pattern_best[key] = None
        self._pattern_sums[key] = total
        signature = ((signature << 3) ^ (delta & 0x7F)) & 0xFFF
        signatures[page] = (signature << 6) | offset

        predictions = None
        path_confidence = 1.0
        predicted_block = block
        for depth in range(self.max_lookahead_depth):
            key = signature % m
            deltas = self._pattern_dicts[key]
            if not deltas:
                break
            total = self._pattern_sums[key]
            if total == 0:
                break
            best = self._pattern_best[key]
            if best is None:
                best = max(deltas.items(), key=lambda item: item[1])
                self.ties += list(deltas.values()).count(best[1]) > 1
                self._pattern_best[key] = best
            predicted_delta = best[0]
            path_confidence *= best[1] / total
            if path_confidence < self.lookahead_confidence:
                break
            predicted_block = predicted_block + predicted_delta
            if predicted_block <= 0:
                break
            if predictions is None:
                predictions = []
            predictions.append((
                predicted_block, path_confidence >= self.l2_fill_confidence,
                signature, predicted_delta, depth, path_confidence,
            ))
            if depth > 0:
                self.lookahead_prefetches += 1
            signature = ((signature << 3) ^ (predicted_delta & 0x7F)) & 0xFFF
        return predictions


def _live_entries(spp: SPPPrefetcher) -> list:
    """Each pattern entry's (delta, count) pairs in insertion order."""
    entries = []
    for key in range(spp.pattern_table_entries):
        row = key * DELTA_SPAN
        deltas = spp._pattern_deltas[row:row + spp._pattern_lengths[key]].tolist()
        entries.append([(d, spp._pattern_counts[row + d + 63]) for d in deltas])
    assert sum(spp._pattern_counts.tolist()) == sum(spp._pattern_totals.tolist())
    return entries


class TestSPPPatternTable:
    """The flat pattern table against the dict-based oracle.  Every stream
    ends in a page stepping 0, 1, 0, 1, ...: the alternating deltas push
    totals to 64 (halving) and, with one pattern entry, tie in count, where
    the earliest-inserted delta must win."""

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.sampled_from([1, 1, 2, 5, 512]),
        aggressive=st.booleans(),
        blocks=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 63)), max_size=300
        ),
    )
    def test_matches_reference(self, entries, aggressive, blocks):
        options = dict(signature_table_entries=2, pattern_table_entries=entries,
                       aggressive=aggressive)
        flat, reference = SPPPrefetcher(**options), ReferenceSPP(**options)
        stream = [(page << 6) | offset for page, offset in blocks]
        stream += [(5 << 6) | (i % 2) for i in range(140)]
        for block in stream:
            assert flat.step(block, 0) == reference.step(block, 0)
        assert flat.lookahead_prefetches == reference.lookahead_prefetches
        assert _fifo_items(flat._signatures, flat._signature_packed) == list(
            reference._signatures.items()
        )
        assert _live_entries(flat) == [
            list(deltas.items()) if deltas else [] for deltas in reference._pattern_dicts
        ]
        assert reference.halvings > 0
        if entries == 1:
            assert reference.ties > 0


class TestPPF:
    def make_request(self, delta=1, depth=0, confidence=0.8):
        return PrefetchRequest(
            vaddr=BASE,
            trigger_pc=0x400,
            trigger_vaddr=BASE - 64,
            confidence=confidence,
            metadata={
                "signature": 0x123,
                "delta": delta,
                "depth": depth,
                "path_confidence": confidence,
            },
        )

    def test_initially_accepts(self):
        ppf = PerceptronPrefetchFilter()
        assert ppf.consult(self.make_request(), BASE, False, 0).issue

    def test_learns_to_reject_useless_prefetches(self):
        ppf = PerceptronPrefetchFilter(issue_threshold=0)
        request = self.make_request()
        for _ in range(60):
            decision = ppf.consult(request, BASE, False, 0)
            ppf.train(decision.metadata, False)
        assert not ppf.consult(request, BASE, False, 0).issue
        assert ppf.reject_rate > 0.0

    def test_learns_to_keep_useful_prefetches(self):
        ppf = PerceptronPrefetchFilter(issue_threshold=0)
        request = self.make_request(delta=2)
        for _ in range(60):
            decision = ppf.consult(request, BASE, False, 0)
            ppf.train(decision.metadata, True)
        assert ppf.consult(request, BASE, False, 0).issue

    def test_storage_around_40kb(self):
        ppf = PerceptronPrefetchFilter()
        assert 18.0 < ppf.storage_kib() < 45.0

    def test_reset(self):
        ppf = PerceptronPrefetchFilter()
        decision = ppf.consult(self.make_request(), BASE, False, 0)
        ppf.train(decision.metadata, False)
        ppf.reset()
        assert ppf.consultations == 0


class TestFactoryAndFilters:
    @staticmethod
    def l1d_prefetcher(name):
        scenario = build_scenario("baseline", l1d_prefetcher=name)
        return build_hierarchy(scenario).l1d_prefetcher

    def test_factory_names(self):
        assert type(self.l1d_prefetcher("ipcp")) is IPCPPrefetcher
        assert type(self.l1d_prefetcher("berti")) is BertiPrefetcher
        assert self.l1d_prefetcher("none") is None

    def test_factory_unknown(self):
        with pytest.raises(ValueError):
            self.l1d_prefetcher("bingo")

    def test_always_issue_filter(self):
        filt = AlwaysIssueFilter()
        request = PrefetchRequest(vaddr=BASE, trigger_pc=1, trigger_vaddr=2)
        assert filt.consult(request, BASE, False, 0).issue


class TestTableSizes:
    @pytest.mark.parametrize("make,argument", [
        (IPCPPrefetcher, "ip_table_entries"),
        (IPCPPrefetcher, "cplx_table_entries"),
        (IPCPPrefetcher, "region_entries"),
        (BertiPrefetcher, "table_entries"),
        (SPPPrefetcher, "signature_table_entries"),
        (SPPPrefetcher, "pattern_table_entries"),
        (PerceptronPrefetchFilter, "table_entries"),
    ])
    @pytest.mark.parametrize("size", (0, -3))
    def test_empty_table_is_refused(self, make, argument, size):
        """A table below one entry is refused when the component is built,
        instead of dividing by zero on the first access."""
        with pytest.raises(ValueError, match=f"{argument} must be at least 1, got {size}"):
            make(**{argument: size})
