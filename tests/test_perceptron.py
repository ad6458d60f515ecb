"""Tests for the hashed perceptron machinery and feature extraction."""

from collections import OrderedDict, deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.predictors.features import (
    FeatureContext,
    FeatureHistory,
    legacy_hermes_features,
    leveling_feature,
    slp_features,
)
from repro.predictors.perceptron import HashedPerceptron


def make_context(pc=0x400, address=0x1000, first=False, history=(1, 2, 3, 4), flp=False):
    return FeatureContext(
        pc=pc,
        address=address,
        first_access=first,
        last_load_pcs=history,
        flp_prediction=flp,
    )


class TestFeatureSpecs:
    def test_legacy_feature_count(self):
        assert len(legacy_hermes_features()) == 5

    def test_slp_has_leveling_feature(self):
        features = slp_features()
        assert len(features) == 6
        assert features[-1].name == "flp_prediction_plus_offset"

    def test_storage_bits(self):
        feature = leveling_feature()
        assert feature.storage_bits() == feature.table_entries * feature.weight_bits

    def test_leveling_feature_depends_on_flp_bit(self):
        feature = leveling_feature()
        positive = feature.extractor(make_context(flp=True))
        negative = feature.extractor(make_context(flp=False))
        assert positive != negative

    def test_table_entry_override(self):
        features = legacy_hermes_features(table_entries=256)
        assert all(spec.table_entries == 256 for spec in features)


class TestFeatureHistory:
    def test_first_access_true_for_unseen_page(self):
        history = FeatureHistory()
        assert history.is_first_access(0x5000)

    def test_first_access_false_after_observation(self):
        history = FeatureHistory()
        history.observe(0x400, 0x5000)
        assert not history.is_first_access(0x5010)

    def test_page_buffer_capacity_evicts_oldest(self):
        history = FeatureHistory(page_buffer_entries=2)
        history.observe(0x400, 0x1000)
        history.observe(0x400, 0x2000)
        history.observe(0x400, 0x3000)
        assert history.is_first_access(0x1000)
        assert not history.is_first_access(0x3000)

    def test_pc_history_is_bounded(self):
        history = FeatureHistory(pc_history_length=4)
        for pc in range(10):
            history.observe(pc, 0x1000)
        context = history.context(99, 0x1000)
        assert len(context.last_load_pcs) == 4
        assert context.last_load_pcs == (6, 7, 8, 9)

    def test_reset(self):
        history = FeatureHistory()
        history.observe(1, 0x1000)
        history.reset()
        assert history.is_first_access(0x1000)
        assert history.context(1, 0x1000).last_load_pcs == ()

    def test_pc_tuple_cached_between_observations(self):
        history = FeatureHistory()
        history.observe(1, 0x1000)
        history.observe(2, 0x2000)
        first = history.context(10, 0x3000).last_load_pcs
        second = history.context(11, 0x4000).last_load_pcs
        # No observe() in between: the tuple is reused, not rebuilt.
        assert first is second

    def test_pc_tuple_invalidated_on_observe(self):
        history = FeatureHistory()
        history.observe(1, 0x1000)
        before = history.context(10, 0x3000).last_load_pcs
        history.observe(2, 0x2000)
        after = history.context(10, 0x3000).last_load_pcs
        assert after == (1, 2)
        assert after != before

    def test_context_pcs_hash_matches_direct_hash(self):
        from repro.common.hashing import hash_combine

        history = FeatureHistory()
        for pc in (3, 5, 7, 11):
            history.observe(pc, 0x1000)
        context = history.context(99, 0x2000)
        assert context.last_pcs_hash == hash_combine(3, 5, 7, 11)

    def test_standalone_context_computes_hash_lazily(self):
        from repro.common.hashing import hash_combine

        context = FeatureContext(pc=1, address=2, first_access=False,
                                 last_load_pcs=(4, 5))
        assert context.last_pcs_hash == hash_combine(4, 5)
        assert FeatureContext(pc=1, address=2, first_access=False,
                              last_load_pcs=()).last_pcs_hash == 0


class ReferenceFeatureHistory:
    """The page buffer as an LRU OrderedDict and the PC history as a bounded
    deque, the oracle of the flat arrays.  Counts the pages it evicts."""

    def __init__(self, page_buffer_entries, pc_history_length) -> None:
        self.page_buffer_entries = page_buffer_entries
        self.pages: OrderedDict[int, None] = OrderedDict()
        self.pcs: deque[int] = deque(maxlen=pc_history_length)
        self.evictions = 0

    def context(self, address) -> tuple:
        return (address >> 12) not in self.pages, tuple(self.pcs)

    def observe(self, pc, address) -> None:
        page = address >> 12
        if page in self.pages:
            self.pages.move_to_end(page)
        else:
            self.pages[page] = None
            if len(self.pages) > self.page_buffer_entries:
                self.evictions += 1
                self.pages.popitem(last=False)
        self.pcs.append(pc)


def _lru_pages(history: FeatureHistory) -> list:
    """The page buffer's pages, least recently used first."""
    used = [slot for slot, page in enumerate(history._pages) if page != -1]
    assert used == list(range(len(used)))
    return [history._pages[slot] for slot in sorted(used, key=history._stamps.__getitem__)]


class TestFeatureHistoryOracle:
    """The flat page buffer and PC history against the container-based
    oracle: the same first-access bits, PC windows and hashes, and the same
    pages in LRU order, with the page buffer evicting."""

    @settings(max_examples=60, deadline=None)
    @given(
        page_buffer_entries=st.sampled_from([1, 2, 3, 8]),
        pc_history_length=st.integers(0, 5),
        accesses=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 12)),
                          max_size=200),
    )
    def test_matches_reference(self, page_buffer_entries, pc_history_length, accesses):
        from repro.common.hashing import hash_combine

        flat = FeatureHistory(page_buffer_entries, pc_history_length)
        reference = ReferenceFeatureHistory(page_buffer_entries, pc_history_length)
        # A final sweep of nine fresh pages always overflows the buffer.
        for pc, page in accesses + [(1, 20 + page) for page in range(9)]:
            address = (page << 12) | 0x40
            context = flat.context(pc, address)
            first, pcs = reference.context(address)
            assert (context.first_access, context.last_load_pcs) == (first, pcs)
            assert flat.is_first_access(address) == first
            assert context.last_pcs_hash == (hash_combine(*pcs) if pcs else 0)
            flat.observe(pc, address)
            reference.observe(pc, address)
        assert _lru_pages(flat) == list(reference.pages)
        assert flat._pcs[:flat._pc_count[0]].tolist() == list(reference.pcs)
        assert reference.evictions > 0


class TestHashedPerceptron:
    def test_initial_prediction_is_zero(self):
        perceptron = HashedPerceptron(legacy_hermes_features())
        confidence, indices = perceptron.predict(make_context())
        assert confidence == 0
        assert len(indices) == 5

    def test_positive_training_raises_confidence(self):
        perceptron = HashedPerceptron(legacy_hermes_features())
        context = make_context()
        confidence, indices = perceptron.predict(context)
        for _ in range(10):
            perceptron.train(indices, True, confidence)
        new_confidence, _ = perceptron.predict(context)
        assert new_confidence > 0

    def test_negative_training_lowers_confidence(self):
        perceptron = HashedPerceptron(legacy_hermes_features())
        context = make_context()
        confidence, indices = perceptron.predict(context)
        for _ in range(10):
            perceptron.train(indices, False, confidence)
        new_confidence, _ = perceptron.predict(context)
        assert new_confidence < 0

    def test_training_stops_when_confident_and_correct(self):
        perceptron = HashedPerceptron(legacy_hermes_features(), training_threshold=2)
        context = make_context()
        _, indices = perceptron.predict(context)
        perceptron.train(indices, True, 0)
        perceptron.train(indices, True, 100)  # confident and correct: no update
        assert perceptron.stats.weight_updates == 1

    def test_empty_feature_list_rejected(self):
        with pytest.raises(ValueError):
            HashedPerceptron([])

    def test_reset_zeroes_weights(self):
        perceptron = HashedPerceptron(legacy_hermes_features())
        context = make_context()
        confidence, indices = perceptron.predict(context)
        perceptron.train(indices, True, confidence)
        perceptron.reset()
        assert perceptron.predict(context)[0] == 0

    def test_storage_accounting(self):
        perceptron = HashedPerceptron(legacy_hermes_features())
        expected_bits = sum(spec.storage_bits() for spec in perceptron.features)
        assert perceptron.storage_bits() == expected_bits
        assert perceptron.storage_kib() == pytest.approx(expected_bits / 8 / 1024)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**20),  # pc
            st.integers(min_value=0, max_value=2**30),  # address
            st.booleans(),  # outcome
        ),
        min_size=1,
        max_size=150,
    )
)
def test_weights_never_exceed_5_bit_saturation(events):
    perceptron = HashedPerceptron(legacy_hermes_features(), training_threshold=1000)
    history = FeatureHistory()
    for pc, address, outcome in events:
        context = history.context(pc, address)
        confidence, indices = perceptron.predict(context)
        history.observe(pc, address)
        perceptron.train(indices, outcome, confidence)
    for feature_index, spec in enumerate(perceptron.features):
        for entry in range(spec.table_entries):
            weight = perceptron.weight(feature_index, entry)
            assert -16 <= weight <= 15


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**40), st.integers(min_value=0, max_value=2**40))
def test_prediction_confidence_bounded_by_feature_count(pc, address):
    perceptron = HashedPerceptron(slp_features())
    context = make_context(pc=pc, address=address)
    confidence, _ = perceptron.predict(context)
    assert -16 * 6 <= confidence <= 15 * 6
