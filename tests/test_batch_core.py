"""Batch core equivalence: the compiled fused loop vs. the scalar reference.

The batch core of :mod:`repro.sim.batch` is an optimization, not a model
change: for every supported component combination it must produce results
**bit-identical** to the record-at-a-time scalar path, and it must refuse,
naming the component, any combination it does not model (those run with
``sim_core="scalar"``).  These tests pin both properties across every
scheme, every L1D prefetcher, every trace
family (GAP generator, SPEC-like generator, imported ChampSim fixture),
multi-core mixes on both cores against the per-instruction interleave they
replaced, the kernel's page-fault allocation, and the plumbing that routes
``core="batch"`` through configs and the API facade without perturbing cache
keys.
"""

from __future__ import annotations

import dataclasses
import json
import re
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import (
    CacheConfig,
    CoreConfig,
    SystemConfig,
    cascade_lake_multi_core,
    cascade_lake_single_core,
    system_config_from_dict,
    system_config_to_dict,
)
from repro.common.hashing import jenkins32
from repro.common.types import MemLevel
from repro.experiments.common import quick_experiment_config
from repro.experiments.spec import registered_experiments
from repro.core.flp import FirstLevelPerceptron
from repro.core.slp import SecondLevelPerceptron
from repro.cpu.core import CoreRunner
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy, SharedMemory
from repro.memory.paging import PageTable
from repro.obs import sample as obs_sample
from repro.obs import tracer
from repro.predictors.features import FeatureHistory, legacy_hermes_features
from repro.predictors.perceptron import HashedPerceptron
from repro.prefetchers.berti import BertiPrefetcher
from repro.prefetchers.ipcp import IPCPPrefetcher
from repro.prefetchers.ppf import PerceptronPrefetchFilter
from repro.prefetchers.spp import SPPPrefetcher
from repro.sim import multi_core, native
from repro.sim.batch import batch_unsupported_reason, run_phase, use_kernel
from repro.sim.engine import build_workload_trace, single_core_point
from repro.sim.multi_core import build_mix_hierarchies, run_multicore_mix
from repro.sim.results import MultiCoreResult, check_invariants
from repro.sim.scenarios import SCHEMES, build_hierarchy, build_scenario
from repro.sim.single_core import run_single_core
from repro.traces.ingest import read_champsim_trace
from repro.traces.trace import KIND_LOAD, KIND_NON_MEM, Trace, trace_lists
from repro.workloads.gap import gap_trace
from repro.workloads.spec_like import spec_like_trace
from test_cache import STATE_ARRAYS, check_flat_layout

FIXTURES = Path(__file__).parent / "fixtures"
CHAMPSIM_FIXTURE = FIXTURES / "champsim_small.trace"

L1D_PREFETCHERS = ("ipcp", "berti", "none")

ACCESSES = 1_500


def _system(core: str) -> SystemConfig:
    return dataclasses.replace(cascade_lake_single_core(), sim_core=core)


def _run_pair(trace, scheme: str, l1d_prefetcher: str = "ipcp"):
    """Scalar and batch results, each checked for conservation."""
    scenario = build_scenario(scheme, l1d_prefetcher=l1d_prefetcher)
    results = []
    for core in ("scalar", "batch"):
        hierarchy = build_hierarchy(scenario, config=_system(core))
        result = run_single_core(
            trace, scenario, config=_system(core), hierarchy=hierarchy
        )
        assert check_invariants(result, [hierarchy]) == [], core
        results.append(result)
    return results


def _assert_identical(scalar, batch) -> None:
    assert dataclasses.asdict(batch) == dataclasses.asdict(scalar)


def _tiny_caches(system: SystemConfig) -> SystemConfig:
    """Every level shrunk to a few sets x 2 ways: nearly every fill evicts."""
    return dataclasses.replace(
        system,
        l1d=CacheConfig("L1D", 2 * 2 * 64, 2, 4, 10),
        l2c=CacheConfig("L2C", 4 * 2 * 64, 2, 10, 16),
        llc=CacheConfig("LLC", 16 * 2 * 64, 2, 36, 64),
    )


def _assert_eviction_bound(cache: Cache) -> None:
    """Most of ``cache``'s measured-phase fills displaced a resident block."""
    stats = cache.stats
    assert stats.evictions * 2 > stats.demand_fills + stats.prefetch_fills > 0


def _caches(hierarchy: MemoryHierarchy) -> tuple:
    return hierarchy.l1d, hierarchy.l2c, hierarchy.llc


def _lru_state(hierarchy: MemoryHierarchy) -> list:
    """Every state array of each cache, the clock included: the fused loop
    must leave them exactly as the scalar path does."""
    return [
        {name: getattr(cache, name).tolist() for name in STATE_ARRAYS}
        for cache in _caches(hierarchy)
    ]


#: The flat state arrays of each kind of component, which the kernel uses in
#: place.
IPCP_STATE = (
    "_ip_buf", "_cplx_buf", "_regions.pages", "_regions.inserted",
    "_region_touched", "_region_offset", "_region_direction",
)
BERTI_STATE = (
    "_pages", "_totals", "_history", "_history_lengths", "_delta_counts",
    "_delta_order", "_delta_lengths", "_confirmed_deltas",
    "_confirmed_coverage", "_confirmed_lengths",
)
SPP_STATE = (
    "_signatures.pages", "_signatures.inserted", "_signature_packed",
    "_pattern_counts", "_pattern_deltas", "_pattern_lengths",
    "_pattern_totals", "_pattern_best_delta", "_pattern_best_count",
)
HISTORY_STATE = ("_pages", "_stamps", "_clock", "_pcs", "_pc_count")


def _arrays(component, names) -> dict:
    return {name: attrgetter(name)(component).tolist() for name in names}


def _component_state(hierarchy: MemoryHierarchy) -> dict:
    """Every prefetcher's, filter's and feature history's full state after a
    run, and the page table's.

    Each state array is listed element by element, free slots and entries
    past a row's length included; dicts are listed item by item, so their
    insertion order counts.
    """
    state = {}
    prefetcher = hierarchy.l1d_prefetcher
    if isinstance(prefetcher, IPCPPrefetcher):
        state["ipcp"] = (
            _arrays(prefetcher, IPCP_STATE), list(prefetcher.class_counts.items()),
        )
    elif isinstance(prefetcher, BertiPrefetcher):
        state["berti"] = _arrays(prefetcher, BERTI_STATE)
    spp = hierarchy.l2_prefetcher
    if spp is not None:
        state["spp"] = (_arrays(spp, SPP_STATE), spp.lookahead_prefetches)
    ppf = hierarchy.l2_prefetch_filter
    if ppf is not None:
        state["ppf"] = (
            ppf._weights.tolist(), ppf.consultations, ppf.accepted, ppf.rejected,
        )
    slp = hierarchy.l1d_prefetch_filter
    if slp is not None:
        state["slp"] = (
            slp.perceptron._weights.tolist(),
            slp.perceptron.stats.as_dict(),
            _arrays(slp.history, HISTORY_STATE),
            slp.consultations,
            slp.issued,
            slp.discarded,
        )
    perceptron = getattr(hierarchy.offchip_predictor, "perceptron", None)
    if perceptron is not None:
        state["offchip"] = (
            perceptron._weights.tolist(), perceptron.stats.as_dict(),
            _arrays(hierarchy.offchip_predictor.history, HISTORY_STATE),
        )
    state["page_table"] = _page_table_state(hierarchy.page_table)
    return state


def _page_table_state(table: PageTable) -> tuple:
    return (
        list(table._mapping.items()),
        sorted(table._allocated_frames),
        table.page_faults,
    )


def _sample_every(monkeypatch, interval: int) -> list:
    """Sample every measured phase just after each ``interval``-th
    load/store, with no telemetry sink: a sampled phase runs in chunks of
    ``interval`` loads/stores, each ended by a hook call.  Returns the list
    the samples go to; a sample is the core that ran, the core id, the
    hook's arguments and the hierarchy's counters at that point."""
    samples = []

    def hook(trace_name, scenario, core, hierarchy, core_id=0, **context):
        def emit(accesses, instructions, cycles):
            samples.append((
                core, core_id, accesses, instructions, cycles,
                hierarchy.stats.as_dict(),
            ))
        return emit

    monkeypatch.setattr(obs_sample, "sample_interval", lambda: interval)
    monkeypatch.setattr(obs_sample, "hook", hook)
    return samples


def _core_samples(samples: list, core: str) -> list:
    """The samples of the runs on ``core``, without the core's name."""
    return [sample[1:] for sample in samples if sample[0] == core]


def _state_pair(trace, make_hierarchy, sample_interval=None, monkeypatch=None):
    """Scalar and batch runs on fresh hierarchies from ``make_hierarchy``:
    their results, then their hierarchy and component states, then their
    samples when sampling every ``sample_interval`` loads/stores."""
    samples = _sample_every(monkeypatch, sample_interval) if sample_interval else []
    runs = []
    for core in ("scalar", "batch"):
        hierarchy = make_hierarchy()
        result = run_single_core(
            trace, build_scenario("baseline"), config=_system(core),
            hierarchy=hierarchy,
        )
        runs.append((
            result,
            hierarchy.stats.as_dict(),
            _component_state(hierarchy),
            _core_samples(samples, core),
        ))
    return runs


@pytest.fixture(scope="module")
def gap_bfs_trace():
    return gap_trace("bfs", graph="urand", scale="medium",
                     max_memory_accesses=ACCESSES)


@pytest.fixture(scope="module")
def spec_mcf_trace():
    return spec_like_trace("mcf_like", num_memory_accesses=ACCESSES)


class TestSchemePrefetcherEquivalence:
    """Every scheme x every L1D prefetcher: batch == scalar, bit for bit."""

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("l1d_prefetcher", L1D_PREFETCHERS)
    def test_bit_identical(self, gap_bfs_trace, scheme, l1d_prefetcher):
        scalar, batch = _run_pair(gap_bfs_trace, scheme, l1d_prefetcher)
        _assert_identical(scalar, batch)

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("l1d_prefetcher", ("ipcp", "berti"))
    def test_component_state_identical(self, gap_bfs_trace, scheme, l1d_prefetcher):
        """Each prefetcher's and filter's full post-run state matches too,
        dict insertion order included."""
        scenario = build_scenario(scheme, l1d_prefetcher=l1d_prefetcher)
        scalar, batch = _state_pair(
            gap_bfs_trace, lambda: build_hierarchy(scenario)
        )
        assert batch == scalar


def _tlp_hierarchy(
    prefetcher, use_leveling_feature=True, **shared_options
) -> MemoryHierarchy:
    """TLP over ``prefetcher``; ``shared_options`` go to both FLP and SLP."""
    flp = FirstLevelPerceptron(**shared_options)
    slp = SecondLevelPerceptron(
        use_leveling_feature=use_leveling_feature, **shared_options
    )
    return MemoryHierarchy(
        cascade_lake_single_core(), l1d_prefetcher=prefetcher,
        l2_prefetcher=SPPPrefetcher(), l1d_prefetch_filter=slp,
        offchip_predictor=flp,
    )


SMALL_PAGE_BUFFER = 8

#: Hierarchies whose every component the compiled kernel runs itself.
STATE_CASES = {
    "tlp-ipcp": lambda: _tlp_hierarchy(IPCPPrefetcher()),
    "tlp-berti": lambda: _tlp_hierarchy(BertiPrefetcher()),
    "aggressive-spp-ppf": lambda: MemoryHierarchy(
        cascade_lake_single_core(), l1d_prefetcher=IPCPPrefetcher(),
        l2_prefetcher=SPPPrefetcher(aggressive=True),
        l2_prefetch_filter=PerceptronPrefetchFilter(),
    ),
    "fig17-table-entries": lambda: _tlp_hierarchy(
        IPCPPrefetcher(ip_table_entries=4096, cplx_table_entries=16384),
        table_entries=2048,
    ),
    "no-leveling": lambda: _tlp_hierarchy(
        BertiPrefetcher(), use_leveling_feature=False
    ),
    # Fewer page-buffer entries than either trace touches pages: the FLP and
    # SLP page buffers evict.
    "small-page-buffer": lambda: _tlp_hierarchy(
        IPCPPrefetcher(), page_buffer_entries=SMALL_PAGE_BUFFER
    ),
    # The kernel hashes as many PCs as SLP's history holds.
    "slp-pc-history-3": lambda: _short_pc_history(_tlp_hierarchy(BertiPrefetcher())),
}


def _short_pc_history(hierarchy: MemoryHierarchy) -> MemoryHierarchy:
    hierarchy.l1d_prefetch_filter.history = FeatureHistory(pc_history_length=3)
    return hierarchy


def _strided_trace(records: int = 3_000, seed: int = 3) -> Trace:
    """Six load streams walking pages in small strides, with jumps.

    Regular in-page strides give Berti deltas of equal coverage (ties its
    stable sort must keep in order), fire every IPCP class and drive SPP's
    pattern counters through their halving step.
    """
    rng = np.random.default_rng(seed)
    positions = [0] * 6
    pcs, vaddrs = [], []
    for _ in range(records):
        k = int(rng.integers(0, 6))
        positions[k] += 1 + k % 3 if rng.random() < 0.9 else 7
        pcs.append(0x401000 + 16 * k)
        vaddrs.append(((k + 1) << 24) + 64 * positions[k] + 8 * int(rng.integers(0, 8)))
    kinds = np.full(records, KIND_LOAD, dtype=np.uint8)
    kinds[::5] = KIND_NON_MEM
    return Trace.from_columns("strided", np.array(pcs), np.array(vaddrs), kinds)


class TestComponentState:
    """The kernel leaves every flat state array of the prefetchers, filters
    and feature histories exactly as the scalar reference does, and samples
    the same counters on the way."""

    @pytest.mark.parametrize("case", sorted(STATE_CASES))
    @pytest.mark.parametrize("sample_interval", (7, 8192))
    @pytest.mark.parametrize("trace_name", ("spec", "strided"))
    def test_state_after_run(
        self, spec_mcf_trace, case, sample_interval, trace_name, monkeypatch
    ):
        trace = spec_mcf_trace if trace_name == "spec" else _strided_trace()
        assert batch_unsupported_reason(STATE_CASES[case]()) is None
        scalar, batch = _state_pair(trace, STATE_CASES[case], sample_interval, monkeypatch)
        assert scalar[3]  # at least the closing sample
        assert batch == scalar

    @pytest.mark.parametrize("trace_name", ("spec", "strided"))
    def test_small_page_buffer_evicts(self, spec_mcf_trace, trace_name):
        """The ``small-page-buffer`` case really drives the FLP page buffer
        past its capacity."""
        trace = spec_mcf_trace if trace_name == "spec" else _strided_trace()
        _, vaddrs, kinds = trace.columns()
        pages = np.unique(vaddrs[kinds != KIND_NON_MEM] >> 12)
        assert len(pages) > 4 * SMALL_PAGE_BUFFER

    @pytest.mark.parametrize("case", sorted(STATE_CASES))
    def test_batch_warmup_then_scalar_measured(self, spec_mcf_trace, case):
        """A batch warm-up followed by a scalar measured phase on the same
        hierarchy equals scalar-then-scalar.  The first records run scalar,
        so a Python memo over the shared state would exist before the kernel
        changes that state under it, and would show up here as stale."""
        cuts = (len(spec_mcf_trace) // 10, len(spec_mcf_trace) // 2)
        phases = (
            spec_mcf_trace[:cuts[0]], spec_mcf_trace[cuts[0]:cuts[1]],
            spec_mcf_trace[cuts[1]:],
        )
        core = _system("scalar").core
        runs = []
        for warmup_core in ("batch", "scalar"):
            hierarchy = STATE_CASES[case]()
            CoreRunner(core, hierarchy.demand_access).run_trace(phases[0])
            runner = CoreRunner(core, hierarchy.demand_access)
            if warmup_core == "batch":
                run_phase(runner, phases[1], hierarchy, True)
            else:
                runner.run_trace(phases[1])
            hierarchy.reset_stats(include_shared=True)
            runner = CoreRunner(core, hierarchy.demand_access)
            runner.run_trace(phases[2])
            runs.append((
                dataclasses.asdict(runner.finish()),
                hierarchy.stats.as_dict(),
                _component_state(hierarchy),
            ))
        assert runs[0] == runs[1]

    @settings(max_examples=25, deadline=None)
    @given(
        l1d=st.sampled_from(("ipcp", "berti")),
        l1d_entries=st.integers(1, 64),
        region_entries=st.integers(1, 8),
        signature_entries=st.integers(1, 16),
        pattern_entries=st.integers(1, 64),
        aggressive=st.booleans(),
        ppf_entries=st.one_of(st.none(), st.integers(1, 64)),
        slp_entries=st.one_of(st.none(), st.integers(1, 64)),
        page_buffer_entries=st.integers(1, 16),
        seed=st.integers(0, 1_000),
    )
    def test_random_table_shapes(
        self, l1d, l1d_entries, region_entries, signature_entries,
        pattern_entries, aggressive, ppf_entries, slp_entries,
        page_buffer_entries, seed,
    ):
        trace = spec_like_trace("mcf_like", num_memory_accesses=400, seed=seed)

        def hierarchy():
            if l1d == "ipcp":
                prefetcher = IPCPPrefetcher(
                    ip_table_entries=l1d_entries,
                    cplx_table_entries=2 * l1d_entries,
                    region_entries=region_entries,
                )
            else:
                prefetcher = BertiPrefetcher(table_entries=l1d_entries)
            return MemoryHierarchy(
                cascade_lake_single_core(),
                l1d_prefetcher=prefetcher,
                l2_prefetcher=SPPPrefetcher(
                    signature_table_entries=signature_entries,
                    pattern_table_entries=pattern_entries,
                    aggressive=aggressive,
                ),
                l1d_prefetch_filter=SecondLevelPerceptron(
                    table_entries=slp_entries,
                    page_buffer_entries=page_buffer_entries,
                ),
                l2_prefetch_filter=(
                    None if ppf_entries is None
                    else PerceptronPrefetchFilter(table_entries=ppf_entries)
                ),
                offchip_predictor=FirstLevelPerceptron(
                    page_buffer_entries=page_buffer_entries
                ),
            )

        assert batch_unsupported_reason(hierarchy()) is None
        scalar, batch = _state_pair(trace, hierarchy)
        assert batch == scalar

    @settings(max_examples=25, deadline=None)
    @given(
        scheme=st.sampled_from(("baseline", "tlp", "ppf")),
        l1d=st.sampled_from(("ipcp", "berti")),
        sets=st.tuples(*[st.integers(1, 48)] * 3),
        ways=st.tuples(*[st.integers(1, 16)] * 3),
        rob_size=st.integers(1, 300),
        seed=st.integers(0, 1_000),
    )
    def test_random_cache_geometries(self, scheme, l1d, sets, ways, rob_size, seed):
        """Set counts that are not powers of two take the kernel's dividing
        index path, powers of two its mask; either way every result, stat
        and state array (the caches' included) matches the scalar run."""
        trace = spec_like_trace("mcf_like", num_memory_accesses=400, seed=seed)
        system = dataclasses.replace(
            cascade_lake_single_core(),
            core=CoreConfig(rob_size=rob_size),
            l1d=CacheConfig("L1D", sets[0] * ways[0] * 64, ways[0], 4, 10),
            l2c=CacheConfig("L2C", sets[1] * ways[1] * 64, ways[1], 10, 16),
            llc=CacheConfig("LLC", sets[2] * ways[2] * 64, ways[2], 36, 64),
        )
        scenario = build_scenario(scheme, l1d_prefetcher=l1d)
        runs = []
        for core in ("scalar", "batch"):
            config = dataclasses.replace(system, sim_core=core)
            hierarchy = build_hierarchy(scenario, config=config)
            result = run_single_core(trace, scenario, config=config, hierarchy=hierarchy)
            assert check_invariants(result, [hierarchy]) == [], core
            runs.append((
                dataclasses.asdict(result),
                hierarchy.stats.as_dict(),
                _lru_state(hierarchy),
                _component_state(hierarchy),
            ))
        assert runs[1] == runs[0]


class _SubclassedFLP(FirstLevelPerceptron):
    """A predictor subclass: the kernel must not assume its behaviour."""


class _SubclassedSLP(SecondLevelPerceptron):
    """A filter subclass: the kernel must not assume its behaviour."""


class _SubclassedSPP(SPPPrefetcher):
    """A prefetcher subclass: the kernel must not assume its behaviour."""


class _SubclassedIPCP(IPCPPrefetcher):
    """An L1D prefetcher subclass: the kernel must not assume its behaviour."""


#: The hint every batch-core rejection ends with.
SCALAR_HINT = 'the batch core does not model it; pass core="scalar"'

#: Prefetch-path components the kernel does not model, with the reason
#: each one names.
UNMODELLED = {
    "slp-subclass": (
        lambda: dict(l1d_prefetch_filter=_SubclassedSLP()),
        "unmodelled L1D prefetch filter _SubclassedSLP",
    ),
    "spp-subclass": (
        lambda: dict(l2_prefetcher=_SubclassedSPP()),
        "unmodelled L2 prefetcher _SubclassedSPP",
    ),
}


class TestUnmodelledComponents:
    @pytest.mark.parametrize("case", sorted(UNMODELLED))
    def test_object_path_matches_scalar(self, spec_mcf_trace, case):
        """An unmodelled filter or prefetcher raises on the batch core, the
        reason naming the component.  On the scalar reference it runs on
        its own Python objects, and a subclass that changes nothing leaves
        the state the stock component leaves."""
        parts_for, expected_reason = UNMODELLED[case]

        def hierarchy(unmodelled=True):
            parts = dict(
                l1d_prefetcher=IPCPPrefetcher(), l2_prefetcher=SPPPrefetcher(),
                l1d_prefetch_filter=SecondLevelPerceptron(),
                offchip_predictor=FirstLevelPerceptron(),
            )
            if unmodelled:
                parts.update(parts_for())
            return MemoryHierarchy(cascade_lake_single_core(), **parts)

        assert batch_unsupported_reason(hierarchy()) == expected_reason
        with pytest.raises(ValueError) as error:
            run_single_core(spec_mcf_trace, build_scenario("baseline"),
                            config=_system("batch"), hierarchy=hierarchy())
        assert str(error.value).startswith(f"{expected_reason}: {SCALAR_HINT}")
        states = []
        for unmodelled in (True, False):
            scalar_hierarchy = hierarchy(unmodelled)
            result = run_single_core(
                spec_mcf_trace, build_scenario("baseline"),
                config=_system("scalar"), hierarchy=scalar_hierarchy,
            )
            assert check_invariants(result, [scalar_hierarchy]) == []
            states.append((dataclasses.asdict(result), _component_state(scalar_hierarchy)))
        assert states[0] == states[1]


class TestTraceFamilyEquivalence:
    """Batch == scalar on every trace family the repo can produce."""

    @pytest.mark.parametrize("scheme", ("baseline", "hermes", "tlp"))
    def test_spec_like_generator(self, spec_mcf_trace, scheme):
        scalar, batch = _run_pair(spec_mcf_trace, scheme)
        _assert_identical(scalar, batch)

    def test_gap_generator_all_kernels_tlp(self):
        for kernel in ("bfs", "pr", "sssp"):
            trace = gap_trace(kernel, graph="kron", scale="medium",
                              max_memory_accesses=1_000)
            scalar, batch = _run_pair(trace, "tlp")
            _assert_identical(scalar, batch)

    def test_champsim_fixture(self):
        trace = read_champsim_trace(CHAMPSIM_FIXTURE, name="fixture")
        scalar, batch = _run_pair(trace, "tlp")
        _assert_identical(scalar, batch)

    @pytest.mark.parametrize(
        "scheme,l1d_prefetcher",
        (("tlp", "berti"), ("ppf", "ipcp"), ("ppf", "berti")),
    )
    def test_champsim_fixture_batch_kernels(self, scheme, l1d_prefetcher):
        """The imported-trace path through every newly fused kernel:

        Berti's batch delta kernel and the aggressive-SPP + PPF L2 path
        (the ``tlp``/IPCP combination is pinned by ``test_champsim_fixture``).
        """
        trace = read_champsim_trace(CHAMPSIM_FIXTURE, name="fixture")
        scalar, batch = _run_pair(trace, scheme, l1d_prefetcher)
        _assert_identical(scalar, batch)

    def test_tiny_chunks_hit_every_boundary(self, spec_mcf_trace, monkeypatch):
        """Sampling every 7 loads/stores ends a 7-access chunk of the measured
        phase with a hook call: the kernel calls it after exactly the
        accesses the scalar path cuts after, and it changes nothing."""
        scenario = build_scenario("tlp")
        scalar_hierarchy = build_hierarchy(scenario, config=_system("scalar"))
        scalar = run_single_core(spec_mcf_trace, scenario, config=_system("scalar"),
                                 hierarchy=scalar_hierarchy)
        samples = _sample_every(monkeypatch, 7)
        batch_hierarchy = build_hierarchy(scenario, config=_system("batch"))
        batch = run_single_core(spec_mcf_trace, scenario, config=_system("batch"),
                                hierarchy=batch_hierarchy)
        accesses = [sample[2] for sample in samples]
        measured = batch_hierarchy.stats.demand_loads + batch_hierarchy.stats.demand_stores
        # Every 7th access, then the closing sample.
        assert accesses == [*range(7, measured + 1, 7), measured]
        assert batch.instructions > 0
        assert batch_hierarchy.stats.demand_loads == (
            scalar_hierarchy.stats.demand_loads
        )
        assert batch_hierarchy.dram.stats.total_transactions == (
            scalar_hierarchy.dram.stats.total_transactions
        )
        _assert_identical(scalar, batch)


class TestChunkBoundarySweep:
    """Sampling cuts the measured phase into chunks of N loads/stores, each
    ended by a sample-hook call; the chunk size must never change results,
    and both cores must sample the same counters at every boundary.

    Sweeps chunk sizes from the degenerate 1-access chunk (a hook call after
    every access) through primes that misalign with internal windows up to
    one chunk covering the whole trace, against the same unsampled scalar
    reference.  Runs under ``ppf`` so the boundary also cuts through the
    fused SPP lookahead + PPF filter state.
    """

    @pytest.fixture(scope="class")
    def scalar_reference(self):
        trace = spec_like_trace("mcf_like", num_memory_accesses=600)
        scenario = build_scenario("ppf", l1d_prefetcher="ipcp")
        system = _system("scalar")
        hierarchy = build_hierarchy(scenario, config=system)
        result = run_single_core(trace, scenario, config=system,
                                 hierarchy=hierarchy)
        return trace, scenario, result, hierarchy

    @pytest.mark.parametrize("sample_interval", (1, 7, 61, 600, 10_000))
    def test_chunk_size_invariance(self, scalar_reference, sample_interval, monkeypatch):
        trace, scenario, scalar, scalar_hierarchy = scalar_reference
        samples = _sample_every(monkeypatch, sample_interval)
        for core in ("scalar", "batch"):
            hierarchy = build_hierarchy(scenario, config=_system(core))
            result = run_single_core(trace, scenario, config=_system(core),
                                     hierarchy=hierarchy)
            assert hierarchy.stats.as_dict() == scalar_hierarchy.stats.as_dict()
            assert hierarchy.dram.stats.as_dict() == (
                scalar_hierarchy.dram.stats.as_dict()
            )
            _assert_identical(scalar, result)
        measured = scalar_hierarchy.stats.demand_loads + scalar_hierarchy.stats.demand_stores
        assert len(_core_samples(samples, "batch")) == measured // sample_interval + 1
        assert _core_samples(samples, "batch") == _core_samples(samples, "scalar")


class TestTableCollisionStress:
    """Tiny predictor tables force index collisions on every structure.

    With 4-entry SPP signature tables, 8-entry pattern tables and a
    16-entry PPF weight table, distinct streams constantly alias into the
    same entries; the fused kernels must replay exactly the same collision
    and saturation behaviour as the object reference.
    """

    def _hierarchy(self):
        return MemoryHierarchy(
            cascade_lake_single_core(),
            l1d_prefetcher=IPCPPrefetcher(ip_table_entries=8,
                                          cplx_table_entries=16,
                                          region_entries=4),
            l2_prefetcher=SPPPrefetcher(signature_table_entries=4,
                                        pattern_table_entries=8,
                                        aggressive=True),
            l2_prefetch_filter=PerceptronPrefetchFilter(table_entries=16),
        )

    def test_collisions_bit_identical(self, spec_mcf_trace):
        scenario = build_scenario("ppf", l1d_prefetcher="ipcp")
        results = {}
        for core in ("scalar", "batch"):
            hierarchy = self._hierarchy()
            assert batch_unsupported_reason(hierarchy) is None
            results[core] = run_single_core(
                spec_mcf_trace, scenario, config=_system(core),
                hierarchy=hierarchy,
            )
        _assert_identical(results["scalar"], results["batch"])


class TestEvictionStress:
    """Tiny two-way caches force the flat victim scan on almost every fill."""

    def test_single_core_tlp(self, gap_bfs_trace):
        scenario = build_scenario("tlp")
        results, states = {}, {}
        for core in ("scalar", "batch"):
            system = _tiny_caches(_system(core))
            hierarchy = build_hierarchy(scenario, config=system)
            results[core] = run_single_core(
                gap_bfs_trace, scenario, config=system, hierarchy=hierarchy
            )
            for cache in _caches(hierarchy):
                _assert_eviction_bound(cache)
                check_flat_layout(cache)
            states[core] = _lru_state(hierarchy), [
                cache.stats.as_dict() for cache in _caches(hierarchy)
            ]
        _assert_identical(results["scalar"], results["batch"])
        assert states["batch"] == states["scalar"]

    @pytest.mark.parametrize("scheme,l1d_prefetcher", (
        ("tlp", "ipcp"), ("ppf", "ipcp"), ("tlp", "berti"), ("baseline", "berti"),
    ))
    def test_l1d_prefetch_accounting(self, gap_bfs_trace, scheme, l1d_prefetcher):
        """The inlined L1D eviction listener and prefetch finalization count
        exactly what the hierarchy's Python methods count."""
        scenario = build_scenario(scheme, l1d_prefetcher=l1d_prefetcher)
        scalar, batch = _state_pair(
            gap_bfs_trace,
            lambda: build_hierarchy(scenario, config=_tiny_caches(_system("scalar"))),
        )
        stats = scalar[1]
        assert stats["useful_l1d_prefetches"] > 0
        assert stats["useless_l1d_prefetches"] > 0
        for field in (
            "useful_l1d_prefetches", "useless_l1d_prefetches",
            "accurate_prefetch_source", "inaccurate_prefetch_source",
            "offchip_prediction_location",
        ):
            assert batch[1][field] == stats[field], field
        assert batch == scalar


def _paged_hierarchy(memory_frames=None) -> MemoryHierarchy:
    """A TLP/IPCP hierarchy, with ``memory_frames`` physical frames when
    given."""
    hierarchy = build_hierarchy(build_scenario("tlp"))
    if memory_frames is not None:
        hierarchy.page_table = PageTable(memory_frames=memory_frames)
    return hierarchy


class TestPaging:
    """The kernel allocates page frames in C exactly as
    ``PageTable._allocate_frame`` does, and never calls it."""

    def _pages_touched(self, trace) -> int:
        hierarchy = _paged_hierarchy()
        run_single_core(trace, build_scenario("tlp"), config=_system("scalar"),
                        hierarchy=hierarchy)
        return hierarchy.page_table.mapped_pages()

    def test_exhausted_memory_raises_alike(self, spec_mcf_trace):
        frames = self._pages_touched(spec_mcf_trace) - 1
        tables = []
        for core in ("scalar", "batch"):
            hierarchy = _paged_hierarchy(frames)
            with pytest.raises(RuntimeError, match="^physical memory exhausted$"):
                run_single_core(spec_mcf_trace, build_scenario("tlp"),
                                config=_system(core), hierarchy=hierarchy)
            tables.append(_page_table_state(hierarchy.page_table))
        assert tables[1] == tables[0]

    def test_probe_wraps_alike(self, spec_mcf_trace):
        # Exactly as many frames as pages: the last allocations probe past
        # frame ``frames - 1`` and wrap around to frame 0.
        frames = self._pages_touched(spec_mcf_trace)
        scalar, batch = _state_pair(spec_mcf_trace, lambda: _paged_hierarchy(frames))
        assert batch == scalar
        mapping, allocated, faults = batch[2]["page_table"]
        assert allocated == list(range(frames)) and faults == frames
        assert any(jenkins32(vpage << 4) % frames > frame for vpage, frame in mapping)

    def test_kernel_never_calls_allocate_frame(self, spec_mcf_trace, monkeypatch):
        scenario = build_scenario("tlp", l1d_prefetcher="ipcp")
        reference = run_single_core(spec_mcf_trace, scenario, config=_system("batch"))

        def refuse(self, vpage):
            raise AssertionError("the kernel called PageTable._allocate_frame")

        monkeypatch.setattr(PageTable, "_allocate_frame", refuse)
        hierarchy = build_hierarchy(scenario)
        assert batch_unsupported_reason(hierarchy) is None
        patched = run_single_core(spec_mcf_trace, scenario, config=_system("batch"),
                                  hierarchy=hierarchy)
        _assert_identical(reference, patched)
        assert hierarchy.page_table.page_faults > 0


class _InstrumentedHierarchy(MemoryHierarchy):
    """A hierarchy subclass: the kernel must not assume its behaviour."""


class _InstrumentedCache(Cache):
    """A cache subclass: the kernel must not assume its behaviour."""


class _InstrumentedHistory(FeatureHistory):
    """A feature history subclass: the kernel must not assume its behaviour."""


def _cache_subclass() -> MemoryHierarchy:
    hierarchy = build_hierarchy(build_scenario("tlp"))
    hierarchy.shared.llc = _InstrumentedCache(hierarchy.llc.config)
    return hierarchy


def _history_subclass() -> MemoryHierarchy:
    hierarchy = build_hierarchy(build_scenario("tlp"))
    hierarchy.offchip_predictor.history = _InstrumentedHistory()
    return hierarchy


def _four_features() -> MemoryHierarchy:
    hierarchy = build_hierarchy(build_scenario("tlp"))
    hierarchy.offchip_predictor.perceptron = HashedPerceptron(
        legacy_hermes_features()[:4]
    )
    return hierarchy


#: Single-core hierarchies the kernel does not model, one per kind of
#: component, with the reason each one names.
UNMODELLED_HIERARCHIES = {
    "hierarchy-subclass": (
        lambda: _InstrumentedHierarchy(cascade_lake_single_core()),
        "hierarchy subclass _InstrumentedHierarchy",
    ),
    "cache-subclass": (
        _cache_subclass, "LLC: unmodelled cache shape (_InstrumentedCache)",
    ),
    "predictor-subclass": (
        lambda: MemoryHierarchy(
            cascade_lake_single_core(), offchip_predictor=_SubclassedFLP()
        ),
        "unmodelled off-chip predictor _SubclassedFLP",
    ),
    "feature-history-subclass": (
        _history_subclass,
        "off-chip predictor FirstLevelPerceptron: feature history subclass"
        " _InstrumentedHistory",
    ),
    "feature-set": (
        _four_features,
        "off-chip predictor FirstLevelPerceptron: non-standard feature set",
    ),
    "l1d-prefetcher-subclass": (
        lambda: MemoryHierarchy(
            cascade_lake_single_core(), l1d_prefetcher=_SubclassedIPCP()
        ),
        "unmodelled L1D prefetcher _SubclassedIPCP",
    ),
}


class TestFallbacks:
    def test_supported_schemes(self):
        for scheme in ("baseline", "hermes", "tlp", "flp", "ppf"):
            hierarchy = build_hierarchy(build_scenario(scheme))
            assert batch_unsupported_reason(hierarchy) is None, scheme

    def test_predictor_subclass_falls_back(self):
        hierarchy = MemoryHierarchy(
            cascade_lake_single_core(), offchip_predictor=_SubclassedFLP()
        )
        assert batch_unsupported_reason(hierarchy) is not None

    def test_feature_history_subclass_falls_back(self):
        class InstrumentedHistory(FeatureHistory):
            pass

        hierarchy = build_hierarchy(build_scenario("tlp"))
        hierarchy.offchip_predictor.history = InstrumentedHistory()
        assert batch_unsupported_reason(hierarchy) == (
            "off-chip predictor FirstLevelPerceptron: feature history subclass"
            " InstrumentedHistory"
        )

    def test_hierarchy_subclass_falls_back(self):
        class InstrumentedHierarchy(MemoryHierarchy):
            pass

        hierarchy = InstrumentedHierarchy(cascade_lake_single_core())
        assert batch_unsupported_reason(hierarchy) is not None

    def test_fallback_reason_names_component(self):
        for scheme in ("baseline", "hermes", "tlp", "ppf"):
            hierarchy = build_hierarchy(build_scenario(scheme))
            assert batch_unsupported_reason(hierarchy) is None, scheme

        reason = batch_unsupported_reason(MemoryHierarchy(
            cascade_lake_single_core(), offchip_predictor=_SubclassedFLP()
        ))
        assert reason == "unmodelled off-chip predictor _SubclassedFLP"

        reason = batch_unsupported_reason(MemoryHierarchy(
            cascade_lake_single_core(), l1d_prefetcher=_SubclassedIPCP()
        ))
        assert reason == "unmodelled L1D prefetcher _SubclassedIPCP"

        class InstrumentedHierarchy(MemoryHierarchy):
            pass

        reason = batch_unsupported_reason(
            InstrumentedHierarchy(cascade_lake_single_core())
        )
        assert reason == "hierarchy subclass InstrumentedHierarchy"

    def test_fallback_reason_names_cache_subclass(self):
        class InstrumentedCache(Cache):
            pass

        hierarchy = build_hierarchy(build_scenario("tlp"))
        hierarchy.shared.llc = InstrumentedCache(hierarchy.llc.config)
        reason = batch_unsupported_reason(hierarchy)
        assert reason == "LLC: unmodelled cache shape (InstrumentedCache)"

    def test_fallback_emits_obs_event_and_warns_once(
        self, tmp_path, spec_mcf_trace, caplog, monkeypatch
    ):
        """The one fallback left, a missing kernel, is never silent: each
        run emits one ``sim.batch.fallback`` obs event naming it, and a
        warning is logged once per reason per process."""
        monkeypatch.setattr(
            native, "unavailable_reason", lambda: "no C compiler (test)"
        )
        tracer.configure(tmp_path, proc="t-fallback")
        try:
            with caplog.at_level("WARNING", logger="repro.sim.batch"):
                for _ in range(2):
                    run_single_core(
                        spec_mcf_trace, build_scenario("tlp"),
                        config=_system("batch"),
                    )
            tracer.shutdown()
        finally:
            tracer.disable()
        events = [
            record for record in tracer.load_run(tmp_path)
            if record.get("name") == "sim.batch.fallback"
        ]
        assert [event["attrs"]["reason"] for event in events] == [
            "native kernel unavailable: no C compiler (test)"
        ] * 2
        warning_lines = [
            message for message in caplog.messages
            if "fell back to the scalar reference path" in message
        ]
        assert len(warning_lines) == 1

    @pytest.mark.parametrize("case", sorted(UNMODELLED_HIERARCHIES))
    def test_unmodelled_point_raises_on_batch_core(self, spec_mcf_trace, case):
        """A run is all kernel or all scalar: an unmodelled component
        raises on the batch core (its reason plus a hint) instead of
        rerouting the point, and runs when the caller asks for scalar."""
        make_hierarchy, reason = UNMODELLED_HIERARCHIES[case]
        with pytest.raises(ValueError) as error:
            run_single_core(spec_mcf_trace, build_scenario("baseline"),
                            config=_system("batch"), hierarchy=make_hierarchy())
        assert str(error.value) == (
            f"{reason}: {SCALAR_HINT} to run it on the scalar reference"
        )
        hierarchy = make_hierarchy()
        result = run_single_core(spec_mcf_trace, build_scenario("baseline"),
                                 config=_system("scalar"), hierarchy=hierarchy)
        assert check_invariants(result, [hierarchy]) == []

    def test_warning_fires_once_per_reason(self, caplog):
        from repro.sim.batch import _note_scalar_fallback

        reason = "test-only synthetic reason (once-per-reason check)"
        with caplog.at_level("WARNING", logger="repro.sim.batch"):
            _note_scalar_fallback(reason)
            _note_scalar_fallback(reason)
        warnings_seen = [m for m in caplog.messages if reason in m]
        assert len(warnings_seen) == 1


# ----------------------------------------------------------------------
# Multi-core: the memory-event merge vs. the per-instruction interleave
# ----------------------------------------------------------------------
def _oracle_multicore_mix(
    traces, scenario, config, warmup_fraction=0.2, mix_name=None,
    hierarchies=None,
) -> MultiCoreResult:
    """The per-instruction interleave the merge replaced, kept as the oracle.

    Always scalar: every step advances the core with the smallest next
    dispatch cycle (ties to the lower core id) by one instruction.
    """
    if hierarchies is None:
        hierarchies = build_mix_hierarchies(scenario, config, len(traces))
    splits = [trace.split(warmup_fraction) for trace in traces]
    for hierarchy, (warm, _) in zip(hierarchies, splits):
        CoreRunner(config.core, hierarchy.demand_access).run_trace(warm)
    for index, hierarchy in enumerate(hierarchies):
        hierarchy.reset_stats(include_shared=(index == 0))
    runners = [CoreRunner(config.core, h.demand_access) for h in hierarchies]
    columns = [trace_lists(measured) for _, measured in splits]
    positions = [0] * len(traces)
    active = [len(pcs) > 0 for pcs, _, _ in columns]
    while any(active):
        best_core, best_cycle = -1, float("inf")
        for core_id, runner in enumerate(runners):
            if active[core_id] and runner.next_dispatch_cycle < best_cycle:
                best_core, best_cycle = core_id, runner.next_dispatch_cycle
        pcs, vaddrs, kinds = columns[best_core]
        position = positions[best_core]
        runners[best_core].step_values(
            pcs[position], vaddrs[position], kinds[position]
        )
        positions[best_core] = position + 1
        active[best_core] = position + 1 < len(pcs)
    results = [runner.finish() for runner in runners]
    for hierarchy in hierarchies:
        hierarchy.finalize()
    dram_stats = hierarchies[0].dram.stats
    return MultiCoreResult(
        mix_name=mix_name or "+".join(trace.name for trace in traces),
        scenario=scenario.name,
        workloads=[trace.name for trace in traces],
        ipcs=[result.ipc for result in results],
        instructions=[result.instructions for result in results],
        dram_transactions=dram_stats.total_transactions,
        dram_transactions_by_source=dram_stats.by_source(),
        per_core_dram_demand=[
            h.stats.served_by[MemLevel.DRAM] for h in hierarchies
        ],
    )


MIX_ACCESSES = 600
HETERO_MIX = ("bfs.urand", "spec.mcf_like", "spec.lbm_like", "cc.road")


def _mix_system(core: str, num_cores: int = 4, bandwidth: float = 3.2):
    system = cascade_lake_multi_core(num_cores=num_cores)
    return dataclasses.replace(
        system.with_dram_bandwidth(bandwidth), sim_core=core
    )


@pytest.fixture(scope="module")
def mix_traces():
    return {
        workload: build_workload_trace(workload, MIX_ACCESSES, "tiny")
        for workload in HETERO_MIX
    }


@pytest.fixture
def fused_cores(monkeypatch):
    """Core ids whose measured phase ran on the fused stepper."""
    seen = []
    real = multi_core.fused_core_stepper

    def spy(runner, trace, hierarchy, *args):
        seen.append(hierarchy.core_id)
        return real(runner, trace, hierarchy, *args)

    monkeypatch.setattr(multi_core, "fused_core_stepper", spy)
    return seen


class TestMultiCoreEquivalence:
    """Both cores' memory-event merge == the per-instruction oracle."""

    def _check(self, traces, scheme, prefetcher="ipcp", bandwidth=3.2,
               warmup_fraction=0.25):
        scenario = build_scenario(scheme, l1d_prefetcher=prefetcher)
        oracle = _oracle_multicore_mix(
            traces, scenario, _mix_system("scalar", len(traces), bandwidth),
            warmup_fraction=warmup_fraction,
        )
        assert oracle.dram_transactions > 0
        states = []
        for core in ("scalar", "batch"):
            system = _mix_system(core, len(traces), bandwidth)
            hierarchies = build_mix_hierarchies(scenario, system, len(traces))
            result = run_multicore_mix(
                traces, scenario, config=system,
                warmup_fraction=warmup_fraction, hierarchies=hierarchies,
            )
            assert dataclasses.asdict(result) == dataclasses.asdict(oracle), core
            assert check_invariants(result, hierarchies) == [], core
            states.append([_lru_state(h) for h in hierarchies])
        assert states[1] == states[0]

    @pytest.mark.parametrize("scheme,prefetcher", [
        ("baseline", "ipcp"), ("hermes", "ipcp"), ("tlp", "ipcp"),
        ("ppf", "ipcp"), ("tlp", "berti"),
    ])
    def test_homogeneous_ties(self, mix_traces, scheme, prefetcher, fused_cores):
        """Four identical bfs.urand traces tie on (cycle, core id) at every
        step until the shared LLC/DRAM makes them diverge."""
        self._check([mix_traces["bfs.urand"]] * 4, scheme, prefetcher)
        assert fused_cores == [0, 1, 2, 3]

    @pytest.mark.parametrize("scheme,prefetcher", [
        ("baseline", "ipcp"), ("hermes", "ipcp"), ("tlp", "ipcp"),
        ("ppf", "ipcp"), ("tlp", "berti"),
    ])
    def test_heterogeneous(self, mix_traces, scheme, prefetcher):
        self._check([mix_traces[w] for w in HETERO_MIX], scheme, prefetcher)

    @pytest.mark.parametrize("bandwidth", [1.6, 3.2])
    def test_per_core_bandwidth(self, mix_traces, bandwidth):
        self._check(
            [mix_traces[w] for w in HETERO_MIX], "tlp", bandwidth=bandwidth
        )

    def test_two_core_mix(self, mix_traces):
        self._check(
            [mix_traces["bfs.urand"], mix_traces["spec.mcf_like"]], "tlp"
        )

    def test_three_core_mix(self, mix_traces):
        """Three cores' shared LLC (3 x 1.375 MiB, 11 ways) has 6,144 sets:
        its index divides."""
        assert _mix_system("batch", 3).scaled_llc().num_sets == 6_144
        self._check([mix_traces[w] for w in HETERO_MIX[:3]], "tlp")

    @pytest.mark.parametrize("sample_interval", [1, 61, 8192])
    def test_chunk_sizes(self, mix_traces, sample_interval, monkeypatch):
        """Sampling every N loads/stores of each core, in chunks of N
        accesses between hook calls, changes nothing, and both cores sample
        the same counters after the same accesses."""
        samples = _sample_every(monkeypatch, sample_interval)
        # A quarter of each trace keeps the one-access chunks affordable.
        self._check(
            [mix_traces[w][: len(mix_traces[w]) // 4] for w in HETERO_MIX],
            "tlp",
        )
        batch = _core_samples(samples, "batch")
        assert {sample[0] for sample in batch} == {0, 1, 2, 3}
        assert batch == _core_samples(samples, "scalar")

    def test_no_warmup(self, mix_traces):
        self._check(
            [mix_traces[w] for w in HETERO_MIX], "tlp", warmup_fraction=0.0
        )

    def test_unequal_trace_lengths(self, mix_traces):
        traces = [
            mix_traces[w][: len(mix_traces[w]) * (k + 1) // 4]
            for k, w in enumerate(HETERO_MIX)
        ]
        assert len({len(trace) for trace in traces}) == 4
        self._check(traces, "tlp")

    def test_eviction_stress(self, mix_traces, fused_cores):
        """Two-way caches of a few sets: the shared LLC evicts on most
        fills, so its victim scan and clock run across the per-core merge."""
        traces = [mix_traces[w] for w in HETERO_MIX]
        scenario = build_scenario("tlp")
        system = _tiny_caches(_mix_system("scalar"))
        hierarchies = build_mix_hierarchies(scenario, system, len(traces))
        oracle = _oracle_multicore_mix(
            traces, scenario, system, warmup_fraction=0.25,
            hierarchies=hierarchies,
        )
        _assert_eviction_bound(hierarchies[0].llc)
        oracle_state = [_lru_state(hierarchy) for hierarchy in hierarchies]
        for core in ("scalar", "batch"):
            system = _tiny_caches(_mix_system(core))
            hierarchies = build_mix_hierarchies(scenario, system, len(traces))
            result = run_multicore_mix(
                traces, scenario, config=system, warmup_fraction=0.25,
                hierarchies=hierarchies,
            )
            assert dataclasses.asdict(result) == dataclasses.asdict(oracle), core
            assert [_lru_state(h) for h in hierarchies] == oracle_state, core
            for hierarchy in hierarchies:
                for cache in _caches(hierarchy):
                    check_flat_layout(cache)
        assert fused_cores == [0, 1, 2, 3]

    def test_hierarchy_count_must_match(self, mix_traces):
        """Three hierarchies for four traces would silently drop cc.road."""
        system = _mix_system("batch")
        hierarchies = build_mix_hierarchies(build_scenario("tlp"), system, 3)
        with pytest.raises(ValueError, match="4 traces need 4 hierarchies, got 3"):
            run_multicore_mix(
                [mix_traces[w] for w in HETERO_MIX], build_scenario("tlp"),
                config=system, hierarchies=hierarchies,
            )

    def test_unmodelled_core_raises(self, mix_traces):
        """Core 2 runs an unmodelled predictor: the batch core refuses the
        whole mix, naming the core, instead of running that core scalar."""
        system = _mix_system("batch")
        hierarchies = build_mix_hierarchies(build_scenario("tlp"), system, 4)
        hierarchies[2] = MemoryHierarchy(
            system, shared=hierarchies[0].shared, core_id=2,
            l1d_prefetcher=IPCPPrefetcher(), l2_prefetcher=SPPPrefetcher(),
            offchip_predictor=_SubclassedFLP(),
        )
        with pytest.raises(ValueError) as error:
            run_multicore_mix(
                [mix_traces[w] for w in HETERO_MIX], build_scenario("tlp"),
                config=system, hierarchies=hierarchies,
            )
        assert str(error.value).startswith(
            f"core 2: unmodelled off-chip predictor _SubclassedFLP: {SCALAR_HINT}"
        )

    @pytest.mark.parametrize("component", ["offchip_predictor", "l2_prefetcher"])
    def test_shared_component_runs_scalar(self, mix_traces, component):
        """Cores 0 and 1 share one FLP (or one SPP): such a mix runs on the
        scalar reference only.  The batch core refuses it, since each fused
        core keeps private indexes beside its components' state; on the
        scalar core its results and every component's state match the
        per-instruction oracle."""
        traces = [mix_traces[w] for w in ("bfs.urand", "spec.mcf_like", "cc.road")]

        def hierarchies(system):
            shared = SharedMemory(system)
            common = {
                "offchip_predictor": FirstLevelPerceptron(),
                "l2_prefetcher": SPPPrefetcher(),
            }
            built = []
            for core_id in range(3):
                parts = dict(
                    offchip_predictor=FirstLevelPerceptron(),
                    l2_prefetcher=SPPPrefetcher(),
                )
                if core_id < 2:
                    parts[component] = common[component]
                built.append(MemoryHierarchy(
                    system, shared=shared, core_id=core_id,
                    l1d_prefetcher=IPCPPrefetcher(), **parts,
                ))
            return built

        scenario = build_scenario("flp")
        with pytest.raises(ValueError) as error:
            run_multicore_mix(
                traces, scenario, config=_mix_system("batch", 3),
                hierarchies=hierarchies(_mix_system("batch", 3)),
            )
        assert str(error.value).startswith(
            f"core 1: shares {component} with core 0: {SCALAR_HINT}"
        )
        oracle_hierarchies = hierarchies(_mix_system("scalar", 3))
        oracle = _oracle_multicore_mix(
            traces, scenario, _mix_system("scalar", 3),
            hierarchies=oracle_hierarchies,
        )
        scalar_hierarchies = hierarchies(_mix_system("scalar", 3))
        result = run_multicore_mix(
            traces, scenario, config=_mix_system("scalar", 3),
            hierarchies=scalar_hierarchies,
        )
        assert dataclasses.asdict(result) == dataclasses.asdict(oracle)
        assert [_component_state(h) for h in scalar_hierarchies] == [
            _component_state(h) for h in oracle_hierarchies
        ]


class TestCheckInvariants:
    def test_broken_counts_are_reported(self, mix_traces):
        """Each of the four laws, broken on its own core, is named."""
        system = _mix_system("batch")
        hierarchies = build_mix_hierarchies(build_scenario("tlp"), system, 4)
        result = run_multicore_mix(
            [mix_traces[w] for w in HETERO_MIX], build_scenario("tlp"),
            config=system, hierarchies=hierarchies,
        )
        assert check_invariants(result, hierarchies) == []
        result.dram_transactions += 1
        hierarchies[1].stats.served_by[MemLevel.LLC] += 1
        hierarchies[2].l2c.stats.demand_hits += 1
        stats = hierarchies[3].stats
        stats.useful_l1d_prefetches = stats.l1d_prefetches_issued + 1
        problems = check_invariants(result, hierarchies)
        assert problems[0].startswith("DRAM total")
        assert [problem.split(":")[0] for problem in problems[1:]] == [
            "core 1", "core 2", "core 3",
        ]

    def test_broken_prefetch_candidates_are_reported(self, mix_traces):
        """Every L1D and L2C prefetch candidate is dropped, filtered or
        issued; a count that breaks this is named with its core and level."""
        system = _mix_system("batch")
        hierarchies = build_mix_hierarchies(build_scenario("tlp"), system, 4)
        result = run_multicore_mix(
            [mix_traces[w] for w in HETERO_MIX], build_scenario("tlp"),
            config=system, hierarchies=hierarchies,
        )
        assert all(h.stats.l1d_prefetch_candidates > 0 for h in hierarchies)
        assert check_invariants(result, hierarchies) == []
        hierarchies[0].stats.l1d_prefetches_filtered += 1
        hierarchies[2].stats.l2c_prefetch_candidates += 1
        assert [problem.split(" prefetch")[0] for problem in check_invariants(
            result, hierarchies
        )] == ["core 0: L1D", "core 2: L2C"]

    def test_broken_prefetch_resolution_is_reported(self, mix_traces):
        """After finalize every issued L1D prefetch was counted useful or
        useless, under the level that served it; a prefetch left
        uncounted or a level whose split drifts is named with its core."""
        system = _mix_system("batch")
        hierarchies = build_mix_hierarchies(build_scenario("tlp"), system, 4)
        result = run_multicore_mix(
            [mix_traces[w] for w in HETERO_MIX], build_scenario("tlp"),
            config=system, hierarchies=hierarchies,
        )
        assert all(h.stats.l1d_prefetches_issued > 0 for h in hierarchies)
        assert check_invariants(result, hierarchies) == []
        hierarchies[0].stats.useless_l1d_prefetches -= 1
        hierarchies[2].stats.accurate_prefetch_source[MemLevel.LLC] += 1
        assert [problem.split(" L1D")[0] for problem in check_invariants(
            result, hierarchies
        )] == ["core 2: accurate + inaccurate LLC", "core 0: useful + useless"]

    def test_single_core_prefetches_all_resolved(self):
        """The single-core result's counts obey the same law."""
        system = _system("batch")
        hierarchy = build_hierarchy(build_scenario("tlp"), config=system)
        trace = build_workload_trace("bfs.urand", 1_500, "tiny")
        result = run_single_core(
            trace, build_scenario("tlp"), config=system, hierarchy=hierarchy
        )
        assert result.l1d_prefetches_issued > 0
        assert check_invariants(result, [hierarchy]) == []
        result.useful_l1d_prefetches -= 1
        assert check_invariants(result) == [
            f"useful + useless L1D prefetches {result.l1d_prefetches_issued - 1} "
            f"!= issued {result.l1d_prefetches_issued}"
        ]


    @pytest.mark.parametrize("scheme,role,table", [
        pytest.param("tlp", "offchip_predictor",
                     "FirstLevelPerceptron last_four_load_pcs", id="flp"),
        pytest.param("tlp", "l1d_prefetch_filter",
                     "SecondLevelPerceptron flp_prediction_plus_offset", id="slp"),
        pytest.param("hermes", "offchip_predictor",
                     "HermesPredictor last_four_load_pcs", id="hermes"),
        pytest.param("ppf", "l2_prefetch_filter", "PPF", id="ppf"),
    ])
    def test_weight_out_of_range_is_reported(self, scheme, role, table):
        """Every perceptron weight stays within its saturation limits; one
        forced past them is named with its core and table."""
        system = _system("batch")
        hierarchy = build_hierarchy(build_scenario(scheme), config=system)
        trace = build_workload_trace("bfs.urand", 1_500, "tiny")
        result = run_single_core(
            trace, build_scenario(scheme), config=system, hierarchy=hierarchy
        )
        assert check_invariants(result, [hierarchy]) == []
        component = getattr(hierarchy, role)
        getattr(component, "perceptron", component)._weights[-1] = 99
        problems = check_invariants(result, [hierarchy])
        assert len(problems) == 1
        assert re.fullmatch(
            rf"core 0: {table} weights span \[-?\d+, 99\], outside \[-\d+, \d+\]",
            problems[0],
        )


class TestRegistryRunsFused:
    def test_every_figure_point_is_supported(self):
        """Every point of every registered figure, at the quick config,
        builds hierarchies the batch core runs fused: no figure point
        is refused by it.  Builds only, no simulation."""
        config = quick_experiment_config()
        points = {
            point.key(): point
            for spec in registered_experiments().values()
            for point in spec.build_sweep(config).compile(config)
        }
        assert len(points) == 90
        for point in points.values():
            system = system_config_from_dict(json.loads(point.system_json))
            scenario = build_scenario(point.scheme, point.l1d_prefetcher)
            if point.kind == "single_core":
                hierarchies = [build_hierarchy(scenario, config=system)]
            else:
                hierarchies = build_mix_hierarchies(
                    scenario, system, len(point.workloads)
                )
            assert use_kernel("batch", hierarchies), point.label


class TestSimCoreConfig:
    def test_rejects_unknown_core(self):
        with pytest.raises(ValueError):
            dataclasses.replace(cascade_lake_single_core(), sim_core="simd")

    def test_round_trip_defaults_to_batch(self):
        payload = system_config_to_dict(
            dataclasses.replace(cascade_lake_single_core(), sim_core="scalar")
        )
        assert "sim_core" not in payload
        assert system_config_from_dict(payload).sim_core == "batch"

    def test_cache_keys_shared_between_cores(self):
        """core="batch" is bit-identical, so it must not fork the cache."""
        points = {
            core: single_core_point(
                "bfs.urand", "tlp", "ipcp", 1_000, 0.2, system=_system(core)
            )
            for core in ("scalar", "batch")
        }
        assert points["scalar"].key() == points["batch"].key()
        assert json.loads(points["scalar"].system_json) == (
            json.loads(points["batch"].system_json)
        )


class TestApiFacade:
    def test_all_names_resolve(self):
        from repro import api

        missing = [name for name in api.__all__ if not hasattr(api, name)]
        assert not missing

    def test_simulate_point_cores_identical(self):
        from repro import api

        results = {
            core: api.simulate_point(
                "spec.mcf_like", "tlp", memory_accesses=1_000, core=core
            )
            for core in ("scalar", "batch")
        }
        assert dataclasses.asdict(results["batch"]) == (
            dataclasses.asdict(results["scalar"])
        )

    def test_run_sweep_smoke(self):
        from repro import api

        spec = api.SweepSpec(
            single_core=(
                api.SingleCoreSweep(
                    workloads=("spec.mcf_like",),
                    schemes=("baseline", "tlp"),
                    l1d_prefetchers=("ipcp",),
                ),
            )
        )
        config = api.ExperimentConfig(memory_accesses=1_000)
        results = api.run_sweep(
            spec, config=config, core="batch", use_result_cache=False, jobs=1
        )
        tlp = results.single_core("spec.mcf_like", "tlp", l1d_prefetcher="ipcp")
        baseline = results.single_core(
            "spec.mcf_like", "baseline", l1d_prefetcher="ipcp"
        )
        assert tlp.ipc > 0 and baseline.ipc > 0

    def test_load_trace(self):
        from repro import api

        trace = api.load_trace("spec.omnetpp_like", memory_accesses=500)
        assert trace.num_memory_accesses == 500
