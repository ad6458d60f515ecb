"""Tests for the trace container, synthetic generators and workloads."""

import hashlib
import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.cli import _unknown_workloads
from repro.common.types import AccessKind, MemoryAccess
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    mixed_trace,
    pointer_chase_trace,
    random_access_trace,
    streaming_trace,
    strided_trace,
)
from repro.traces.trace import Trace
from repro.workloads import graphs
from repro.workloads.catalog import CATALOG_WORKLOADS
from repro.workloads.gap import GAP_KERNELS, gap_trace
from repro.workloads.graphs import (
    CSRGraph,
    _edges_to_csr,
    generate_graph,
    road_graph,
    uniform_random_graph,
)
from repro.workloads.spec_like import SPEC_LIKE_WORKLOADS, spec_like_trace

#: Pinned GAP trace and graph digests (regenerate with
#: ``tests/fixtures/generate_gap_trace_digests.py``).
GAP_DIGESTS = json.loads(
    (Path(__file__).parent / "fixtures" / "gap_trace_digests.json").read_text()
)


def sha256_of(*arrays) -> str:
    """sha256 over the raw bytes of ``arrays``, in order (as the fixture)."""
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array.tobytes())
    return digest.hexdigest()


class TestTraceContainer:
    def test_basic_properties(self):
        trace = Trace("t")
        trace.append(MemoryAccess(0x1, 0x100, AccessKind.LOAD))
        trace.append(MemoryAccess(0x2, 0x200, AccessKind.STORE))
        trace.append(MemoryAccess(0x3, 0, AccessKind.NON_MEM))
        assert len(trace) == 3
        assert trace.num_loads == 1
        assert trace.num_stores == 1
        assert trace.num_memory_accesses == 2
        assert trace.memory_intensity == pytest.approx(2 / 3)

    def test_split(self):
        trace = Trace("t", [MemoryAccess(0x1, i * 64, AccessKind.LOAD) for i in range(10)])
        warmup, measured = trace.split(0.3)
        assert len(warmup) == 3
        assert len(measured) == 7
        with pytest.raises(ValueError):
            trace.split(1.5)

    def test_truncated(self):
        trace = Trace("t", [MemoryAccess(0x1, i, AccessKind.LOAD) for i in range(10)])
        assert len(trace.truncated(4)) == 4

    def test_footprint_and_pcs(self):
        trace = Trace("t", [MemoryAccess(0x1, 0, AccessKind.LOAD), MemoryAccess(0x2, 64, AccessKind.LOAD)])
        assert trace.footprint_bytes() == 128
        assert trace.unique_pcs() == 2

    def test_summary_keys(self):
        trace = Trace("t", [MemoryAccess(0x1, 0, AccessKind.LOAD)])
        summary = trace.summary()
        assert summary["name"] == "t"
        assert summary["instructions"] == 1


class TestSyntheticGenerators:
    def config(self, **kwargs):
        defaults = dict(num_memory_accesses=500, working_set_bytes=1 << 20, compute_per_access=1, seed=1)
        defaults.update(kwargs)
        return SyntheticTraceConfig(**defaults)

    def test_streaming_is_sequential(self):
        trace = streaming_trace(self.config())
        loads = [r for r in trace if r.is_memory()]
        assert loads[1].vaddr - loads[0].vaddr == 8

    def test_strided_jumps_by_stride(self):
        trace = strided_trace(self.config(), stride_blocks=4, elements_per_column=1)
        loads = [r for r in trace if r.is_memory()]
        assert loads[1].vaddr - loads[0].vaddr == 4 * 64

    def test_random_respects_working_set(self):
        config = self.config(working_set_bytes=1 << 16)
        trace = random_access_trace(config)
        assert trace.footprint_bytes() <= (1 << 16) + 64

    def test_pointer_chase_repeats_after_chain(self):
        config = self.config(num_memory_accesses=64, working_set_bytes=16 * 64)
        trace = pointer_chase_trace(config)
        loads = [r.vaddr for r in trace if r.is_memory()]
        assert loads[:16] == loads[16:32]

    def test_hot_fraction_concentrates_accesses(self):
        config = self.config(
            num_memory_accesses=2000, hot_fraction=0.9, hot_working_set_bytes=1 << 14
        )
        trace = random_access_trace(config)
        assert trace.footprint_bytes() < 1 << 19

    def test_mixed_fraction_validated(self):
        with pytest.raises(ValueError):
            mixed_trace(self.config(), random_fraction=1.5)

    def test_compute_per_access_controls_intensity(self):
        sparse = streaming_trace(self.config(compute_per_access=4))
        dense = streaming_trace(self.config(compute_per_access=0))
        assert sparse.memory_intensity < dense.memory_intensity

    def test_store_fraction(self):
        trace = streaming_trace(self.config(store_fraction=1.0))
        assert trace.num_stores == 500

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SyntheticTraceConfig(num_memory_accesses=0)
        with pytest.raises(ValueError):
            SyntheticTraceConfig(store_fraction=2.0)
        with pytest.raises(ValueError):
            SyntheticTraceConfig(hot_fraction=-0.1)


class TestGraphs:
    def test_uniform_graph_shape(self):
        graph = generate_graph("urand", scale="tiny")
        assert graph.num_vertices == 4096
        assert graph.num_edges > 0
        assert graph.row_ptr[-1] == graph.num_edges

    def test_power_law_graph_has_hubs(self):
        graph = generate_graph("kron", scale="tiny")
        degrees = [graph.degree(v) for v in range(graph.num_vertices)]
        assert max(degrees) > 10 * (sum(degrees) / len(degrees))

    def test_road_graph_degree_bounded(self):
        graph = generate_graph("road", scale="tiny")
        degrees = [graph.degree(v) for v in range(graph.num_vertices)]
        assert max(degrees) <= 4

    def test_neighbors_consistent_with_row_ptr(self):
        graph = generate_graph("urand", scale="tiny")
        vertex = 17
        assert len(graph.neighbors(vertex)) == graph.degree(vertex)

    def test_unknown_graph_and_scale(self):
        with pytest.raises(ValueError):
            generate_graph("nope")
        with pytest.raises(ValueError):
            generate_graph("urand", scale="huge")

    def test_footprint_positive(self):
        graph = generate_graph("urand", scale="tiny")
        assert graph.footprint_bytes() > 0

    @pytest.mark.parametrize("name", sorted(GAP_DIGESTS["graphs"]))
    def test_medium_graph_matches_pinned_digest(self, name):
        entry = GAP_DIGESTS["graphs"][name]
        graph = generate_graph(entry["graph"], scale=entry["scale"], seed=entry["seed"])
        assert sha256_of(graph.row_ptr) == entry["row_ptr"]
        assert sha256_of(graph.col_idx) == entry["col_idx"]

    def test_pickle_round_trip_after_walk(self):
        graph = generate_graph("urand", scale="tiny")
        trace = gap_trace("bfs", graph=graph, max_memory_accesses=500)
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.name == graph.name
        assert np.array_equal(clone.row_ptr, graph.row_ptr)
        assert np.array_equal(clone.col_idx, graph.col_idx)
        again = gap_trace("bfs", graph=clone, max_memory_accesses=500)
        assert sha256_of(*again.columns()) == sha256_of(*trace.columns())


def reference_csr(num_vertices, sources, destinations):
    """CSR arrays built with a stable argsort of the sources."""
    order = np.argsort(sources, kind="stable")
    row_ptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=num_vertices), out=row_ptr[1:])
    return row_ptr, destinations[order].astype(np.int32)


@st.composite
def edge_lists(draw):
    """(num_vertices, edges) with duplicate edges, self-loops and isolated
    vertices: sources and destinations only span a prefix of the ids."""
    num_vertices = draw(st.integers(min_value=1, max_value=300))
    used = draw(st.integers(min_value=1, max_value=num_vertices))
    vertex = st.integers(min_value=0, max_value=used - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=1_500))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=300))
    edges += [(v, v) for v in draw(st.lists(vertex, max_size=200))]
    draw(st.randoms(use_true_random=False)).shuffle(edges)
    return num_vertices, edges


def road_edges(side):
    """The grid's edges as an edge list: right, left, down and up links."""
    ids = np.arange(side * side, dtype=np.int64).reshape(side, side)
    right = ids[:, :-1].ravel(), ids[:, 1:].ravel()
    down = ids[:-1, :].ravel(), ids[1:, :].ravel()
    sources = np.concatenate([right[0], right[1], down[0], down[1]])
    destinations = np.concatenate([right[1], right[0], down[1], down[0]])
    return sources, destinations


class TestGraphBuilds:
    """The generators build CSR form directly, equal to the edge-list way."""

    @pytest.mark.parametrize("side", [1, 2, 3, 7, 64])
    def test_road_matches_the_sorted_edge_list(self, side):
        expected_row_ptr, expected_col_idx = reference_csr(side * side, *road_edges(side))
        graph = road_graph(side=side)
        assert graph.row_ptr.dtype == np.int64 and graph.col_idx.dtype == np.int32
        assert np.array_equal(graph.row_ptr, expected_row_ptr)
        assert np.array_equal(graph.col_idx, expected_col_idx)

    @pytest.mark.parametrize("num_vertices,degree", [(2, 1), (64, 3), (4096, 16), (32_768, 16)])
    def test_urand_matches_bounded_integer_draws(self, num_vertices, degree):
        rng = np.random.default_rng(7)
        edges = num_vertices * degree
        sources = rng.integers(0, num_vertices, size=edges, dtype=np.int64)
        destinations = rng.integers(0, num_vertices, size=edges, dtype=np.int64)
        expected_row_ptr, expected_col_idx = reference_csr(
            num_vertices, sources, destinations
        )
        graph = uniform_random_graph(num_vertices, average_degree=degree, seed=7)
        assert graph.row_ptr.dtype == np.int64 and graph.col_idx.dtype == np.int32
        assert np.array_equal(graph.row_ptr, expected_row_ptr)
        assert np.array_equal(graph.col_idx, expected_col_idx)

    @pytest.mark.parametrize("num_vertices", [0, 1, 3, 1000, 65_535])
    def test_urand_refuses_other_vertex_counts(self, num_vertices):
        with pytest.raises(ValueError, match="power of two"):
            uniform_random_graph(num_vertices)


def edge_columns(edges):
    """The source and destination columns of an edge list, as int64."""
    sources = np.array([e[0] for e in edges], dtype=np.int64)
    destinations = np.array([e[1] for e in edges], dtype=np.int64)
    return sources, destinations


#: Fill chunk sizes each fill test runs at: its edge lists span many chunks
#: of 1 or 3 sources, and fit in one of the default.
FILL_CHUNKS = (1, 3, graphs._FILL_CHUNK)


class TestEdgesToCSR:
    """``_edges_to_csr`` builds ``row_ptr`` whole and fills ``col_idx`` rows
    on request (``CSRGraph.fill``); reading ``col_idx`` fills the rest."""

    @settings(max_examples=60, deadline=None)
    @given(edge_lists())
    def test_matches_stable_argsort_reference(self, case):
        num_vertices, edges = case
        sources, destinations = edge_columns(edges)
        expected_row_ptr, expected_col_idx = reference_csr(
            num_vertices, sources, destinations
        )
        for chunk in FILL_CHUNKS:
            with mock.patch.object(graphs, "_FILL_CHUNK", chunk):
                graph = _edges_to_csr("g", num_vertices, sources.copy(), destinations.copy())
                graph.fill(sources[-1:])  # one row by a pass, then the rest whole
                assert graph.row_ptr.dtype == np.int64
                assert np.array_equal(graph.row_ptr, expected_row_ptr)
                assert graph.num_edges == len(edges)
                assert graph.col_idx.dtype == np.int32
                assert np.array_equal(graph.col_idx, expected_col_idx), chunk

    @settings(max_examples=60, deadline=None)
    @given(edge_lists(), st.data())
    def test_requested_rows_match_the_reference(self, case, data):
        num_vertices, edges = case
        sources, destinations = edge_columns(edges)
        row_ptr, expected_col_idx = reference_csr(num_vertices, sources, destinations)
        vertex = st.integers(min_value=0, max_value=num_vertices - 1)
        requests = data.draw(st.lists(st.lists(vertex, max_size=40), max_size=8))
        for chunk in FILL_CHUNKS:
            with mock.patch.object(graphs, "_FILL_CHUNK", chunk):
                graph = _edges_to_csr("g", num_vertices, sources.copy(), destinations.copy())
                requested = set()
                for request in requests:
                    graph.fill(request)
                    requested.update(request)
                    col_idx = np.asarray(graph.views()[1])
                    for v in requested:
                        row = slice(row_ptr[v], row_ptr[v + 1])
                        assert np.array_equal(col_idx[row], expected_col_idx[row]), (chunk, v)
                assert np.array_equal(graph.col_idx, expected_col_idx), chunk

    def test_only_a_minority_of_unfilled_edges_makes_a_pass(self, monkeypatch):
        """Empty or filled rows make no pass over the source column, and
        rows holding most of the edges fill every row without one."""
        sources = np.array([0, 2, 0, 2, 3, 3, 4, 4, 4], dtype=np.int64)
        destinations = np.array([1, 4, 2, 0, 3, 1, 0, 2, 4], dtype=np.int64)
        graph = _edges_to_csr("g", 6, sources, destinations)
        passes = []
        take = np.take
        monkeypatch.setattr(np, "take", lambda *args: passes.append(1) or take(*args))
        graph.fill([1, 5])  # empty rows
        graph.fill([])
        assert passes == []
        graph.fill([2, 0, 2])  # 4 of 9 edges
        assert passes == [1]
        graph.fill([0, 1, 2])
        assert passes == [1]
        assert list(graph.neighbors(2)) == [4, 0]  # fills rows 3-4: 5 of 9
        assert passes == [1] and graph._pending is None
        assert graph.col_idx.tolist() == [1, 2, 4, 0, 3, 1, 0, 2, 4]

    def test_build_and_small_fills_make_no_edge_sized_temporary(self):
        """A medium urand build plus fills of 1, 17 and 300 rows peaks less
        than one edge-sized copy (16 MB of endpoints) above what it keeps."""
        graphs.clear_graph_memo()
        tracemalloc.start()
        try:
            graph = generate_graph("urand", "medium", seed=5)
            for rows in (1, 17, 300):
                graph.fill(np.arange(rows) * (graph.num_vertices // rows))
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            graphs.clear_graph_memo()
        assert graph._pending is not None
        assert peak - current <= 12 * 2**20

    def test_oversized_key_rejected(self):
        # 62 bits of vertex id + 2 bits of edge index > 63.
        edges = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError, match="63-bit"):
            _edges_to_csr("huge", 1 << 62, edges, edges)


class TestGAPKernels:
    @pytest.mark.parametrize("kernel", sorted(GAP_KERNELS))
    def test_each_kernel_emits_a_trace(self, kernel):
        trace = gap_trace(kernel, graph="urand", scale="tiny", max_memory_accesses=800)
        assert trace.num_memory_accesses > 400
        assert trace.metadata["suite"] == "gap"
        assert trace.metadata["kernel"] == kernel

    def test_budget_respected(self):
        trace = gap_trace("bfs", graph="urand", scale="tiny", max_memory_accesses=500)
        assert trace.num_memory_accesses <= 500

    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            gap_trace("dijkstra", graph="urand", scale="tiny")

    def test_kernels_use_multiple_pcs(self):
        trace = gap_trace("bfs", graph="urand", scale="tiny", max_memory_accesses=1000)
        assert trace.unique_pcs() >= 4

    def test_deterministic_given_seed(self):
        first = gap_trace("pr", graph="urand", scale="tiny", max_memory_accesses=300, seed=9)
        second = gap_trace("pr", graph="urand", scale="tiny", max_memory_accesses=300, seed=9)
        assert [r.vaddr for r in first] == [r.vaddr for r in second]

    @pytest.mark.parametrize("name", sorted(GAP_DIGESTS["traces"]))
    def test_trace_matches_pinned_digest(self, name):
        entry = GAP_DIGESTS["traces"][name]
        trace = gap_trace(entry["kernel"], graph=entry["graph"], scale=entry["scale"],
                          max_memory_accesses=entry["accesses"], seed=entry["seed"])
        assert sha256_of(*trace.columns()) == entry["sha256"]

    @pytest.mark.parametrize("kernels", [("bfs", "tc"), ("tc", "bfs")])
    def test_memoised_graph_gives_pinned_traces_in_any_order(self, kernels):
        """Two kernels in one fresh interpreter share the memoised medium
        urand graph, the second walking rows the first left filled."""
        script = (
            "import hashlib, json, sys\n"
            "from repro.workloads.gap import gap_trace\n"
            "from repro.workloads.graphs import generate_graph\n"
            "digests = []\n"
            "for kernel in sys.argv[1:]:\n"
            "    trace = gap_trace(kernel, 'urand', scale='medium',\n"
            "                      max_memory_accesses=12_000, seed=5)\n"
            "    digest = hashlib.sha256()\n"
            "    for column in trace.columns():\n"
            "        digest.update(column.tobytes())\n"
            "    digests.append(digest.hexdigest())\n"
            "graph = generate_graph('urand', scale='medium', seed=5)\n"
            "print(json.dumps([digests, graph._pending is not None]))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        process = subprocess.run(
            [sys.executable, "-c", script, *kernels],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=300,
        )
        assert process.returncode == 0, process.stderr
        digests, partly_filled = json.loads(process.stdout)
        assert partly_filled  # the graph was shared, not completed
        assert digests == [
            GAP_DIGESTS["traces"][f"{kernel}.urand.medium.12000"]["sha256"]
            for kernel in kernels
        ]


class TestSpecLikeWorkloads:
    def test_all_named_workloads_generate(self):
        for name in SPEC_LIKE_WORKLOADS:
            trace = spec_like_trace(name, num_memory_accesses=300)
            assert trace.num_memory_accesses == 300
            assert trace.metadata["suite"] == "spec"

    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            spec_like_trace("gromacs_like")

    def test_workload_count_covers_suite(self):
        assert len(SPEC_LIKE_WORKLOADS) >= 10


class TestCatalog:
    def test_catalog_workloads_contents(self):
        assert len(CATALOG_WORKLOADS) == len(set(CATALOG_WORKLOADS)) == 30
        gap = [name for name in CATALOG_WORKLOADS if not name.startswith("spec.")]
        assert len(gap) == 6 * 3
        assert "bfs.kron" in gap and "sssp.road" in gap
        assert "spec.mcf_like" in CATALOG_WORKLOADS
        # Every catalog name passes the CLI's up-front workload check.
        points = [SimpleNamespace(workloads=CATALOG_WORKLOADS)]
        assert _unknown_workloads(points, None) == []

    def test_build_trace_by_name(self):
        trace = api.load_trace("bfs.urand", 500, gap_scale="tiny")
        assert trace.num_memory_accesses <= 500
        direct = gap_trace("bfs", graph="urand", scale="tiny", max_memory_accesses=500)
        for a, b in zip(trace.columns(), direct.columns()):
            assert np.array_equal(a, b)

    def test_unknown_lookup(self):
        with pytest.raises(ValueError, match="unknown GAP kernel"):
            api.load_trace("nope", 100)
        with pytest.raises(ValueError, match="unknown SPEC-like"):
            api.load_trace("spec.nope", 100)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=4))
def test_synthetic_trace_length_matches_config(accesses, compute):
    config = SyntheticTraceConfig(
        num_memory_accesses=accesses,
        working_set_bytes=1 << 18,
        compute_per_access=compute,
        seed=2,
    )
    trace = streaming_trace(config)
    assert trace.num_memory_accesses == accesses
    assert len(trace) == accesses * (1 + compute)
