"""GAP benchmark kernels instrumented to emit memory traces.

The paper evaluates six graph kernels from the GAP suite (Table IV): BFS,
PageRank (PR), Connected Components (CC), Betweenness Centrality (BC),
Triangle Counting (TC) and Single-Source Shortest Paths (SSSP).  Their memory
behaviour -- the reason they stress off-chip prediction -- comes from the CSR
traversal pattern: sequential streaming of the offsets/neighbour arrays mixed
with data-dependent random accesses to per-vertex property arrays that are
much larger than the cache hierarchy.

Each kernel below *actually executes* the algorithm on a synthetic
:class:`~repro.workloads.graphs.CSRGraph` while recording the virtual
addresses of every array access it performs, producing a
:class:`~repro.traces.trace.Trace` with the same access pattern a compiled
GAP binary would exhibit (at reduced scale).  Every distinct load/store site
in the kernel gets its own synthetic PC, which is what the perceptron
features key on.

The emitter is columnar: kernels append plain-int ``(pc, vaddr, kind)``
scalars to three column buffers (no per-record object construction), the
per-access compute interleave is expanded vectorically at the end, and the
kernels walk the CSR arrays through ``memoryview`` objects: indexing one
returns a plain int as fast as indexing a list does (numpy scalar access is
several times slower), and creating one copies nothing.
"""

from __future__ import annotations

import numpy as np

from repro.traces.synthetic import interleave_columns
from repro.traces.trace import ADDR_DTYPE, KIND_DTYPE, KIND_LOAD, KIND_STORE, Trace
from repro.workloads.graphs import CSRGraph, generate_graph

#: Base virtual addresses of the kernel data structures.  They are spaced
#: far apart so arrays never overlap regardless of graph size.  The kernels
#: inline the address arithmetic (base + element_size * index); the element
#: sizes are: row_ptr 8B, col_idx 4B, prop_a 4B, prop_b 4B, prop_c 8B,
#: queue 4B.
_ROW_PTR_BASE = 0x20_0000_0000   # 8-byte elements
_COL_IDX_BASE = 0x21_0000_0000   # 4-byte elements
_PROP_A_BASE = 0x22_0000_0000    # 4-byte elements
_PROP_B_BASE = 0x23_0000_0000    # 4-byte elements
_PROP_C_BASE = 0x24_0000_0000    # 8-byte elements
_QUEUE_BASE = 0x25_0000_0000     # 4-byte elements

_CODE_BASE = 0x50_0000


class TraceEmitter:
    """Collects memory accesses emitted by a kernel, up to a budget.

    Accesses land in three parallel column buffers; :meth:`build_trace`
    interleaves the compute records and assembles the columnar trace.
    """

    def __init__(
        self, name: str, max_memory_accesses: int, compute_per_access: int
    ) -> None:
        self.name = name
        self.max_memory_accesses = max_memory_accesses
        self.compute_per_access = compute_per_access
        self.memory_accesses = 0
        self._pcs: list[int] = []
        self._vaddrs: list[int] = []
        self._kinds: list[int] = []
        self._compute_pc = _CODE_BASE + 0xF000

    @property
    def exhausted(self) -> bool:
        """True once the memory-access budget has been spent."""
        return self.memory_accesses >= self.max_memory_accesses

    def load(self, pc: int, vaddr: int) -> None:
        """Emit one load (plus its share of compute records at build time)."""
        if self.memory_accesses >= self.max_memory_accesses:
            return
        self._pcs.append(pc)
        self._vaddrs.append(vaddr)
        self._kinds.append(KIND_LOAD)
        self.memory_accesses += 1

    def store(self, pc: int, vaddr: int) -> None:
        """Emit one store (plus its share of compute records at build time)."""
        if self.memory_accesses >= self.max_memory_accesses:
            return
        self._pcs.append(pc)
        self._vaddrs.append(vaddr)
        self._kinds.append(KIND_STORE)
        self.memory_accesses += 1

    def build_trace(self, metadata: dict | None = None) -> Trace:
        """Assemble the columnar trace (memory records + compute interleave)."""
        pc, vaddr, kind = interleave_columns(
            np.asarray(self._pcs, dtype=ADDR_DTYPE),
            np.asarray(self._vaddrs, dtype=ADDR_DTYPE),
            np.asarray(self._kinds, dtype=KIND_DTYPE),
            self._compute_pc,
            self.compute_per_access,
        )
        return Trace.from_columns(self.name, pc, vaddr, kind, metadata or {})


# ----------------------------------------------------------------------
# Kernels
#
# Address arithmetic is inlined (base + element_size * index) and the CSR
# arrays are walked through memoryviews -- both are per-access hot-path
# costs in a trace-emission run.
# ----------------------------------------------------------------------
def _bfs(emitter: TraceEmitter, graph: CSRGraph, rng: np.random.Generator) -> None:
    """Breadth-first search with an explicit frontier (push style)."""
    row_ptr = memoryview(graph.row_ptr)
    col_idx = memoryview(graph.col_idx)
    num_vertices = graph.num_vertices
    load, store = emitter.load, emitter.store
    pc = _CODE_BASE
    while not emitter.exhausted:
        source = int(rng.integers(0, num_vertices))
        parent = [-1] * num_vertices
        parent[source] = source
        frontier = [source]
        queue_index = 0
        while frontier and not emitter.exhausted:
            next_frontier = []
            for vertex in frontier:
                if emitter.exhausted:
                    break
                load(pc + 0x00, _QUEUE_BASE + 4 * queue_index)
                queue_index += 1
                load(pc + 0x10, _ROW_PTR_BASE + 8 * vertex)
                load(pc + 0x14, _ROW_PTR_BASE + 8 * (vertex + 1))
                for edge in range(row_ptr[vertex], row_ptr[vertex + 1]):
                    if emitter.exhausted:
                        break
                    load(pc + 0x20, _COL_IDX_BASE + 4 * edge)
                    neighbor = col_idx[edge]
                    load(pc + 0x30, _PROP_A_BASE + 4 * neighbor)
                    if parent[neighbor] == -1:
                        parent[neighbor] = vertex
                        store(pc + 0x40, _PROP_A_BASE + 4 * neighbor)
                        store(pc + 0x50, _QUEUE_BASE + 4 * (queue_index + len(next_frontier)))
                        next_frontier.append(neighbor)
            frontier = next_frontier


def _pagerank(emitter: TraceEmitter, graph: CSRGraph, rng: np.random.Generator) -> None:
    """Pull-style PageRank iterations."""
    row_ptr = memoryview(graph.row_ptr)
    col_idx = memoryview(graph.col_idx)
    num_vertices = graph.num_vertices
    load, store = emitter.load, emitter.store
    pc = _CODE_BASE + 0x1000
    vertex = 0
    while not emitter.exhausted:
        load(pc + 0x00, _ROW_PTR_BASE + 8 * vertex)
        load(pc + 0x04, _ROW_PTR_BASE + 8 * (vertex + 1))
        for edge in range(row_ptr[vertex], row_ptr[vertex + 1]):
            if emitter.exhausted:
                break
            load(pc + 0x10, _COL_IDX_BASE + 4 * edge)
            neighbor = col_idx[edge]
            # Pull the neighbour's current rank (random access).
            load(pc + 0x20, _PROP_A_BASE + 4 * neighbor)
            # And its out-degree for normalisation.
            load(pc + 0x24, _ROW_PTR_BASE + 8 * neighbor)
        store(pc + 0x30, _PROP_B_BASE + 4 * vertex)
        vertex = (vertex + 1) % num_vertices


def _connected_components(
    emitter: TraceEmitter, graph: CSRGraph, rng: np.random.Generator
) -> None:
    """Shiloach-Vishkin style hook-and-compress over the edge list."""
    row_ptr = memoryview(graph.row_ptr)
    col_idx = memoryview(graph.col_idx)
    num_vertices = graph.num_vertices
    load, store = emitter.load, emitter.store
    comp = list(range(num_vertices))
    pc = _CODE_BASE + 0x2000
    while not emitter.exhausted:
        vertex = 0
        while vertex < num_vertices and not emitter.exhausted:
            load(pc + 0x00, _ROW_PTR_BASE + 8 * vertex)
            load(pc + 0x04, _ROW_PTR_BASE + 8 * (vertex + 1))
            for edge in range(row_ptr[vertex], row_ptr[vertex + 1]):
                if emitter.exhausted:
                    break
                load(pc + 0x10, _COL_IDX_BASE + 4 * edge)
                neighbor = col_idx[edge]
                load(pc + 0x20, _PROP_A_BASE + 4 * vertex)
                load(pc + 0x24, _PROP_A_BASE + 4 * neighbor)
                if comp[neighbor] < comp[vertex]:
                    comp[vertex] = comp[neighbor]
                    store(pc + 0x30, _PROP_A_BASE + 4 * vertex)
                elif comp[vertex] < comp[neighbor]:
                    comp[neighbor] = comp[vertex]
                    store(pc + 0x34, _PROP_A_BASE + 4 * neighbor)
            vertex += 1


def _betweenness_centrality(
    emitter: TraceEmitter, graph: CSRGraph, rng: np.random.Generator
) -> None:
    """Brandes-style BC from sampled sources (forward BFS + backward pass)."""
    row_ptr = memoryview(graph.row_ptr)
    col_idx = memoryview(graph.col_idx)
    num_vertices = graph.num_vertices
    load, store = emitter.load, emitter.store
    pc = _CODE_BASE + 0x3000
    while not emitter.exhausted:
        source = int(rng.integers(0, num_vertices))
        depth = [-1] * num_vertices
        depth[source] = 0
        order: list[int] = []
        frontier = [source]
        # Forward sweep.
        while frontier and not emitter.exhausted:
            next_frontier = []
            for vertex in frontier:
                if emitter.exhausted:
                    break
                order.append(vertex)
                load(pc + 0x00, _ROW_PTR_BASE + 8 * vertex)
                load(pc + 0x04, _ROW_PTR_BASE + 8 * (vertex + 1))
                for edge in range(row_ptr[vertex], row_ptr[vertex + 1]):
                    if emitter.exhausted:
                        break
                    load(pc + 0x10, _COL_IDX_BASE + 4 * edge)
                    neighbor = col_idx[edge]
                    load(pc + 0x20, _PROP_A_BASE + 4 * neighbor)   # depth
                    load(pc + 0x24, _PROP_C_BASE + 8 * neighbor)   # sigma
                    if depth[neighbor] == -1:
                        depth[neighbor] = depth[vertex] + 1
                        store(pc + 0x30, _PROP_A_BASE + 4 * neighbor)
                        store(pc + 0x34, _PROP_C_BASE + 8 * neighbor)
                        next_frontier.append(neighbor)
            frontier = next_frontier
        # Backward accumulation.
        for vertex in reversed(order):
            if emitter.exhausted:
                break
            load(pc + 0x40, _ROW_PTR_BASE + 8 * vertex)
            start, end = row_ptr[vertex], row_ptr[vertex + 1]
            for edge in range(start, min(end, start + 8)):
                if emitter.exhausted:
                    break
                load(pc + 0x50, _COL_IDX_BASE + 4 * edge)
                neighbor = col_idx[edge]
                load(pc + 0x60, _PROP_B_BASE + 4 * neighbor)       # delta
            store(pc + 0x70, _PROP_B_BASE + 4 * vertex)


def _triangle_count(
    emitter: TraceEmitter, graph: CSRGraph, rng: np.random.Generator
) -> None:
    """Triangle counting by neighbour-list intersection."""
    row_ptr = memoryview(graph.row_ptr)
    col_idx = memoryview(graph.col_idx)
    num_vertices = graph.num_vertices
    load = emitter.load
    pc = _CODE_BASE + 0x4000
    vertex = 0
    while not emitter.exhausted:
        load(pc + 0x00, _ROW_PTR_BASE + 8 * vertex)
        load(pc + 0x04, _ROW_PTR_BASE + 8 * (vertex + 1))
        for edge in range(row_ptr[vertex], row_ptr[vertex + 1]):
            if emitter.exhausted:
                break
            load(pc + 0x10, _COL_IDX_BASE + 4 * edge)
            neighbor = col_idx[edge]
            if neighbor <= vertex:
                continue
            load(pc + 0x20, _ROW_PTR_BASE + 8 * neighbor)
            load(pc + 0x24, _ROW_PTR_BASE + 8 * (neighbor + 1))
            n_start = row_ptr[neighbor]
            n_end = row_ptr[neighbor + 1]
            # Stream both adjacency lists for the intersection.
            for other_edge in range(n_start, min(n_end, n_start + 16)):
                if emitter.exhausted:
                    break
                load(pc + 0x30, _COL_IDX_BASE + 4 * other_edge)
        vertex = (vertex + 1) % num_vertices


def _sssp(emitter: TraceEmitter, graph: CSRGraph, rng: np.random.Generator) -> None:
    """Delta-stepping-style SSSP (bucketed Bellman-Ford relaxations)."""
    row_ptr = memoryview(graph.row_ptr)
    col_idx = memoryview(graph.col_idx)
    num_vertices = graph.num_vertices
    load, store = emitter.load, emitter.store
    pc = _CODE_BASE + 0x5000
    infinity = int(np.iinfo(np.int64).max)
    while not emitter.exhausted:
        source = int(rng.integers(0, num_vertices))
        dist = [infinity] * num_vertices
        dist[source] = 0
        bucket = [source]
        while bucket and not emitter.exhausted:
            next_bucket = []
            for vertex in bucket:
                if emitter.exhausted:
                    break
                load(pc + 0x00, _QUEUE_BASE + 4 * len(next_bucket))
                load(pc + 0x10, _ROW_PTR_BASE + 8 * vertex)
                load(pc + 0x14, _ROW_PTR_BASE + 8 * (vertex + 1))
                for edge in range(row_ptr[vertex], row_ptr[vertex + 1]):
                    if emitter.exhausted:
                        break
                    load(pc + 0x20, _COL_IDX_BASE + 4 * edge)
                    neighbor = col_idx[edge]
                    weight = (vertex ^ neighbor) % 16 + 1
                    load(pc + 0x30, _PROP_C_BASE + 8 * neighbor)
                    if dist[vertex] + weight < dist[neighbor]:
                        dist[neighbor] = dist[vertex] + weight
                        store(pc + 0x40, _PROP_C_BASE + 8 * neighbor)
                        next_bucket.append(neighbor)
            bucket = next_bucket


#: Kernel registry: name -> (callable, description).  Mirrors Table IV.
GAP_KERNELS = {
    "bfs": (_bfs, "Breadth-first search (push & pull, frontier)"),
    "pr": (_pagerank, "PageRank (pull only)"),
    "cc": (_connected_components, "Connected components (Shiloach-Vishkin)"),
    "bc": (_betweenness_centrality, "Betweenness centrality (Brandes)"),
    "tc": (_triangle_count, "Triangle counting (push only)"),
    "sssp": (_sssp, "Single-source shortest paths (delta-stepping)"),
}


def gap_trace(
    kernel: str,
    graph: str | CSRGraph = "kron",
    scale: str = "small",
    max_memory_accesses: int = 40_000,
    compute_per_access: int = 4,
    seed: int = 5,
) -> Trace:
    """Generate the memory trace of one GAP kernel over one input graph.

    Args:
        kernel: one of ``bfs``, ``pr``, ``cc``, ``bc``, ``tc``, ``sssp``.
        graph: an input graph name (Table V style: ``urand``, ``kron``,
            ``road``, ``twitter``, ``web``, ``friendster``) or a pre-built
            :class:`CSRGraph`.
        scale: graph scale when ``graph`` is a name.
        max_memory_accesses: trace budget (memory records).
        compute_per_access: NON_MEM records inserted per memory record.
        seed: RNG seed for source selection.
    """
    normalized = kernel.lower()
    if normalized not in GAP_KERNELS:
        raise ValueError(
            f"unknown GAP kernel {kernel!r}; choose from {sorted(GAP_KERNELS)}"
        )
    if isinstance(graph, CSRGraph):
        csr = graph
    else:
        csr = generate_graph(graph, scale=scale, seed=seed)
    kernel_fn, _ = GAP_KERNELS[normalized]
    name = f"{normalized}.{csr.name}"
    emitter = TraceEmitter(name, max_memory_accesses, compute_per_access)
    rng = np.random.default_rng(seed)
    kernel_fn(emitter, csr, rng)
    return emitter.build_trace(
        {
            "suite": "gap",
            "kernel": normalized,
            "graph": csr.name,
            "vertices": csr.num_vertices,
            "edges": csr.num_edges,
        }
    )
