"""Synthetic input graphs for the GAP kernels.

The paper uses six real input graphs (Table V: web, road, twitter, kron,
urand, friendster) with 24M-134M vertices.  Those graphs are far too large
for a Python trace-driven simulation, so we generate synthetic graphs that
preserve the property the paper cares about -- the *degree distribution*
shapes the memory access pattern:

* ``urand``-like: uniform random (Erdos-Renyi) graphs -- uniform degrees,
  no locality in the neighbour lists;
* ``kron``/``twitter``/``web``-like: power-law graphs generated with an
  RMAT-style recursive partitioner -- a few very high degree hubs with lots
  of reuse, many low-degree vertices;
* ``road``-like: 2D grid graphs with only local connectivity -- small
  constant degree, high spatial locality.

Graphs are stored in CSR (compressed sparse row) form, the layout GAP itself
uses, because the kernels' characteristic access pattern (stream the offsets
array, stream the neighbour list, random-access the property array) follows
directly from CSR.  A graph holds only its two numpy arrays; the trace
emitters walk them through ``memoryview`` objects (see
:mod:`repro.workloads.gap`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np


@dataclass
class CSRGraph:
    """A directed graph in compressed sparse row form.

    Attributes:
        name: graph name ("urand_small", "kron_medium", ...).
        row_ptr: int64 array of size ``num_vertices + 1``.
        col_idx: int32 array of size ``num_edges`` (destination vertices).
    """

    name: str
    row_ptr: np.ndarray
    col_idx: np.ndarray

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self.row_ptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return len(self.col_idx)

    @property
    def average_degree(self) -> float:
        """Mean out-degree."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    def neighbors(self, vertex: int) -> np.ndarray:
        """Return the neighbour array of ``vertex``."""
        return self.col_idx[self.row_ptr[vertex]: self.row_ptr[vertex + 1]]

    def degree(self, vertex: int) -> int:
        """Out-degree of ``vertex``."""
        return int(self.row_ptr[vertex + 1] - self.row_ptr[vertex])

    def footprint_bytes(self) -> int:
        """Approximate CSR footprint (offsets + neighbours), in bytes."""
        return self.row_ptr.nbytes + self.col_idx.nbytes


def _edges_to_csr(
    name: str, num_vertices: int, sources: np.ndarray, destinations: np.ndarray
) -> CSRGraph:
    """Build a CSR graph from parallel source/destination arrays.

    Edges are ordered by source, keeping input order within a source, by one
    in-place sort of the int64 keys ``(source << shift) | edge_index``: the
    keys are unique, so an unstable sort yields exactly the stable order.
    """
    num_edges = len(sources)
    shift = num_edges.bit_length()
    if (num_vertices - 1).bit_length() + shift > 63:
        raise ValueError(f"{name}: {num_vertices} vertices x {num_edges} "
                         f"edges do not fit a 63-bit sort key")
    order = np.left_shift(sources, shift, dtype=np.int64)
    order |= np.arange(num_edges, dtype=np.int64)
    order.sort()
    order &= (1 << shift) - 1
    counts = np.bincount(sources, minlength=num_vertices)
    row_ptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    return CSRGraph(
        name=name,
        row_ptr=row_ptr,
        col_idx=destinations.astype(np.int32)[order],
    )


def uniform_random_graph(
    num_vertices: int = 65_536, average_degree: int = 16, seed: int = 7
) -> CSRGraph:
    """Erdos-Renyi style graph: every edge endpoint drawn uniformly.

    The endpoints are the ``rng.integers(0, num_vertices)`` draws of the
    sources, then of the destinations, taken from one raw draw: numpy
    bounds each from a uint32 (the low half of a raw word, then its high
    half) by Lemire's multiply-shift, which for a power-of-two bound
    ``2**k`` never rejects and is exactly ``u32 >> (32 - k)`` (see
    :mod:`repro.traces.synthetic`).  Other vertex counts are refused.
    """
    if num_vertices < 2 or num_vertices & (num_vertices - 1):
        raise ValueError(
            f"urand: the vertex count must be a power of two of at least 2, "
            f"got {num_vertices}"
        )
    rng = np.random.default_rng(seed)
    num_edges = num_vertices * average_degree
    # 2 * num_edges uint32 values, low half of each raw word first.
    raw = rng.bit_generator.random_raw(num_edges).astype("<u8", copy=False)
    endpoints = raw.view("<u4") >> np.uint32(33 - num_vertices.bit_length())
    return _edges_to_csr(
        "urand", num_vertices, endpoints[:num_edges], endpoints[num_edges:]
    )


def power_law_graph(
    num_vertices: int = 65_536,
    average_degree: int = 16,
    seed: int = 11,
    skew: float = 0.6,
) -> CSRGraph:
    """RMAT-style power-law graph (kron/twitter/web-like degree distribution).

    Edge endpoints are drawn with a Zipf-like bias towards low vertex ids,
    which concentrates a large fraction of the edges on a few hub vertices.
    """
    rng = np.random.default_rng(seed)
    num_edges = num_vertices * average_degree
    # Draw from a truncated Pareto and map onto vertex ids.
    raw = rng.pareto(skew, size=num_edges) + 1.0
    sources = (np.minimum(raw / raw.max(), 0.999999) * num_vertices).astype(np.int64)
    raw_dst = rng.pareto(skew, size=num_edges) + 1.0
    destinations = (
        np.minimum(raw_dst / raw_dst.max(), 0.999999) * num_vertices
    ).astype(np.int64)
    # Permute ids so hubs are scattered over the address space.
    permutation = rng.permutation(num_vertices)
    sources = permutation[sources]
    destinations = permutation[destinations]
    return _edges_to_csr("kron", num_vertices, sources, destinations)


def road_graph(side: int = 256, seed: int = 13) -> CSRGraph:
    """2D grid graph (road-network-like: degree ~4, high locality).

    Vertex ``v`` links to ``v + 1``, ``v - 1``, ``v + side`` and
    ``v - side``, in that order, where they lie on the grid; the CSR form
    follows in closed form, without an edge list.
    """
    num_vertices = side * side
    vertex = np.arange(num_vertices, dtype=np.int32)
    column = vertex % side
    candidates = np.stack(
        [vertex + 1, vertex - 1, vertex + side, vertex - side], axis=1
    )
    present = np.stack(
        [column < side - 1, column > 0,
         vertex < num_vertices - side, vertex >= side],
        axis=1,
    )
    row_ptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(present.sum(axis=1), out=row_ptr[1:])
    return CSRGraph(name="road", row_ptr=row_ptr, col_idx=candidates[present])


#: Named graph generators, mirroring the role of Table V's input graphs.
GRAPH_GENERATORS = {
    "urand": uniform_random_graph,
    "kron": power_law_graph,
    "road": road_graph,
    # Aliases with the other Table V names, mapped onto the generator whose
    # degree distribution is the closest match.
    "twitter": power_law_graph,
    "web": power_law_graph,
    "friendster": uniform_random_graph,
}

#: (name, scale, seed) -> CSRGraph memo.  Graph generation is deterministic
#: and graphs are immutable once built (the kernels only read them), so one
#: process-wide copy serves every campaign point that shares an input graph
#: -- a large share of cold campaign-point wall time otherwise.  The memo is
#: a small LRU: a memoized graph pins its two CSR arrays, 8 B per vertex
#: plus 4 B per edge (~9.4 MB for the 2.1M-edge medium urand or kron graph,
#: ~3.1 MB for the medium road graph), and a long sharded run sweeping many
#: graph scales must not grow memory without bound, so the least recently
#: used graph is evicted once the cap is reached (a campaign interleaves
#: points over only a handful of distinct graphs at a time).
_GRAPH_MEMO: OrderedDict[tuple[str, str, int], CSRGraph] = OrderedDict()
_GRAPH_MEMO_LIMIT = 6


def clear_graph_memo() -> None:
    """Drop every memoized graph (tests and cold-build measurements)."""
    _GRAPH_MEMO.clear()


def generate_graph(name: str, scale: str = "small", seed: int = 3) -> CSRGraph:
    """Generate (or reuse) a named input graph at one of three scales.

    ``scale`` controls the vertex count: "tiny" (for tests), "small"
    (default, a few MB footprint -- larger than the simulated LLC) or
    "medium".
    """
    normalized = name.lower()
    if normalized not in GRAPH_GENERATORS:
        raise ValueError(
            f"unknown graph {name!r}; choose from {sorted(GRAPH_GENERATORS)}"
        )
    sizes = {"tiny": 4_096, "small": 32_768, "medium": 131_072}
    if scale not in sizes:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(sizes)}")
    memo_key = (normalized, scale, seed)
    cached = _GRAPH_MEMO.get(memo_key)
    if cached is not None:
        _GRAPH_MEMO.move_to_end(memo_key)
        return cached
    num_vertices = sizes[scale]
    if normalized == "road":
        side = int(np.sqrt(num_vertices))
        graph = road_graph(side=side, seed=seed)
    else:
        generator = GRAPH_GENERATORS[normalized]
        graph = generator(num_vertices=num_vertices, seed=seed)
    graph.name = f"{normalized}_{scale}"
    while len(_GRAPH_MEMO) >= _GRAPH_MEMO_LIMIT:
        _GRAPH_MEMO.popitem(last=False)
    _GRAPH_MEMO[memo_key] = graph
    return graph
