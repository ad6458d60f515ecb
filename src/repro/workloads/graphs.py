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
directly from CSR.  The trace emitters walk the two arrays through
``memoryview`` objects (see :mod:`repro.workloads.gap`); ``urand`` and
``kron`` fill the ``col_idx`` rows a trace reads on demand.  Building a
graph and filling a few of its rows makes no temporary the size of the
edge list: the generators transform their draws in place, and a fill
selects its rows' edges one cache-sized chunk of sources at a time.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

#: Sources a fill's selection pass reads per step: its temporaries (64 KiB
#: of flags, at most 512 KiB of edge indices) stay cache-sized whatever the
#: graph's size.
_FILL_CHUNK = 65_536


class CSRGraph:
    """A directed graph in compressed sparse row form.

    Attributes:
        name: graph name ("urand_small", "kron_medium", ...).
        row_ptr: int64 array of size ``num_vertices + 1``.
        col_idx: int32 array of size ``num_edges`` (destination vertices);
            reading it (or pickling) first fills any rows :meth:`fill` left.
    """

    def __init__(self, name: str, row_ptr, col_idx, pending=None) -> None:
        self.name, self.row_ptr, self._col_idx = name, row_ptr, col_idx
        #: (sources, destinations, key shift, lengths of the unfilled rows).
        self._pending: tuple | None = pending

    def __reduce__(self):
        return CSRGraph, (self.name, self.row_ptr, self.col_idx)

    @property
    def col_idx(self) -> np.ndarray:
        """The complete neighbour array (fills every unfilled row first)."""
        if self._pending is not None:
            self.fill(np.flatnonzero(self._pending[3]))
        return self._col_idx

    def views(self) -> tuple[memoryview, memoryview]:
        """``row_ptr`` and ``col_idx`` as memoryviews (fills write in place)."""
        return memoryview(self.row_ptr), memoryview(self._col_idx)

    def fill(self, vertices) -> None:
        """Fill the ``col_idx`` rows of ``vertices``: one pass over the sources,
        :data:`_FILL_CHUNK` at a time, selects their edges, sorted by the
        unique keys ``(source << shift) | edge_index``; rows holding most
        edges fill every row, with no pass.  A fill of a few rows allocates
        only vertex-sized arrays, one chunk's temporaries and one key per
        selected edge."""
        if self._pending is None:
            return
        sources, destinations, shift, unfilled = self._pending
        vertices = np.asarray(vertices, dtype=np.int64)
        vertices = vertices[unfilled[vertices] > 0]
        if not len(vertices):
            return
        wanted = np.zeros(len(unfilled), dtype=bool)
        wanted[vertices] = True
        rows = np.flatnonzero(wanted)
        lengths = unfilled[rows]
        if 2 * lengths.sum() > len(sources):
            unfilled[:] = 0
            order = np.left_shift(sources, shift, dtype=np.int64)
            order |= np.arange(len(sources))
            positions = slice(None)
        else:
            unfilled[rows] = 0
            order = np.empty(lengths.sum(), dtype=np.int64)
            end = 0
            for start in range(0, len(sources), _FILL_CHUNK):
                chunk = sources[start:start + _FILL_CHUNK]
                edges = np.flatnonzero(np.take(wanted, chunk))
                keys = order[end:end + len(edges)]
                np.left_shift(chunk[edges], shift, out=keys, dtype=np.int64)
                edges += start
                keys |= edges
                end += len(edges)
            positions = np.repeat(self.row_ptr[rows] - (np.cumsum(lengths) - lengths), lengths)
            positions += np.arange(len(order))
        order.sort()
        order &= (1 << shift) - 1
        self._col_idx[positions] = destinations[order]
        if not unfilled.any():
            self._pending = None

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self.row_ptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return len(self._col_idx)

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
        return self.row_ptr.nbytes + self._col_idx.nbytes


def _edges_to_csr(
    name: str, num_vertices: int, sources: np.ndarray, destinations: np.ndarray
) -> CSRGraph:
    """A CSR graph over parallel source/destination arrays, rows unfilled:
    ``row_ptr`` is one ``bincount`` of the sources, and each row keeps its
    edges in input order (see :meth:`CSRGraph.fill`)."""
    num_edges = len(sources)
    shift = num_edges.bit_length()
    if (num_vertices - 1).bit_length() + shift > 63:
        raise ValueError(f"{name}: {num_vertices} vertices x {num_edges} "
                         f"edges do not fit a 63-bit sort key")
    counts = np.bincount(sources, minlength=num_vertices)
    row_ptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    pending = (sources, destinations, shift, counts)
    return CSRGraph(name, row_ptr, np.empty(num_edges, dtype=np.int32), pending)


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
    # 2 * num_edges uint32 values, low half of each raw word first, bounded
    # in place: the graph's endpoint columns are views of the one draw.
    raw = rng.bit_generator.random_raw(num_edges).astype("<u8", copy=False)
    endpoints = raw.view("<u4")
    np.right_shift(endpoints, np.uint32(33 - num_vertices.bit_length()), out=endpoints)
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

    def endpoints() -> np.ndarray:
        # Draw from a truncated Pareto and map onto vertex ids, in place.
        raw = rng.pareto(skew, size=num_edges)
        raw += 1.0
        raw /= raw.max()
        np.minimum(raw, 0.999999, out=raw)
        raw *= num_vertices
        return raw.astype(np.int64)

    sources = endpoints()
    destinations = endpoints()
    # Permute ids so hubs are scattered over the address space.
    permutation = rng.permutation(num_vertices).astype(np.int32)
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
    return CSRGraph("road", row_ptr, candidates[present])


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
#: and graphs are immutable once built (a fill writes only unread rows), so
#: one process-wide copy serves every campaign point that shares an input
#: graph.  The memo is a small LRU: a memoized graph pins its two CSR
#: arrays, 8 B per vertex plus 4 B per edge (~9.4 MB for medium urand or
#: kron, ~3.1 MB for medium road), and until it is complete its endpoint
#: columns too, 8 B per edge (~16.8 MB; only filled ``col_idx`` pages are
#: resident), so the least recently used graph is evicted at the cap (a
#: campaign interleaves points over only a handful of graphs at a time).
#: Building one adds little transient memory on top: a medium ``urand``
#: build plus a few small fills peaks about 7 MB above what it keeps.
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
