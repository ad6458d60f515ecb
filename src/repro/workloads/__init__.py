"""Workloads: GAP graph kernels, SPEC-like generators and the catalog."""

from repro.workloads.catalog import CATALOG_WORKLOADS
from repro.workloads.gap import GAP_KERNELS, TraceEmitter, gap_trace
from repro.workloads.graphs import CSRGraph, generate_graph, GRAPH_GENERATORS
from repro.workloads.spec_like import SPEC_LIKE_WORKLOADS, spec_like_trace

__all__ = [
    "CATALOG_WORKLOADS",
    "GAP_KERNELS",
    "TraceEmitter",
    "gap_trace",
    "CSRGraph",
    "generate_graph",
    "GRAPH_GENERATORS",
    "SPEC_LIKE_WORKLOADS",
    "spec_like_trace",
]
