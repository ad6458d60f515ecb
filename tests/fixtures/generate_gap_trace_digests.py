"""Regenerate ``gap_trace_digests.json``, the GAP trace parity fixture.

The fixture pins the bytes of the GAP kernel traces and of the CSR input
graphs they walk: a sha256 of the ``(pc, vaddr, kind)`` columns for every
kernel over the ``urand``, ``kron`` and ``road`` graphs at ``tiny`` scale,
a few ``medium``-scale traces, and the ``row_ptr``/``col_idx`` arrays of
the three ``medium`` graphs.  ``tests/test_traces_and_workloads.py``
regenerates every entry and compares it, so a change to graph construction
or to a kernel's walk that alters a single access is caught.

Only regenerate after an *intentional* trace generator change (the same
kind of change that bumps ``CACHE_SCHEMA_VERSION``)::

    PYTHONPATH=src python tests/fixtures/generate_gap_trace_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.workloads.gap import GAP_KERNELS, gap_trace
from repro.workloads.graphs import generate_graph

FIXTURE_PATH = Path(__file__).resolve().parent / "gap_trace_digests.json"

#: Seed shared by every entry (the ``gap_trace`` default, which also seeds
#: the input graph).
SEED = 5

#: (kernel, graph, scale, accesses) of every pinned trace.
TRACE_CASES = [
    (kernel, graph, "tiny", 2_000)
    for kernel in sorted(GAP_KERNELS)
    for graph in ("urand", "kron", "road")
] + [
    (kernel, graph, "medium", accesses)
    for kernel, graph in (("bfs", "urand"), ("cc", "road"))
    for accesses in (2_000, 12_000)
]

#: Input graphs whose CSR arrays are pinned, all at ``medium`` scale.
GRAPH_CASES = ("urand", "kron", "road")


def sha256_of(*arrays) -> str:
    """sha256 over the raw bytes of ``arrays``, in order."""
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array.tobytes())
    return digest.hexdigest()


def generate() -> dict:
    """Build every pinned trace and graph and collect their digests."""
    traces = {}
    for kernel, graph, scale, accesses in TRACE_CASES:
        trace = gap_trace(kernel, graph, scale=scale,
                          max_memory_accesses=accesses, seed=SEED)
        traces[f"{kernel}.{graph}.{scale}.{accesses}"] = {
            "kernel": kernel, "graph": graph, "scale": scale,
            "accesses": accesses, "seed": SEED,
            "sha256": sha256_of(*trace.columns()),
        }
    graphs = {}
    for name in GRAPH_CASES:
        csr = generate_graph(name, scale="medium", seed=SEED)
        graphs[csr.name] = {
            "graph": name, "scale": "medium", "seed": SEED,
            "row_ptr": sha256_of(csr.row_ptr),
            "col_idx": sha256_of(csr.col_idx),
        }
    return {"traces": traces, "graphs": graphs}


def main() -> int:
    payload = generate()
    FIXTURE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE_PATH} ({len(payload['traces'])} traces, "
          f"{len(payload['graphs'])} graphs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
