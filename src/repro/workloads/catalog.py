"""Workload catalog: the names of every generated single-core workload.

The catalog mirrors the paper's workload selection methodology (Section V):

* the **GAP** suite is the cross product of the six kernels with the input
  graphs (the paper keeps the 31 combinations whose baseline LLC MPKI > 1);
* the **SPEC** suite is the set of SPEC-like synthetic workloads.

A name turns into a trace through
:func:`repro.sim.engine.build_workload_trace`.  Multi-core mixes are
enumerated from an experiment configuration by
:func:`repro.experiments.spec.multicore_mixes`.
"""

from __future__ import annotations

from repro.workloads.gap import GAP_KERNELS
from repro.workloads.spec_like import SPEC_LIKE_WORKLOADS

#: Every catalog workload: ``<kernel>.<graph>`` for the six GAP kernels on
#: the kron, urand and road graphs, then ``spec.<name>`` for each
#: SPEC-like workload.
CATALOG_WORKLOADS: tuple[str, ...] = tuple(
    f"{kernel}.{graph}"
    for kernel in GAP_KERNELS
    for graph in ("kron", "urand", "road")
) + tuple(f"spec.{name}" for name in SPEC_LIKE_WORKLOADS)
