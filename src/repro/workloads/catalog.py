"""Workload catalog: named single-core workloads.

The catalog mirrors the paper's workload selection methodology (Section V):

* the **GAP** suite is the cross product of the six kernels with the input
  graphs (the paper keeps the 31 combinations whose baseline LLC MPKI > 1);
* the **SPEC** suite is the set of SPEC-like synthetic workloads.

Multi-core mixes are enumerated from an experiment configuration by
:func:`repro.experiments.spec.multicore_mixes`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.traces.ingest import IMPORTED_SUITE
from repro.traces.store import TraceStore, workload_key
from repro.traces.trace import Trace
from repro.workloads.gap import GAP_KERNELS, gap_trace
from repro.workloads.spec_like import SPEC_LIKE_WORKLOADS, spec_like_trace

#: Input graphs used to build the GAP portion of the catalog (a subset of the
#: Table V names; all map onto the synthetic generators).
DEFAULT_GAP_GRAPHS = ("kron", "urand", "road")

#: GAP kernels used by default (all six of Table IV).
DEFAULT_GAP_KERNELS = tuple(GAP_KERNELS)


@dataclass(frozen=True)
class WorkloadSpec:
    """A named workload and the factory that builds its trace.

    ``gap_scale`` records the input-graph scale baked into a GAP factory so
    the workload's trace-store key distinguishes scales; non-GAP workloads
    ignore it.
    """

    name: str
    suite: str
    factory: Callable[[int], Trace]
    gap_scale: str = "medium"

    def build(self, num_memory_accesses: int = 40_000) -> Trace:
        """Build the trace with the requested memory-access budget."""
        return self.factory(num_memory_accesses)

    def store_key(self, num_memory_accesses: int) -> str:
        """Trace-store key of this workload at one budget."""
        return workload_key(self.name, num_memory_accesses, self.gap_scale)


@dataclass
class WorkloadCatalog:
    """A collection of named workloads grouped by suite."""

    workloads: dict[str, WorkloadSpec] = field(default_factory=dict)

    def add(self, spec: WorkloadSpec) -> None:
        """Register a workload (name must be unique)."""
        if spec.name in self.workloads:
            raise ValueError(f"duplicate workload name {spec.name!r}")
        self.workloads[spec.name] = spec

    def names(self, suite: str | None = None) -> list[str]:
        """Names of all workloads, optionally filtered by suite."""
        return sorted(
            name
            for name, spec in self.workloads.items()
            if suite is None or spec.suite == suite
        )

    def get(self, name: str) -> WorkloadSpec:
        """Look up a workload by name."""
        try:
            return self.workloads[name]
        except KeyError as exc:
            raise KeyError(
                f"unknown workload {name!r}; known: {sorted(self.workloads)}"
            ) from exc

    def build(
        self,
        name: str,
        num_memory_accesses: int = 40_000,
        trace_store: Optional[TraceStore] = None,
    ) -> Trace:
        """Build the trace of a named workload.

        With a ``trace_store``, the factory only runs on a store miss; hits
        (and the trace persisted by a miss) come back memory-mapped, so
        repeated builds across processes share one on-disk copy.  Imported
        workloads already live in their store and bypass the fast path.
        """
        spec = self.get(name)
        if trace_store is None or spec.suite == IMPORTED_SUITE:
            return spec.build(num_memory_accesses)
        return trace_store.get_or_build(
            spec.store_key(num_memory_accesses),
            lambda: spec.build(num_memory_accesses),
            extra={"workload": name, "budget": num_memory_accesses,
                   "gap_scale": spec.gap_scale},
        )

    def suites(self) -> list[str]:
        """Names of the suites present in the catalog."""
        return sorted({spec.suite for spec in self.workloads.values()})

    def __len__(self) -> int:
        return len(self.workloads)


def default_catalog(
    gap_kernels: tuple[str, ...] = DEFAULT_GAP_KERNELS,
    gap_graphs: tuple[str, ...] = DEFAULT_GAP_GRAPHS,
    gap_scale: str = "small",
    spec_workloads: tuple[str, ...] | None = None,
    trace_store: Optional[TraceStore] = None,
) -> WorkloadCatalog:
    """Build the default catalog (GAP kernel x graph + SPEC-like set).

    With a ``trace_store``, every trace imported into the store is also
    registered, as the ``imported`` suite.
    """
    catalog = WorkloadCatalog()
    for kernel, graph in itertools.product(gap_kernels, gap_graphs):
        name = f"{kernel}.{graph}"

        def factory(budget: int, kernel=kernel, graph=graph) -> Trace:
            return gap_trace(
                kernel,
                graph=graph,
                scale=gap_scale,
                max_memory_accesses=budget,
            )

        catalog.add(
            WorkloadSpec(
                name=name, suite="gap", factory=factory, gap_scale=gap_scale
            )
        )

    names = spec_workloads if spec_workloads is not None else tuple(SPEC_LIKE_WORKLOADS)
    for spec_name in names:

        def spec_factory(budget: int, spec_name=spec_name) -> Trace:
            return spec_like_trace(spec_name, num_memory_accesses=budget)

        catalog.add(
            WorkloadSpec(name=f"spec.{spec_name}", suite="spec", factory=spec_factory)
        )
    if trace_store is not None:
        register_imported_workloads(catalog, trace_store)
    return catalog


def register_imported_workloads(
    catalog: WorkloadCatalog, store: TraceStore
) -> list[str]:
    """Register every imported trace of ``store`` as a catalog workload.

    Imported workloads build by memory-mapping their stored trace and
    truncating it to the requested memory-access budget (a budget larger
    than the stored trace yields the whole trace).  Returns the names
    added; names already present in the catalog are skipped.
    """
    added: list[str] = []
    for workload in store.imported_workloads():
        if workload in catalog.workloads:
            continue

        def imported_factory(budget: int, workload=workload) -> Trace:
            trace = store.load_imported(workload)
            if trace is None:
                raise KeyError(
                    f"imported workload {workload!r} disappeared from the "
                    f"trace store at {store.directory}"
                )
            return trace.truncated_to_memory_accesses(budget)

        catalog.add(
            WorkloadSpec(
                name=workload, suite=IMPORTED_SUITE, factory=imported_factory
            )
        )
        added.append(workload)
    return added

