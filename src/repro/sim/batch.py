"""Batch simulator core: a compiled fused access kernel, bit-identical to
the scalar path.

The scalar reference path steps one trace record at a time through
:meth:`repro.cpu.core.CoreRunner.run_trace`, calling
:meth:`repro.memory.hierarchy.MemoryHierarchy.demand_access` per memory
record.  The batch core runs the same steps for a whole trace in C
(``_fused.c``, a CPython extension):

1. **History replay in the kernel** -- at each demand access the kernel
   computes the off-chip predictor's five Table I feature values (the
   page-buffer first-access bit, the PC/offset XORs and the last-PC hash)
   and their Jenkins/folded-XOR weight-table indices from the predictor's
   :class:`FeatureHistory`, then observes the access, exactly as
   ``context()``/``observe()`` do.  SLP's history runs on the same C
   helper over its prefetch candidates.

2. **Compiled fused loop** -- core dispatch/ROB timing, page translation
   (a page fault allocates its frame in C), the L1D->L2C->LLC->DRAM walk
   with its LRU updates, fills and evictions, speculative and prefetch DRAM
   requests, the perceptron weight sums and saturating training, the
   L1D/L2C prefetch issue paths and the order-dependent kernels of stock
   IPCP or Berti, SPP, PPF and SLP.  It updates in place the very state the
   scalar reference uses, in the same order with the same arithmetic: the
   flat arrays of each :class:`Cache`, DRAM ``_busy_until``, every
   component's tables (IPCP's IP/CPLX tables and region FIFO, Berti's
   rows, SPP's signature FIFO and pattern table, the perceptron weights),
   the page buffers and PC histories of the feature histories and every
   counter (the ``counts`` array of each stats object and component, see
   :mod:`repro.common.counters`), all through the buffer protocol, and the
   page table's mapping as Python objects.  No component state is copied in
   or written back (only the core runner's timing state and the off-chip
   predictor's last prediction are, at the end of the trace); the kernel
   keeps just private lookup indexes over the shared FIFO and LRU keys,
   built when a stepper is built.  PPF training on prefetch use and L2C
   eviction stays a Python call.

3. **Phases, scheduling and the one core per run** -- :func:`run_phase`
   runs one warm-up or measured phase of one core, on the kernel's per-core
   stepper (:func:`fused_core_stepper`) or on the scalar reference's
   ``CoreRunner.run_trace``; both drivers run every single-core phase and
   every mix warm-up through it.  A mix's measured phases interleave their
   cores in the kernel's ``run_mix`` (:mod:`repro.sim.multi_core`).  A run
   is all kernel or all scalar (:func:`use_kernel`): the kernel models stock
   :class:`MemoryHierarchy`/:class:`Cache`, a Null or FLP off-chip
   predictor over the Table I feature set (Hermes is FLP without selective
   delay), and stock IPCP or Berti, SPP, PPF and SLP, each owned by one
   core; FLP, SLP and PPF each score through a stock
   :class:`HashedPerceptron`.  Any other hierarchy raises
   :class:`ValueError` on the batch core, naming the component
   (:func:`batch_unsupported_reason`); it runs with ``sim_core="scalar"``.
   Without the compiled kernel every run goes scalar, with the reason
   ``native kernel unavailable: <why>`` logged once per process and
   emitted as a ``sim.batch.fallback`` observability event.

The kernel is compiled with the installed C compiler on first use (never
at import) into ``repro/sim/__pycache__/_fused-<key><EXT_SUFFIX>``, keyed by
the C source, interpreter ABI and compiler flags; delete that file to force
a rebuild (:mod:`repro.sim.native`).  The batch core is the default
(``SystemConfig.sim_core == "batch"``); ``"scalar"`` runs every phase on the
reference path, which the batch-vs-scalar equivalence suite pins the kernel
to.  The core is chosen once per run and runs every phase of every core.
"""

from __future__ import annotations

import logging
from typing import Optional

import numpy as np

from repro.core.flp import FirstLevelPerceptron
from repro.core.slp import SecondLevelPerceptron
from repro.cpu.core import CoreRunner
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs import tracer as obs_tracer
from repro.predictors.base import NullOffChipPredictor
from repro.predictors.features import FeatureHistory
from repro.predictors.perceptron import HashedPerceptron
from repro.prefetchers.berti import BertiPrefetcher
from repro.prefetchers.ipcp import IPCPPrefetcher
from repro.prefetchers.ppf import PerceptronPrefetchFilter
from repro.prefetchers.spp import SPPPrefetcher
from repro.sim import native
from repro.traces.trace import KIND_NON_MEM

_LOG = logging.getLogger("repro.sim.batch")

#: Feature layout the kernel's feature history computes (Table I order).
_LEGACY_FEATURE_NAMES = (
    "pc_xor_cacheline_offset",
    "pc_xor_byte_offset",
    "pc_plus_first_access",
    "offset_plus_first_access",
    "last_four_load_pcs",
)

#: SLP's features: Table I plus the leveling feature.
_SLP_FEATURE_NAMES = _LEGACY_FEATURE_NAMES + ("flp_prediction_plus_offset",)

_PK_NULL = 0
_PK_FLP = 1

#: The L1D prefetcher kernel the compiled loop runs, by prefetcher type.
_PREFETCH_KINDS = {type(None): 0, IPCPPrefetcher: 1, BertiPrefetcher: 2}

#: (label, hierarchy attribute, modelled types) of each prefetch-path
#: component.
_PREFETCH_PATH = (
    ("L1D prefetcher", "l1d_prefetcher", (IPCPPrefetcher, BertiPrefetcher)),
    ("L2 prefetcher", "l2_prefetcher", (SPPPrefetcher,)),
    ("L2 prefetch filter", "l2_prefetch_filter", (PerceptronPrefetchFilter,)),
    ("L1D prefetch filter", "l1d_prefetch_filter", (SecondLevelPerceptron,)),
)

#: Per-core components of a hierarchy.  While a core runs, the kernel keeps
#: private state beside theirs (lookup indexes over the FIFO and LRU keys,
#: the page table's frame cache, the off-chip predictor's last prediction),
#: so a mix's cores must not share them.
_PRIVATE_COMPONENTS = (
    "l1d", "l2c", "page_table", "offchip_predictor", "l1d_prefetcher",
    "l2_prefetcher", "l1d_prefetch_filter", "l2_prefetch_filter",
)


def _feature_set_reason(label: str, perceptron, history, names) -> Optional[str]:
    """Why a Table I perceptron is not the one the kernel models, or None."""
    if type(perceptron) is not HashedPerceptron:
        return f"{label}: perceptron subclass {type(perceptron).__name__}"
    if tuple(spec.name for spec in perceptron.features) != names:
        return f"{label}: non-standard feature set"
    if type(history) is not FeatureHistory:
        return f"{label}: feature history subclass {type(history).__name__}"
    return None


def _prefetch_path_reason(hierarchy: MemoryHierarchy) -> Optional[str]:
    """Why a prefetcher or filter is not one the kernel models, or None.

    The kernel runs stock IPCP or Berti, SPP, PPF and SLP itself (their
    constructors refuse empty tables); a subclass is never assumed to
    behave like its base.
    """
    for label, name, modelled in _PREFETCH_PATH:
        component = getattr(hierarchy, name)
        if component is not None and type(component) not in modelled:
            return f"unmodelled {label} {type(component).__name__}"
    ppf = hierarchy.l2_prefetch_filter
    if ppf is not None and type(ppf.perceptron) is not HashedPerceptron:
        return f"PPF: perceptron subclass {type(ppf.perceptron).__name__}"
    slp = hierarchy.l1d_prefetch_filter
    if slp is None:
        return None
    return _feature_set_reason("SLP", slp.perceptron, slp.history, _SLP_FEATURE_NAMES)


def _model_reason(hierarchy: MemoryHierarchy) -> Optional[str]:
    """Why the kernel does not model ``hierarchy``, or None when it does."""
    if type(hierarchy) is not MemoryHierarchy:
        return f"hierarchy subclass {type(hierarchy).__name__}"
    for cache in (hierarchy.l1d, hierarchy.l2c, hierarchy.llc):
        # The fused loop inlines Cache.lookup/fill over the flat LRU state.
        if type(cache) is not Cache:
            return (
                f"{cache.name}: unmodelled cache shape"
                f" ({type(cache).__name__})"
            )
    predictor = hierarchy.offchip_predictor
    if type(predictor) is FirstLevelPerceptron:
        reason = _feature_set_reason(
            f"off-chip predictor {type(predictor).__name__}",
            predictor.perceptron, predictor.history, _LEGACY_FEATURE_NAMES,
        )
        if reason is not None:
            return reason
    elif type(predictor) is not NullOffChipPredictor:
        return f"unmodelled off-chip predictor {type(predictor).__name__}"
    return _prefetch_path_reason(hierarchy)


def batch_unsupported_reason(hierarchy: MemoryHierarchy) -> Optional[str]:
    """Why ``hierarchy`` cannot run fused, or None when it can.

    The reason names the offending component, or reads ``native kernel
    unavailable: <why>`` when the kernel cannot run in this process.
    """
    return _model_reason(hierarchy) or native_unavailable_reason()


def _shared_component_reason(
    hierarchies: list[MemoryHierarchy],
) -> Optional[str]:
    """Why a mix's cores cannot run fused side by side, or None.

    Each fused core keeps private lookup indexes beside its components'
    state, which another core's updates would leave stale.
    """
    owners: dict[int, tuple[int, str]] = {}
    for core_id, hierarchy in enumerate(hierarchies):
        for name in _PRIVATE_COMPONENTS:
            component = getattr(hierarchy, name)
            if component is None:
                continue
            owner, owner_name = owners.setdefault(id(component), (core_id, name))
            if owner != core_id:
                return f"core {core_id}: shares {name} with core {owner}"
    return None


def use_kernel(sim_core: str, hierarchies: list[MemoryHierarchy]) -> bool:
    """Whether a run over ``hierarchies`` (one per core) steps the kernel.

    ``sim_core="scalar"`` runs the scalar reference.  On the batch core a
    hierarchy the kernel does not model raises :class:`ValueError` naming
    the component; without the compiled kernel the whole run goes scalar
    and a ``sim.batch.fallback`` event says why.
    """
    if sim_core != "batch":
        return False
    for core_id, hierarchy in enumerate(hierarchies):
        reason = _model_reason(hierarchy)
        if reason is not None:
            if len(hierarchies) > 1:
                reason = f"core {core_id}: {reason}"
            break
    else:
        reason = _shared_component_reason(hierarchies)
    if reason is not None:
        raise ValueError(
            f"{reason}: the batch core does not model it; pass "
            f'core="scalar" to run it on the scalar reference'
        )
    reason = native_unavailable_reason()
    if reason is not None:
        _note_scalar_fallback(reason)
    return reason is None


def native_unavailable_reason() -> Optional[str]:
    """Why the compiled kernel cannot run in this process, or None.

    The first call builds or loads the kernel (see :mod:`repro.sim.native`).
    """
    reason = native.unavailable_reason()
    return None if reason is None else f"native kernel unavailable: {reason}"


#: Fallback reasons already warned about (once per reason per process; the
#: obs event still fires on every fallback so campaigns can count them).
_FALLBACK_LOGGED: set[str] = set()


def _note_scalar_fallback(reason: str) -> None:
    obs_tracer.event("sim.batch.fallback", reason=reason)
    if reason not in _FALLBACK_LOGGED:
        _FALLBACK_LOGGED.add(reason)
        _LOG.warning(
            "batch core fell back to the scalar reference path: %s", reason
        )


def fused_core_stepper(
    runner: CoreRunner, trace, hierarchy: MemoryHierarchy,
    sample_hook=None, sample_interval: Optional[int] = None,
):
    """The compiled kernel's per-core stepper (supported hierarchies only).

    Its ``run()`` runs the whole trace; the kernel's ``run_mix`` instead
    pauses it before each load/store, so the shared LLC/DRAM is touched in
    (dispatch cycle, core id) order.  Runner state is written back at the
    end.  ``sample_hook(accesses, instructions, cycles)``, given with a
    positive ``sample_interval``, runs right after every
    ``sample_interval``-th load/store.
    """
    pc_col, vaddr_col, kind_col = trace.columns()
    predictor_kind = (
        _PK_NULL if type(hierarchy.offchip_predictor) is NullOffChipPredictor else _PK_FLP
    )
    return native.kernel().Stepper(
        runner, hierarchy, pc_col, vaddr_col, kind_col, KIND_NON_MEM,
        predictor_kind, _PREFETCH_KINDS[type(hierarchy.l1d_prefetcher)],
        sample_hook, sample_interval or 0,
    )


def run_phase(
    runner: CoreRunner,
    trace,
    hierarchy: MemoryHierarchy,
    fused: bool,
    sample_hook=None,
    sample_interval: Optional[int] = None,
) -> None:
    """Step one phase (warm-up or measured) of ``trace`` through ``runner``.

    ``fused`` runs the compiled kernel (the caller has checked
    :func:`use_kernel`); otherwise the scalar reference's
    ``runner.run_trace`` runs, with the runner's memory callback bound to
    ``hierarchy.demand_access``.  Both leave the runner and the hierarchy in
    the same state.

    ``sample_hook(accesses, instructions, cycles)``, given with a positive
    ``sample_interval``, reads the cumulative state of the phase just after
    every ``sample_interval``-th load/store: the scalar path cuts the trace
    there and the kernel calls the hook there, so both cores sample the same
    states.  Cutting is result-invariant, so sampling never changes metrics.
    """
    if fused:
        fused_core_stepper(
            runner, trace, hierarchy, sample_hook, sample_interval,
        ).run()
        return
    if sample_hook is None or not sample_interval:
        runner.run_trace(trace)
        return
    _, _, kinds = trace.columns()
    accesses = np.flatnonzero(kinds != KIND_NON_MEM)
    cuts = (accesses[sample_interval - 1 :: sample_interval] + 1).tolist()
    start = 0
    for count, cut in enumerate(cuts, 1):
        runner.run_trace(trace[start:cut])
        start = cut
        sample_hook(count * sample_interval, runner.instructions, runner.done_cycles)
    runner.run_trace(trace[start:])
