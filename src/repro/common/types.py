"""Core record types shared by the trace generators, core model and caches."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class AccessKind(enum.IntEnum):
    """Kind of a trace record.

    ``NON_MEM`` records model the compute instructions between memory
    operations; they matter for the timing model (they occupy ROB slots and
    retire bandwidth) and for per-kilo-instruction metrics (MPKI, PPKI).
    """

    LOAD = 0
    STORE = 1
    NON_MEM = 2


class MemLevel(enum.IntEnum):
    """Level of the memory hierarchy where a request was served."""

    L1D = 0
    L2C = 1
    LLC = 2
    DRAM = 3


class RequestSource(enum.IntEnum):
    """Who generated a request entering the cache hierarchy."""

    DEMAND = 0
    L1D_PREFETCH = 1
    L2C_PREFETCH = 2
    SPECULATIVE_OFFCHIP = 3


@dataclass(frozen=True, slots=True)
class MemoryAccess:
    """A single record of a workload trace.

    Attributes:
        pc: program counter of the instruction (byte address).
        vaddr: virtual byte address accessed (0 for ``NON_MEM`` records).
        kind: LOAD, STORE or NON_MEM.
    """

    pc: int
    vaddr: int
    kind: AccessKind = AccessKind.LOAD

    def is_memory(self) -> bool:
        """True for loads and stores."""
        return self.kind is not AccessKind.NON_MEM


@dataclass(slots=True)
class AccessOutcome:
    """What happened to a demand access once the hierarchy resolved it.

    This is what drives both the timing model (``latency``) and the training
    of the off-chip predictors (``served_by``).

    Attributes:
        served_by: hierarchy level that provided the data.
        latency: cycles from issue to data return along the normal path.
        effective_latency: cycles actually observed by the core, accounting
            for a speculative off-chip request racing the hierarchy path.
        offchip_prediction: whether an off-chip predictor flagged this access
            as off-chip (at any confidence band).
        speculative_dram_issued: whether a speculative DRAM request was
            actually sent for this access (costing a DRAM transaction).
        prefetch_hit: whether the access hit on a block brought by a
            prefetcher that had not been used yet.
    """

    served_by: MemLevel
    latency: int
    effective_latency: int
    offchip_prediction: bool = False
    speculative_dram_issued: bool = False
    prefetch_hit: bool = False
    metadata: dict = field(default_factory=dict)
