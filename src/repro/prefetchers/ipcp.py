"""IPCP: Instruction Pointer Classification-based Prefetcher (ISCA 2020).

IPCP is one of the two L1D prefetchers used in the paper's evaluation.  It
classifies load PCs into three classes and uses a dedicated prefetch strategy
for each:

* **CS (constant stride)**: the PC repeatedly accesses blocks a constant
  stride apart; prefetch ``cs_degree`` strides ahead.
* **CPLX (complex)**: the PC's stride pattern is irregular but predictable
  from the recent *signature* of strides; a signature-indexed table predicts
  the next stride.
* **GS (global stream)**: the access stream is dense within a region
  irrespective of PC; prefetch aggressively along the stream direction.

IPCP is deliberately aggressive (the paper measures hundreds of prefetches
per kilo-instruction for some workloads, Figure 5a), with accuracy left to
downstream filters -- which is exactly the property TLP's SLP exploits.

State layout
------------

Every table is flat and shared in place with the batch simulator core's
compiled kernel (``repro/sim/_fused.c``), which runs its own port of
:meth:`_step`, bit-identical.  The IP and CPLX tables live in preallocated
flat ``int64`` arrays indexed through :class:`memoryview` rows (the
:class:`HashedPerceptron` pattern): subscripts return plain Python ints, so
the scalar update loop stays cheap, while the arrays clear in place on
:meth:`reset` keeping every row alias valid.  The region tracker is a
:class:`FifoTable` of ``region_entries`` pages, ``_regions``, with typed
payload arrays by slot: the touched-block bitmask (``bit_count()`` is the
density popcount), the last offset (-1: none yet) and the stream
direction.

The prefetch logic itself is factored into :meth:`_step`, which works on
``(key, block, page, offset)`` and returns raw target virtual addresses with
the class that produced them; :meth:`on_demand_access` wraps those in
:class:`PrefetchRequest` objects.  This is the scalar reference path.
"""

from __future__ import annotations

from array import array

from repro.common.addresses import PAGE_BITS
from repro.common.counters import Counters
from repro.prefetchers.base import (
    FifoTable,
    L1DPrefetcher,
    PrefetchRequest,
    check_table_sizes,
)

_BLOCKS_PER_PAGE = 1 << (PAGE_BITS - 6)

#: Per-class request confidence of the original implementation.
_CLASS_CONFIDENCE = {"cs": 0.9, "gs": 0.6, "cplx": 0.5, "nl": 0.3}

#: The classes ``class_counts`` counts.  They are IPCP's only counters, so
#: a class's slot is its index here.
CLASSES = ("cs", "cplx", "gs", "nl", "none")
_CS, _CPLX, _GS, _NL, _NONE = range(len(CLASSES))


class IPCPPrefetcher(L1DPrefetcher, Counters, fields=(("class_counts", CLASSES),)):
    """Instruction pointer classifier prefetcher (CS / CPLX / GS classes)."""

    name = "ipcp"

    def __init__(
        self,
        ip_table_entries: int = 1024,
        cplx_table_entries: int = 4096,
        region_entries: int = 64,
        cs_degree: int = 4,
        cplx_degree: int = 3,
        gs_degree: int = 6,
        nl_degree: int = 1,
        cs_confidence_threshold: int = 2,
        gs_density_threshold: float = 0.30,
    ) -> None:
        check_table_sizes(
            "IPCP", ip_table_entries=ip_table_entries,
            cplx_table_entries=cplx_table_entries, region_entries=region_entries,
        )
        self.ip_table_entries = ip_table_entries
        self.cplx_table_entries = cplx_table_entries
        self.region_entries = region_entries
        self.cs_degree = cs_degree
        self.cplx_degree = cplx_degree
        self.gs_degree = gs_degree
        self.nl_degree = nl_degree
        self.cs_confidence_threshold = cs_confidence_threshold
        self.gs_density_threshold = gs_density_threshold
        # IP table: four flat rows (last block, last stride, stride
        # confidence, signature).  last_block == -1 is the "never seen"
        # sentinel (block addresses are non-negative), replacing the old
        # per-entry valid flag.
        n = ip_table_entries
        self._ip_buf = array("q", [-1]) * n + array("q", [0]) * (3 * n)
        buf = memoryview(self._ip_buf)
        self._ip_last = buf[0 * n:1 * n]
        self._ip_stride = buf[1 * n:2 * n]
        self._ip_conf = buf[2 * n:3 * n]
        self._ip_sig = buf[3 * n:4 * n]
        # CPLX table: signature -> (predicted stride, confidence).
        # confidence == 0 means "never trained" (trained entries always
        # store confidence >= 1).
        m = cplx_table_entries
        self._cplx_buf = array("q", [0]) * (2 * m)
        cbuf = memoryview(self._cplx_buf)
        self._cplx_stride = cbuf[0 * m:1 * m]
        self._cplx_conf = cbuf[1 * m:2 * m]
        self._clear_regions()
        Counters.__init__(self)

    # ------------------------------------------------------------------
    # Main hook (scalar reference path)
    # ------------------------------------------------------------------
    def on_demand_access(
        self, pc: int, vaddr: int, hit: bool, cycle: int
    ) -> list[PrefetchRequest]:
        block = vaddr >> 6
        targets, cls = self._step(
            pc % self.ip_table_entries,
            block,
            vaddr >> PAGE_BITS,
            block & (_BLOCKS_PER_PAGE - 1),
            hit,
        )
        if not targets:
            return []
        confidence = _CLASS_CONFIDENCE[cls]
        return [
            PrefetchRequest(
                vaddr=target,
                trigger_pc=pc,
                trigger_vaddr=vaddr,
                confidence=confidence,
                metadata={"class": cls},
            )
            for target in targets
        ]

    # ------------------------------------------------------------------
    # The order-dependent kernel
    # ------------------------------------------------------------------
    def _step(
        self, key: int, block: int, page: int, offset: int, hit: bool
    ) -> tuple[list[int] | None, str | None]:
        """One access: region tracking, classification, training.

        Returns the list of prefetch target *virtual addresses* (empty/None
        when no class fired) and the name of the class that produced them.
        """
        # Region (global stream) tracking -- always runs first.
        touched, direction = self._track_region(page, offset)

        cls = None
        ip_last = self._ip_last
        last_block = ip_last[key]
        targets: list[int] | None = None
        if last_block >= 0:
            stride = block - last_block
            if stride:
                ip_stride = self._ip_stride
                ip_conf = self._ip_conf
                ip_sig = self._ip_sig
                last_stride = ip_stride[key]
                confidence = ip_conf[key]
                signature = ip_sig[key]
                m = self.cplx_table_entries
                cplx_stride = self._cplx_stride
                cplx_conf = self._cplx_conf
                counts = self.counts

                # -- classification (CS -> GS -> CPLX -> none) --
                if (
                    stride == last_stride
                    and confidence >= self.cs_confidence_threshold
                ):
                    counts[_CS] += 1
                    cls = "cs"
                    targets = []
                    append = targets.append
                    target_block = block
                    for _ in range(self.cs_degree):
                        target_block += stride
                        if target_block > 0:
                            append(target_block << 6)
                else:
                    density = touched.bit_count() / _BLOCKS_PER_PAGE
                    if density >= self.gs_density_threshold:
                        counts[_GS] += 1
                        cls = "gs"
                        targets = []
                        append = targets.append
                        target_block = block
                        for _ in range(self.gs_degree):
                            target_block += direction
                            if target_block > 0:
                                append(target_block << 6)
                    elif cplx_conf[signature % m] >= 2:
                        counts[_CPLX] += 1
                        cls = "cplx"
                        targets = []
                        append = targets.append
                        chained_block = block
                        chained_signature = signature
                        for _ in range(self.cplx_degree):
                            ckey = chained_signature % m
                            if cplx_conf[ckey] < 2:
                                break
                            chained_stride = cplx_stride[ckey]
                            chained_block += chained_stride
                            if chained_block <= 0:
                                break
                            append(chained_block << 6)
                            chained_signature = (
                                (chained_signature << 3)
                                ^ (chained_stride & 0x3F)
                            ) & 0xFFF
                    else:
                        counts[_NONE] += 1

                # -- training / bookkeeping --
                if stride == last_stride:
                    if confidence < 3:
                        ip_conf[key] = confidence + 1
                elif confidence > 0:
                    ip_conf[key] = confidence - 1
                # Update the CPLX table with the stride that followed the
                # previous signature, then advance the signature.
                tkey = signature % m
                tconf = cplx_conf[tkey]
                if tconf == 0:
                    cplx_stride[tkey] = stride
                    cplx_conf[tkey] = 1
                elif cplx_stride[tkey] != stride:
                    tconf -= 1
                    if tconf == 0:
                        cplx_stride[tkey] = stride
                        cplx_conf[tkey] = 1
                    else:
                        cplx_conf[tkey] = tconf
                elif tconf < 3:
                    cplx_conf[tkey] = tconf + 1
                ip_sig[key] = ((signature << 3) ^ (stride & 0x3F)) & 0xFFF
                ip_stride[key] = stride

        if not targets and not hit:
            # NL class: when no other class produces candidates, a miss falls
            # back to next-line prefetching.  This fallback is what makes
            # IPCP an aggressive prefetcher with a long inaccurate tail
            # (Figure 5a of the paper).
            self.counts[_NL] += 1
            cls = "nl"
            targets = []
            target_block = block
            for _ in range(self.nl_degree):
                target_block += 1
                targets.append(target_block << 6)

        ip_last[key] = block
        return targets, cls

    def _track_region(self, page: int, offset: int) -> tuple[int, int]:
        """Record an access at block ``offset`` of ``page`` in the region
        FIFO; returns the region's touched-block mask and stream direction."""
        slot = self._regions.find(page)
        if slot < 0:
            slot = self._regions.insert(page)
            self._region_touched[slot] = 0
            self._region_offset[slot] = -1
            self._region_direction[slot] = 1
        last_offset = self._region_offset[slot]
        direction = self._region_direction[slot]
        if last_offset >= 0 and offset != last_offset:
            direction = 1 if offset > last_offset else -1
            self._region_direction[slot] = direction
        self._region_offset[slot] = offset
        touched = self._region_touched[slot] | (1 << offset)
        self._region_touched[slot] = touched
        return touched, direction

    def reset(self) -> None:
        n = self.ip_table_entries
        self._ip_buf[:] = array("q", [-1]) * n + array("q", [0]) * (3 * n)
        self._cplx_buf[:] = array("q", [0]) * len(self._cplx_buf)
        self._clear_regions()
        self.zero()

    def _clear_regions(self) -> None:
        """An empty region FIFO (see the module docstring)."""
        r = self.region_entries
        self._regions = FifoTable(r)
        self._region_touched = array("Q", [0]) * r
        self._region_offset = array("b", [-1]) * r
        self._region_direction = array("b", [1]) * r
