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

The IP and CPLX tables live in preallocated flat numpy ``int64`` buffers
indexed through :class:`memoryview` rows (the :class:`HashedPerceptron`
pattern): subscripts return plain Python ints, so the scalar update loop
stays cheap, while the buffers zero in place on :meth:`reset` keeping every
row alias valid.  The per-page region tracker packs the touched-block set
into one Python int bitmask (``bit_count()`` is the density popcount).

The prefetch logic itself is factored into :meth:`_step`, which works on
``(key, block, page, offset)`` and returns raw target virtual addresses;
:meth:`on_demand_access` wraps those in :class:`PrefetchRequest` objects.
This is the scalar reference path.  The batch simulator core runs its own
port of :meth:`_step` in ``repro/sim/_fused.c`` over the same ``_ip_buf``/
``_cplx_buf`` tables and a flat copy of the region FIFO, bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.common.addresses import PAGE_BITS
from repro.prefetchers.base import L1DPrefetcher, PrefetchRequest

_BLOCKS_PER_PAGE = 1 << (PAGE_BITS - 6)

#: Per-class request confidence of the original implementation.
_CLASS_CONFIDENCE = {"cs": 0.9, "gs": 0.6, "cplx": 0.5, "nl": 0.3}


class IPCPPrefetcher(L1DPrefetcher):
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
        self._ip_buf = np.zeros(4 * n, dtype=np.int64)
        self._ip_buf[:n] = -1
        buf = memoryview(self._ip_buf)
        self._ip_last = buf[0 * n:1 * n]
        self._ip_stride = buf[1 * n:2 * n]
        self._ip_conf = buf[2 * n:3 * n]
        self._ip_sig = buf[3 * n:4 * n]
        # CPLX table: signature -> (predicted stride, confidence).
        # confidence == 0 means "never trained" (trained entries always
        # store confidence >= 1).
        m = cplx_table_entries
        self._cplx_buf = np.zeros(2 * m, dtype=np.int64)
        cbuf = memoryview(self._cplx_buf)
        self._cplx_stride = cbuf[0 * m:1 * m]
        self._cplx_conf = cbuf[1 * m:2 * m]
        # Region tracker: page -> [touched bitmask, last offset, direction].
        self._regions: dict[int, list[int]] = {}
        self._region_order: list[int] = []
        self.class_counts = {"cs": 0, "cplx": 0, "gs": 0, "nl": 0, "none": 0}
        #: Class/confidence of the most recent _step() that produced targets
        #: (consumed by the on_demand_access wrapper only).
        self._last_class = "none"

    # ------------------------------------------------------------------
    # Main hook (scalar reference path)
    # ------------------------------------------------------------------
    def on_demand_access(
        self, pc: int, vaddr: int, hit: bool, cycle: int
    ) -> list[PrefetchRequest]:
        block = vaddr >> 6
        targets = self._step(
            pc % self.ip_table_entries,
            block,
            vaddr >> PAGE_BITS,
            block & (_BLOCKS_PER_PAGE - 1),
            hit,
        )
        if not targets:
            return []
        cls = self._last_class
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
    ) -> list[int] | None:
        """One access: region tracking, classification, training.

        Returns the list of prefetch target *virtual addresses* (empty/None
        when no class fired), with ``self._last_class`` naming the class
        that produced them.
        """
        # Region (global stream) tracking -- always runs first.
        regions = self._regions
        region = regions.get(page)
        if region is None:
            region = regions[page] = [0, -1, 1]
            order = self._region_order
            order.append(page)
            if len(order) > self.region_entries:
                regions.pop(order.pop(0), None)
        last_offset = region[1]
        if last_offset >= 0 and offset != last_offset:
            region[2] = 1 if offset > last_offset else -1
        region[1] = offset
        region[0] |= 1 << offset

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
                class_counts = self.class_counts

                # -- classification (CS -> GS -> CPLX -> none) --
                if (
                    stride == last_stride
                    and confidence >= self.cs_confidence_threshold
                ):
                    class_counts["cs"] += 1
                    self._last_class = "cs"
                    targets = []
                    append = targets.append
                    target_block = block
                    for _ in range(self.cs_degree):
                        target_block += stride
                        if target_block > 0:
                            append(target_block << 6)
                else:
                    density = region[0].bit_count() / _BLOCKS_PER_PAGE
                    if density >= self.gs_density_threshold:
                        class_counts["gs"] += 1
                        self._last_class = "gs"
                        targets = []
                        append = targets.append
                        direction = region[2]
                        target_block = block
                        for _ in range(self.gs_degree):
                            target_block += direction
                            if target_block > 0:
                                append(target_block << 6)
                    elif cplx_conf[signature % m] >= 2:
                        class_counts["cplx"] += 1
                        self._last_class = "cplx"
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
                        class_counts["none"] += 1

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
            self.class_counts["nl"] += 1
            self._last_class = "nl"
            targets = []
            target_block = block
            for _ in range(self.nl_degree):
                target_block += 1
                targets.append(target_block << 6)

        ip_last[key] = block
        return targets

    def reset(self) -> None:
        n = self.ip_table_entries
        self._ip_buf[:] = 0
        self._ip_buf[:n] = -1
        self._cplx_buf[:] = 0
        self._regions.clear()
        self._region_order.clear()
        self.class_counts = {"cs": 0, "cplx": 0, "gs": 0, "nl": 0, "none": 0}
