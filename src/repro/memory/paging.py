"""Virtual-to-physical address translation.

The paper's two predictors deliberately live on different sides of the
translation boundary: FLP sits next to the core and sees *virtual* addresses
(L1D is VIPT so the prediction can proceed in parallel with the lookup),
while SLP sits next to the L1D MSHRs and sees *physical* addresses.  To make
that distinction meaningful in the reproduction we model a page table that
maps virtual pages to pseudo-randomly assigned physical frames, so virtual
and physical cacheline-offset features agree but page-level hashes differ.
"""

from __future__ import annotations

from repro.common.addresses import PAGE_BITS, page_offset
from repro.common.counters import Counters
from repro.common.hashing import jenkins32


class PageTable(Counters, fields=("page_faults",)):
    """Deterministic first-touch page allocator.

    Frames are assigned on first touch using a hash of the virtual page
    number and the core id, which gives a stable but scrambled physical
    layout (like a long-running system with a fragmented free list).
    """

    def __init__(self, core_id: int = 0, memory_frames: int = 1 << 22) -> None:
        if memory_frames <= 0:
            raise ValueError(f"memory_frames must be positive, got {memory_frames}")
        self.core_id = core_id
        self.memory_frames = memory_frames
        self._mapping: dict[int, int] = {}
        self._allocated_frames: set[int] = set()
        Counters.__init__(self)

    def translate(self, vaddr: int) -> int:
        """Translate a virtual byte address to a physical byte address."""
        vpage = vaddr >> PAGE_BITS
        frame = self._mapping.get(vpage)
        if frame is None:
            frame = self._allocate_frame(vpage)
        return (frame << PAGE_BITS) | page_offset(vaddr)

    def translate_page(self, vpage: int) -> int:
        """Translate a virtual page number to a physical frame number."""
        frame = self._mapping.get(vpage)
        if frame is None:
            frame = self._allocate_frame(vpage)
        return frame

    def _allocate_frame(self, vpage: int) -> int:
        self.page_faults += 1
        candidate = jenkins32((vpage << 4) ^ (self.core_id * 0x9E3779B1)) % self.memory_frames
        # Linear probing keeps the mapping injective so distinct virtual
        # pages never alias onto the same frame.
        probes = 0
        while candidate in self._allocated_frames:
            candidate = (candidate + 1) % self.memory_frames
            probes += 1
            if probes > self.memory_frames:
                raise RuntimeError("physical memory exhausted")
        self._allocated_frames.add(candidate)
        self._mapping[vpage] = candidate
        return candidate

    def mapped_pages(self) -> int:
        """Number of virtual pages touched so far."""
        return len(self._mapping)
