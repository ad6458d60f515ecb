"""Program features used by the hashed perceptron predictors.

Table I of the paper lists the features shared by Hermes, FLP and SLP:

* PC XOR cacheline offset (offset of the block within its page),
* PC XOR byte offset (offset of the access within its block),
* PC + first access (whether the page is seen for the first time recently),
* cacheline offset + first access,
* last-4 load PCs (folded together),

plus the *leveling feature* used only by SLP:

* FLP prediction + cacheline offset.

The features are computed from a :class:`FeatureContext`; the
:class:`FeatureHistory` helper maintains the state they need (page buffer for
the first-access bit, last-4 load PC history).

Feature extraction sits on the per-access hot path (one context per demand
load per predictor), so :class:`FeatureContext` is a ``__slots__`` class and
each :class:`FeatureHistory` reuses a single instance instead of allocating
one per access.  Each last-4 PC window and its folded hash are memoized by
the window's value, so the memo never depends on the history's state.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

from repro.common.addresses import (
    PAGE_BITS,
    block_offset,
    cacheline_offset_in_page,
    page_number,
)
from repro.common.hashing import hash_combine

#: PC-history windows repeat heavily (loops), so their folded hash is
#: memoized; the cap bounds the memo for PC-rich workloads.
_PCS_HASH_MEMO_LIMIT = 1 << 16


class FeatureContext:
    """Inputs available to the feature extractors for one prediction."""

    __slots__ = (
        "pc",
        "address",
        "first_access",
        "last_load_pcs",
        "flp_prediction",
        "_pcs_hash",
    )

    def __init__(
        self,
        pc: int = 0,
        address: int = 0,
        first_access: bool = False,
        last_load_pcs: tuple[int, ...] = (),
        flp_prediction: bool = False,
    ) -> None:
        self.pc = pc
        self.address = address
        self.first_access = first_access
        self.last_load_pcs = last_load_pcs
        self.flp_prediction = flp_prediction
        self._pcs_hash: Optional[int] = None

    @property
    def cacheline_offset(self) -> int:
        """Offset of the accessed block within its 4KB page (0..63)."""
        return cacheline_offset_in_page(self.address)

    @property
    def last_pcs_hash(self) -> int:
        """Folded hash of ``last_load_pcs`` (computed lazily, cached)."""
        if self._pcs_hash is None:
            self._pcs_hash = (
                hash_combine(*self.last_load_pcs) if self.last_load_pcs else 0
            )
        return self._pcs_hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FeatureContext(pc={self.pc:#x}, address={self.address:#x}, "
            f"first_access={self.first_access}, last_load_pcs={self.last_load_pcs}, "
            f"flp_prediction={self.flp_prediction})"
        )


@dataclass(frozen=True)
class FeatureSpec:
    """Specification of one perceptron feature / weight table.

    Attributes:
        name: feature name (used in reports and storage accounting).
        extractor: function mapping a :class:`FeatureContext` to an integer
            feature value (hashed down to the table index by the perceptron).
        table_entries: number of weights in this feature's table.
        weight_bits: width of each weight counter.
    """

    name: str
    extractor: Callable[[FeatureContext], int]
    table_entries: int = 128
    weight_bits: int = 5

    def storage_bits(self) -> int:
        """Storage used by this feature's weight table, in bits."""
        return self.table_entries * self.weight_bits


def _pc_xor_cacheline_offset(ctx: FeatureContext) -> int:
    return ctx.pc ^ (cacheline_offset_in_page(ctx.address) << 2)


def _pc_xor_byte_offset(ctx: FeatureContext) -> int:
    return ctx.pc ^ (block_offset(ctx.address) << 2)


# The combined-hash features have small input domains (a PC plus one bit, or
# a 6-bit offset plus one bit), so their hash_combine results are memoized in
# module-level tables shared by all predictor instances (the hashes are pure
# functions of the inputs).
_PC_FIRST_MEMO: dict[int, int] = {}
_OFFSET_FIRST_MEMO: dict[int, int] = {}
_FLP_OFFSET_MEMO: dict[int, int] = {}


def _pc_plus_first_access(ctx: FeatureContext) -> int:
    key = (ctx.pc << 1) | (1 if ctx.first_access else 0)
    value = _PC_FIRST_MEMO.get(key)
    if value is None:
        if len(_PC_FIRST_MEMO) >= _PCS_HASH_MEMO_LIMIT:
            _PC_FIRST_MEMO.clear()
        value = hash_combine(ctx.pc, int(ctx.first_access))
        _PC_FIRST_MEMO[key] = value
    return value


def _offset_plus_first_access(ctx: FeatureContext) -> int:
    key = (cacheline_offset_in_page(ctx.address) << 1) | (1 if ctx.first_access else 0)
    value = _OFFSET_FIRST_MEMO.get(key)
    if value is None:
        value = hash_combine(key >> 1, key & 1)
        _OFFSET_FIRST_MEMO[key] = value
    return value


def _last_four_load_pcs(ctx: FeatureContext) -> int:
    return ctx.last_pcs_hash


def _flp_prediction_plus_offset(ctx: FeatureContext) -> int:
    key = (cacheline_offset_in_page(ctx.address) << 1) | (1 if ctx.flp_prediction else 0)
    value = _FLP_OFFSET_MEMO.get(key)
    if value is None:
        value = hash_combine(key & 1, key >> 1)
        _FLP_OFFSET_MEMO[key] = value
    return value


#: Per-feature weight-table sizes chosen so that the total weight storage of
#: FLP/SLP matches Table II of the paper (2.58KB / 2.66KB with 5-bit weights).
_DEFAULT_TABLE_ENTRIES = {
    "pc_xor_cacheline_offset": 1024,
    "pc_xor_byte_offset": 1024,
    "pc_plus_first_access": 512,
    "offset_plus_first_access": 512,
    "last_four_load_pcs": 1024,
    "flp_prediction_plus_offset": 128,
}


def legacy_hermes_features(
    table_entries: int | None = None, weight_bits: int = 5
) -> list[FeatureSpec]:
    """The five "legacy Hermes features" of Table I.

    When ``table_entries`` is None each feature uses its default table size
    (sized so the total matches the paper's storage budget); passing an
    integer overrides every table with that size (used by the Figure 17
    "extra storage" experiments).
    """
    def entries(name: str) -> int:
        return table_entries if table_entries is not None else _DEFAULT_TABLE_ENTRIES[name]

    return [
        FeatureSpec("pc_xor_cacheline_offset", _pc_xor_cacheline_offset,
                    entries("pc_xor_cacheline_offset"), weight_bits),
        FeatureSpec("pc_xor_byte_offset", _pc_xor_byte_offset,
                    entries("pc_xor_byte_offset"), weight_bits),
        FeatureSpec("pc_plus_first_access", _pc_plus_first_access,
                    entries("pc_plus_first_access"), weight_bits),
        FeatureSpec("offset_plus_first_access", _offset_plus_first_access,
                    entries("offset_plus_first_access"), weight_bits),
        FeatureSpec("last_four_load_pcs", _last_four_load_pcs,
                    entries("last_four_load_pcs"), weight_bits),
    ]


def leveling_feature(
    table_entries: int | None = None, weight_bits: int = 5
) -> FeatureSpec:
    """The SLP-only feature combining the FLP prediction with the offset."""
    entries = (
        table_entries
        if table_entries is not None
        else _DEFAULT_TABLE_ENTRIES["flp_prediction_plus_offset"]
    )
    return FeatureSpec(
        "flp_prediction_plus_offset",
        _flp_prediction_plus_offset,
        entries,
        weight_bits,
    )


def slp_features(
    table_entries: int | None = None, weight_bits: int = 5
) -> list[FeatureSpec]:
    """The six SLP features: legacy Hermes features plus the leveling one."""
    return legacy_hermes_features(table_entries, weight_bits) + [
        leveling_feature(table_entries, weight_bits)
    ]


class FeatureHistory:
    """Per-predictor state backing the feature extractors.

    Maintains the *page buffer* used to derive the first-access bit (the
    0.63KB structure of Table II) and the last load PCs, as flat typed
    arrays that the batch core's compiled kernel uses in place:

    * the page buffer, an LRU set of ``page_buffer_entries`` pages: slot
      ``i`` holds page ``_pages[i]`` (-1: free) and its last-use stamp
      ``_stamps[i]`` (0: free), taken from the one-element ``_clock`` on
      every :meth:`observe`.  A new page takes the first free slot while
      there is one, so the occupied slots stay a prefix, then the least
      recently used page's (the smallest stamp);
    * the last ``pc_history_length`` load PCs, oldest first, of which
      ``_pc_count[0]`` are valid: ``_pcs``.

    Lookups go through a private page -> slot index in recency order,
    rebuilt from the arrays whenever the clock has moved without it (the
    kernel observed accesses), so it never goes stale.
    """

    def __init__(self, page_buffer_entries: int = 128, pc_history_length: int = 4) -> None:
        if page_buffer_entries <= 0:
            raise ValueError(
                f"page_buffer_entries must be positive, got {page_buffer_entries}"
            )
        if pc_history_length < 0:
            raise ValueError(
                f"pc_history_length must be non-negative, got {pc_history_length}"
            )
        self.page_buffer_entries = page_buffer_entries
        self.pc_history_length = pc_history_length
        self._clear()
        #: PC window -> (that window, its folded hash), by value.
        self._pcs_memo: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
        # One reusable context per history: the extractors consume it
        # synchronously inside predict(), so no per-access allocation is
        # needed.
        self._context = FeatureContext()

    def _clear(self) -> None:
        self._pages = array("q", [-1]) * self.page_buffer_entries
        self._stamps = array("q", [0]) * self.page_buffer_entries
        self._clock = array("q", [0])
        self._pcs = array("q", [0]) * self.pc_history_length
        self._pc_count = array("q", [0])
        self._synced = -1  # the clock value the index below follows
        self._slots: OrderedDict[int, int] = OrderedDict()

    def _recency(self) -> OrderedDict[int, int]:
        """Page -> slot, least recently used first."""
        if self._synced == self._clock[0]:
            return self._slots
        used = [slot for slot, page in enumerate(self._pages) if page != -1]
        used.sort(key=self._stamps.__getitem__)
        self._slots = OrderedDict((self._pages[slot], slot) for slot in used)
        self._synced = self._clock[0]
        return self._slots

    def observe(self, pc: int, address: int) -> None:
        """Record an access so future contexts see updated history."""
        page = address >> PAGE_BITS
        slots = self._recency()
        slot = slots.get(page)
        if slot is not None:
            slots.move_to_end(page)
        else:
            slot = len(slots)
            if slot == self.page_buffer_entries:
                slot = slots.popitem(last=False)[1]
            self._pages[slot] = page
            slots[page] = slot
        clock = self._clock[0] + 1
        self._clock[0] = self._synced = clock
        self._stamps[slot] = clock
        count = self._pc_count[0]
        if count < self.pc_history_length:
            self._pcs[count] = pc
            self._pc_count[0] = count + 1
        elif count:
            pcs = self._pcs
            pcs[:-1] = pcs[1:]
            pcs[-1] = pc

    def is_first_access(self, address: int) -> bool:
        """True when the page of ``address`` is not in the page buffer."""
        return page_number(address) not in self._recency()

    def context(
        self, pc: int, address: int, flp_prediction: bool = False
    ) -> FeatureContext:
        """Build the feature context for a prediction at (pc, address).

        The returned context is owned by this history and reused on the next
        call; consumers must not hold on to it across accesses.
        """
        count = self._pc_count[0]
        pcs = tuple(self._pcs if count == self.pc_history_length else self._pcs[:count])
        memo = self._pcs_memo
        entry = memo.get(pcs)
        if entry is None:
            if len(memo) >= _PCS_HASH_MEMO_LIMIT:
                memo.clear()
            entry = memo[pcs] = (pcs, hash_combine(*pcs) if pcs else 0)
        pcs, folded = entry
        ctx = self._context
        ctx.pc = pc
        ctx.address = address
        ctx.first_access = address >> PAGE_BITS not in self._recency()
        ctx.last_load_pcs = pcs
        ctx.flp_prediction = flp_prediction
        ctx._pcs_hash = folded
        return ctx

    def reset(self) -> None:
        """Clear the page buffer and the PC history."""
        self._clear()

    def storage_bits(self, page_tag_bits: int = 36) -> int:
        """Approximate storage of the page buffer, in bits."""
        return self.page_buffer_entries * page_tag_bits
