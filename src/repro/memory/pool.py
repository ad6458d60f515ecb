"""Recycled state arrays for the simulated components.

A campaign runs thousands of short points in one process, and each point
builds a fresh hierarchy: caches, prefetcher tables, predictor weights.
Whether a point's set-up then rewrites warm pages or faults in fresh ones
depends on the process's allocation history: an LLC's per-slot arrays
(176 KiB each) are above malloc's mmap threshold, and whether malloc keeps
or trims the heap that SPP's 64 KiB pattern tables come from depends on
what was freed before.  :func:`state_array` makes it independent of that
history: every array it hands out stays in a pool keyed by ``(typecode,
length)``, and once nothing but the pool refers to one, the next request
of that shape refills it in place instead of allocating.

Ownership rule: an array from :func:`state_array` belongs to the component
it was made for and must not be kept past that component's lifetime.  An
array anything else still refers to (a component, a ``memoryview``, a numpy
view, the compiled kernel's buffer) is never handed out again.
"""

from __future__ import annotations

from array import array
from sys import getrefcount

import numpy as np

#: Every array :func:`state_array` made, per ``(typecode, length)``, at most
#: :data:`STATE_POOL_LIMIT` of each shape.
_STATE_POOL: dict[tuple[str, int], list[array]] = {}
STATE_POOL_LIMIT = 32
#: ``sys.getrefcount`` of a pooled array, inside :func:`state_array`'s scan,
#: that nothing else refers to: the pool's list, the loop variable and the
#: call's argument.  The tests pin it, so an interpreter that counts
#: differently fails them instead of handing out live state.
FREE_REFCOUNT = 3


def state_array(typecode: str, length: int, value: int = 0) -> array:
    """An array of ``length`` items of ``typecode``, every one ``value``:
    a free pooled array of that shape refilled in place, else a fresh one.

    ``value`` is 0 or -1, so that the refill is a byte fill (a memset):
    every byte of the item is ``value``'s low byte.
    """
    if value not in (0, -1):
        raise ValueError(f"state arrays start at 0 or -1, not {value!r}")
    pool = _STATE_POOL.setdefault((typecode, length), [])
    for state in pool:
        # An array's typecode is fixed, but its length is not: one resized
        # since it was pooled no longer has this shape.
        if getrefcount(state) == FREE_REFCOUNT and len(state) == length:
            np.frombuffer(state, dtype=np.uint8).fill(value & 0xFF)
            return state
    pool[:] = [state for state in pool if len(state) == length]
    state = array(typecode, [value]) * length
    if len(pool) < STATE_POOL_LIMIT:
        pool.append(state)
    return state
