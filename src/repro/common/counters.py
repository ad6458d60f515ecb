"""Counters kept in one flat int64 array per model object.

Every counter the simulator reports is a slot of the ``counts`` array
(``array('q')``) of the object that owns it.  The batch core's compiled
kernel increments those slots in place, as it uses the cache tags and
perceptron weights, and the scalar reference increments the same slots, so
nothing is copied between them and the counters are current at every step.

A class declares its layout once, with the ``fields`` class keyword of
:class:`Counters`: a name is one slot, a ``(name, keys)`` pair a keyed
group of ``len(keys)`` consecutive slots (a per-level breakdown by
:class:`~repro.common.types.MemLevel`, IPCP's classes by name).  A name
becomes an attribute over the array, a group a :class:`KeyedCounts` view,
and ``SLOT.<name>`` its (first) slot for hot loops.  ``FIELDS`` names every
slot, ``name.key`` within a group; the kernel mirrors the layouts as C
enums and exports them for a test to pin.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from types import SimpleNamespace


class KeyedCounts(Mapping):
    """A keyed group of counters: a writable view over consecutive slots."""

    __slots__ = ("_counts", "_base", "_offsets")

    def __init__(self, counts: array, base: int, offsets: dict) -> None:
        self._counts = counts
        self._base = base
        self._offsets = offsets

    def __getitem__(self, key) -> int:
        return self._counts[self._base + self._offsets[key]]

    def __setitem__(self, key, value: int) -> None:
        self._counts[self._base + self._offsets[key]] = value

    def __iter__(self):
        return iter(self._offsets)

    def __len__(self) -> int:
        return len(self._offsets)

    def __repr__(self) -> str:
        return repr(dict(self))


def _counter(index: int) -> property:
    """The attribute of the counter in slot ``index``."""

    def get(self) -> int:
        return self.counts[index]

    def set(self, value: int) -> None:
        self.counts[index] = value

    return property(get, set)


def _group(index: int, keys) -> property:
    """The attribute of the keyed group from slot ``index`` on."""
    offsets = {key: offset for offset, key in enumerate(keys)}
    return property(lambda self: KeyedCounts(self.counts, index, offsets))


class Counters:
    """Base of every object whose counters live in one ``counts`` array."""

    #: Every slot's name, in array order.
    FIELDS: tuple[str, ...] = ()
    #: ``SLOT.<name>``: the slot of a counter, or a group's first slot.
    SLOT = SimpleNamespace()

    def __init_subclass__(cls, fields=None, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if fields is None:
            return
        names: list[str] = []
        slots = {}
        for field in fields:
            index = len(names)
            if isinstance(field, str):
                names.append(field)
                attribute = _counter(index)
            else:
                field, keys = field
                names.extend(f"{field}.{getattr(key, 'name', key)}" for key in keys)
                attribute = _group(index, keys)
            setattr(cls, field, attribute)
            slots[field] = index
        cls.FIELDS = tuple(names)
        cls.SLOT = SimpleNamespace(**slots)

    def __init__(self) -> None:
        self.counts = array("q", bytes(8 * len(self.FIELDS)))

    def zero(self) -> None:
        """Zero every counter in place (the array stays the same object)."""
        self.counts[:] = array("q", bytes(8 * len(self.FIELDS)))

    def as_dict(self) -> dict:
        """Every counter by name, in declaration order: an int, or a
        ``{key: int}`` dict for a keyed group."""
        values = {name: getattr(self, name) for name in vars(self.SLOT)}
        return {
            name: dict(value) if isinstance(value, KeyedCounts) else value
            for name, value in values.items()
        }
