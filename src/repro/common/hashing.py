"""Hash functions used to index perceptron weight tables.

Hashed perceptron predictors (Hermes, PPF, FLP, SLP) index each weight table
with a cheap hash of the corresponding program feature.  We use folded-XOR
hashing, the standard choice for microarchitectural predictors, plus a
Jenkins-style 32-bit integer finaliser for features built from several
components.
"""

from __future__ import annotations

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fold_xor(value: int, output_bits: int) -> int:
    """Fold ``value`` down to ``output_bits`` bits by XOR-ing chunks.

    This mirrors the hardware-friendly folding used by hashed perceptron
    predictors: the value is split into ``output_bits``-wide chunks that are
    XOR-ed together.

    Args:
        value: non-negative integer to fold.
        output_bits: number of bits of the result (must be positive).

    Returns:
        An integer in ``[0, 2**output_bits)``.
    """
    if output_bits <= 0:
        raise ValueError(f"output_bits must be positive, got {output_bits}")
    if value < 0:
        value &= _MASK64
    mask = (1 << output_bits) - 1
    folded = 0
    while value:
        folded ^= value & mask
        value >>= output_bits
    return folded


def jenkins32(value: int) -> int:
    """Jenkins-style 32-bit integer finaliser.

    Used to decorrelate feature values before folding so that adjacent
    addresses do not collide into adjacent table entries.
    """
    value &= _MASK32
    value = (value + 0x7ED55D16 + (value << 12)) & _MASK32
    value = (value ^ 0xC761C23C ^ (value >> 19)) & _MASK32
    value = (value + 0x165667B1 + (value << 5)) & _MASK32
    value = ((value + 0xD3A2646C) ^ (value << 9)) & _MASK32
    value = (value + 0xFD7046C5 + (value << 3)) & _MASK32
    value = (value ^ 0xB55A4F09 ^ (value >> 16)) & _MASK32
    return value


def hash_combine(*components: int) -> int:
    """Combine several feature components into one hashable integer.

    Each component is mixed with :func:`jenkins32` and XOR-ed with a rotated
    accumulator so that the combination is order sensitive
    (``hash_combine(a, b) != hash_combine(b, a)`` in general).
    """
    accumulator = 0x9E3779B9
    for component in components:
        accumulator = ((accumulator << 7) | (accumulator >> 25)) & _MASK32
        accumulator ^= jenkins32(component)
    return accumulator


def table_index(feature_value: int, table_bits: int) -> int:
    """Return the weight-table index for a feature value.

    The feature value is first decorrelated with :func:`jenkins32`, then
    folded down to the table's index width.
    """
    return fold_xor(jenkins32(feature_value), table_bits)

