"""Row orderings: natural (Sylvester), sequency (Walsh), and dyadic (Paley).

Reordering never touches row contents.  Each scheme is a bijection on
row indices, bit-reversed through one 256-entry byte table, never a 2^n one.
"""

from __future__ import annotations

import enum
import operator

import numpy as np

from .core import (
    INDEX_BITS_CAP,
    SignVector,
    _check_index,
    _check_order,
    _index_array,
    generate_row,
)

__all__ = [
    "OrderingScheme",
    "gray_code",
    "bit_reverse",
    "to_natural",
    "to_natural_array",
    "generate_ordered_row",
    "sign_changes",
]


class OrderingScheme(enum.Enum):
    """Index permutation applied before row generation."""

    NATURAL = "natural"
    SEQUENCY = "sequency"
    DYADIC = "dyadic"

    def __str__(self) -> str:
        return self.value


def gray_code(k: int) -> int:
    """Reflected binary code of k."""
    return k ^ (k >> 1)


# Byte b is b reversed: unpacked low bit first, repacked high bit first.
_REVERSED_BYTES = np.packbits(
    np.unpackbits(np.arange(256, dtype=np.uint8), bitorder="little")
).tobytes()


def bit_reverse(value: int, width: int) -> int:
    """Low `width` bits of any integer value reversed, as a Python int; ValueError if width < 0."""
    value, width = operator.index(value), operator.index(width)
    if width < 0:
        raise ValueError(f"bit width must be nonnegative, got {width}")
    nbytes = (width + 7) // 8
    # Reversed little-endian bytes read big-endian reverse all 8 * nbytes bits.
    low = (value & ((1 << width) - 1)).to_bytes(nbytes, "little")
    return int.from_bytes(low.translate(_REVERSED_BYTES), "big") >> (8 * nbytes - width)


def to_natural(k: int, n: int, scheme: OrderingScheme) -> int:
    """Natural row index whose row sits at ordered position k under `scheme`.

    natural is the identity, dyadic bit-reverses the n-bit index, and
    sequency bit-reverses the n-bit Gray code of the index, which sorts
    rows by their number of sign changes.
    """
    scheme = OrderingScheme(scheme)
    k = operator.index(k)
    _check_order(n, INDEX_BITS_CAP)
    _check_index(k, n)
    if scheme is OrderingScheme.NATURAL:
        return k
    if scheme is OrderingScheme.DYADIC:
        return bit_reverse(k, n)
    return bit_reverse(gray_code(k), n)


def to_natural_array(ks, n: int, scheme: OrderingScheme) -> np.ndarray:
    """`to_natural` over an array of ordered positions, as one int64 array.

    The Gray code is one shift and XOR over the whole array and the bit
    reversal one translation of its bytes through the byte table, so no
    per-index Python work is involved; working memory is two int64 arrays.
    Every position is checked against [0, 2^n) first, with `to_natural`'s error.
    """
    scheme = OrderingScheme(scheme)
    _check_order(n, INDEX_BITS_CAP)
    ks = _index_array(ks, n)
    if scheme is OrderingScheme.NATURAL:
        return ks
    if scheme is OrderingScheme.SEQUENCY:
        ks ^= ks >> 1
    # As in bit_reverse over 64 bits; each rebinding frees the copy before it.
    ks = ks.astype("<i8", copy=False).tobytes()
    ks = np.frombuffer(ks.translate(_REVERSED_BYTES), ">u8")
    ks = ks.astype(np.uint64)
    ks >>= 64 - n
    return ks.view(np.int64)


def generate_ordered_row(k: int, n: int, scheme: OrderingScheme) -> SignVector:
    """Row at ordered position k of the order-2^n matrix under `scheme`."""
    row, _ = generate_row(to_natural(k, n, scheme), n)
    return row


def sign_changes(row: SignVector) -> int:
    """Number of adjacent entry pairs with opposite signs (the sequency)."""
    signs = row.to_numpy()
    return int(np.count_nonzero(signs[1:] != signs[:-1]))
