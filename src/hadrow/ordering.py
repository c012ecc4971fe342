"""Row orderings: natural (Sylvester), sequency (Walsh), and dyadic (Paley).

Reordering never touches row contents.  Each scheme is a bijection on
row indices computed bit by bit, so no 2^n lookup table is ever built.
"""

from __future__ import annotations

import enum

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


def bit_reverse(value: int, width: int) -> int:
    """Reverse the low `width` bits of value."""
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


def to_natural(k: int, n: int, scheme: OrderingScheme) -> int:
    """Natural row index whose row sits at ordered position k under `scheme`.

    natural is the identity, dyadic bit-reverses the n-bit index, and
    sequency bit-reverses the n-bit Gray code of the index, which sorts
    rows by their number of sign changes.
    """
    scheme = OrderingScheme(scheme)
    _check_order(n, INDEX_BITS_CAP)
    _check_index(k, n)
    if scheme is OrderingScheme.NATURAL:
        return k
    if scheme is OrderingScheme.DYADIC:
        return bit_reverse(k, n)
    return bit_reverse(gray_code(k), n)


def to_natural_array(ks, n: int, scheme: OrderingScheme) -> np.ndarray:
    """`to_natural` over an array of ordered positions, as one int64 array.

    The Gray code is one shift and XOR over the whole array, and the bit
    reversal takes n vectorized steps, one per bit, so no per-index
    Python work and no 2^n table is involved.  Every position is checked
    against [0, 2^n) first, with `to_natural`'s error.
    """
    scheme = OrderingScheme(scheme)
    _check_order(n, INDEX_BITS_CAP)
    ks = _index_array(ks, n)
    if scheme is OrderingScheme.NATURAL:
        return ks
    if scheme is OrderingScheme.SEQUENCY:
        ks ^= ks >> 1
    # ks is a private copy: shift its bits out low first, into out high first.
    out = np.zeros_like(ks)
    bit = np.empty_like(ks)
    for _ in range(n):
        out <<= 1
        out |= np.bitwise_and(ks, 1, out=bit)
        ks >>= 1
    return out


def generate_ordered_row(k: int, n: int, scheme: OrderingScheme) -> SignVector:
    """Row at ordered position k of the order-2^n matrix under `scheme`."""
    row, _ = generate_row(to_natural(k, n, scheme), n)
    return row


def sign_changes(row: SignVector) -> int:
    """Number of adjacent entry pairs with opposite signs (the sequency)."""
    signs = row.to_numpy()
    return int(np.count_nonzero(signs[1:] != signs[:-1]))
