"""On-demand construction of single Hadamard matrix rows.

The order-2^n Sylvester Hadamard matrix is the n-fold Kronecker power of
the 2x2 base matrix, so row i is the Kronecker product of n base rows
selected by the binary digits of i.  Building one row this way touches
O(2^n) memory, never the O(4^n) of the full matrix, which is what makes
streaming patterns at large orders practical.

Everything here is exact sign arithmetic over {+1, -1}; no floating
point.  Two independent oracles (`full_matrix` and `direct_row`) exist
purely to cross-check `generate_row` and each other.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ORDER_CAP",
    "INDEX_BITS_CAP",
    "FULL_MATRIX_CAP",
    "OrderError",
    "IndexRangeError",
    "SignVector",
    "BitString",
    "BaseMatrix",
    "BASE_MATRIX",
    "OpCounter",
    "dec2bin",
    "kron",
    "generate_row",
    "generate_rows",
    "direct_row",
    "full_matrix",
    "predicted_cost",
]

# 2^30 entries is 128 MiB packed; beyond that callers should shard.
ORDER_CAP = 30
# Row indices fit an unsigned 62-bit value.
INDEX_BITS_CAP = 62
# The full-matrix oracle is memory-quadratic by design.
FULL_MATRIX_CAP = 13


class OrderError(ValueError):
    """Order exponent outside the supported range."""


class IndexRangeError(ValueError):
    """Row index outside [0, 2^n)."""


def _check_order(n: int, cap: int) -> None:
    if not 1 <= n <= cap:
        raise OrderError(f"order exponent must be in [1, {cap}], got {n}")


def _check_index(i: int, n: int) -> None:
    if not 0 <= i < (1 << n):
        raise IndexRangeError(f"row index {i} out of range [0, {1 << n})")


def _integer_array(values, what: str) -> np.ndarray:
    """values as a flat integer array, integers of any size kept exact.

    An array of a NumPy integer dtype passes as it is; other input comes
    back as an object array of Python ints, or raises TypeError naming
    `what` when it holds a non-integer.
    """
    arr = np.asarray(values)
    if arr.dtype.kind in "fO":
        # Python ints that share no 64-bit dtype arrive as object or float64.
        values = np.asarray(values, dtype=object).flat
        return np.array([operator.index(v) for v in values], dtype=object)
    if arr.dtype.kind not in "iu":
        raise TypeError(f"{what} must be integers, got dtype {arr.dtype}")
    return arr.reshape(-1)


def _index_array(indices, n: int) -> np.ndarray:
    """Row indices as a fresh flat int64 array, each checked against [0, 2^n).

    The one range check for every index set (block kernel, array ordering,
    HADP writer and reader, measurement sets).  Integers of any size give
    `IndexRangeError` when out of range; non-integers give TypeError.
    """
    arr = _integer_array(indices, "row indices")
    if arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    _check_index(int(arr.min()), n)
    _check_index(int(arr.max()), n)
    return arr.astype(np.int64)


def _first_not_increasing(indices: np.ndarray) -> int | None:
    """Position t of the first index with indices[t - 1] >= indices[t], else None."""
    bad = np.flatnonzero(indices[1:] <= indices[:-1])
    return int(bad[0]) + 1 if bad.size else None


# Row b holds the 8 signs that byte value b packs, most significant bit first.
_SIGNS = 1 - 2 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).astype(np.int8)


@dataclass(frozen=True)
class SignVector:
    """Immutable length-2^k vector over {+1, -1}, stored one bit per entry.

    Bit 0 encodes +1 and bit 1 encodes -1, most significant bit of each
    byte first, with the final byte zero padded.  Under this encoding the
    all-plus row packs to all-zero bytes and the popcount of the packed
    storage counts the -1 entries.
    """

    packed: bytes
    length: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "packed", bytes(self.packed))
        if self.length < 1 or self.length & (self.length - 1):
            raise ValueError(f"length must be a power of two, got {self.length}")
        expected = (self.length + 7) // 8
        if len(self.packed) != expected:
            raise ValueError(
                f"packed storage must be {expected} bytes for length "
                f"{self.length}, got {len(self.packed)}"
            )
        pad = 8 * expected - self.length
        if pad and self.packed[-1] & ((1 << pad) - 1):
            raise ValueError("padding bits in the final byte must be zero")

    @classmethod
    def from_signs(cls, values) -> "SignVector":
        """Pack a sequence of +1/-1 entries."""
        arr = np.asarray(values)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("sign vector must be a non-empty 1-d sequence")
        if arr.size & (arr.size - 1):
            raise ValueError(f"sign vector length must be a power of two, got {arr.size}")
        if not np.all((arr == 1) | (arr == -1)):
            raise ValueError("sign vector entries must be +1 or -1")
        return cls._pack(arr.astype(np.int8))

    @classmethod
    def from_packed(cls, data, length: int) -> "SignVector":
        """Rehydrate from packed storage produced by `.packed`."""
        return cls(bytes(data), length)

    @classmethod
    def _pack(cls, signs: np.ndarray) -> "SignVector":
        # Trusted path: caller guarantees a 1-d +-1 array of power-of-two size.
        return cls(np.packbits(signs == -1).tobytes(), signs.size)

    def __len__(self) -> int:
        return self.length

    @property
    def order(self) -> int:
        """Exponent k with len(self) == 2^k."""
        return self.length.bit_length() - 1

    def __getitem__(self, index: int) -> int:
        if index < 0:
            index += self.length
        if not 0 <= index < self.length:
            raise IndexError(f"entry {index} out of range for length {self.length}")
        bit = (self.packed[index >> 3] >> (7 - (index & 7))) & 1
        return 1 - 2 * bit

    def __iter__(self):
        return iter(self.to_numpy().tolist())

    def to_numpy(self) -> np.ndarray:
        """Unpack to a fresh int8 array of +1/-1 entries."""
        packed = np.frombuffer(self.packed, dtype=np.uint8)
        return _SIGNS.take(packed, axis=0).reshape(-1)[: self.length]

    def dot(self, other: "SignVector") -> int:
        """Exact inner product; 2^n on self, 0 against any orthogonal row."""
        if self.length != other.length:
            raise ValueError(f"length mismatch: {self.length} vs {other.length}")
        diff = int.from_bytes(self.packed, "big") ^ int.from_bytes(other.packed, "big")
        return self.length - 2 * diff.bit_count()

    def negated(self) -> "SignVector":
        """Entrywise negation, still bit-packed with clean padding."""
        nbytes = len(self.packed)
        full = (1 << (8 * nbytes)) - 1
        pad_mask = (1 << (8 * nbytes - self.length)) - 1
        flipped = (int.from_bytes(self.packed, "big") ^ full) & full & ~pad_mask
        return SignVector(flipped.to_bytes(nbytes, "big"), self.length)

    def negative_count(self) -> int:
        """Number of -1 entries (popcount of the packed bytes)."""
        return int.from_bytes(self.packed, "big").bit_count()

    def __repr__(self) -> str:
        if self.length <= 16:
            body = ",".join(str(v) for v in self)
            return f"SignVector([{body}])"
        return f"SignVector(length={self.length})"


@dataclass(frozen=True)
class BitString:
    """Fixed-width binary expansion of a row index, most significant digit first."""

    digits: tuple[int, ...]
    source_index: int
    width: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "digits", tuple(self.digits))
        if self.width != len(self.digits):
            raise ValueError(f"width {self.width} does not match {len(self.digits)} digits")
        if any(d not in (0, 1) for d in self.digits):
            raise ValueError("digits must all be 0 or 1")
        if self.to_index() != self.source_index:
            raise ValueError(
                f"digits {self.digits} encode {self.to_index()}, not {self.source_index}"
            )

    def to_index(self) -> int:
        """Fold the digits back into the integer they encode."""
        value = 0
        for digit in self.digits:
            value = (value << 1) | digit
        return value


def dec2bin(i: int, n: int) -> BitString:
    """n-digit binary expansion of row index i, most significant digit first."""
    _check_order(n, INDEX_BITS_CAP)
    _check_index(i, n)
    return BitString(tuple((i >> (n - 1 - k)) & 1 for k in range(n)), i, n)


@dataclass(frozen=True)
class BaseMatrix:
    """Order-two seed matrix: row 0 is (+1, +1), row 1 is (+1, -1)."""

    row0: SignVector
    row1: SignVector

    def row(self, digit: int) -> SignVector:
        if digit == 0:
            return self.row0
        if digit == 1:
            return self.row1
        raise ValueError(f"base row selector must be 0 or 1, got {digit}")


BASE_MATRIX = BaseMatrix(SignVector.from_signs([1, 1]), SignVector.from_signs([1, -1]))

# The 8 packed rows of the order-8 matrix.  Entries j < 8 of row i are
# (-1)^popcount(i AND j), so the first byte of any row is entry i % 8 here.
_FIRST_BYTES = np.frombuffer(bytes.fromhex("005533660f5a3c69"), dtype=np.uint8)


@dataclass
class OpCounter:
    """Tally of scalar sign multiplications charged during one generation call."""

    multiplications: int = 0

    def add(self, count: int) -> None:
        if count < 0:
            raise ValueError("cannot charge a negative multiplication count")
        self.multiplications += count


def kron(a: SignVector, b: SignVector, counter: OpCounter | None = None) -> SignVector:
    """Kronecker product: entry p*len(b)+q of the result is a[p] * b[q].

    Charges len(a)*len(b) multiplications to `counter`, the cost of the
    defining double loop, independent of how the product is realized
    internally.
    """
    out_len = len(a) * len(b)
    if out_len > (1 << ORDER_CAP):
        raise OrderError(f"kron result length {out_len} exceeds the 2^{ORDER_CAP} cap")
    if counter is not None:
        counter.add(len(a) * len(b))
    signs = a.to_numpy()[:, None] * b.to_numpy()[None, :]
    return SignVector._pack(signs.reshape(-1))


def generate_row(i: int, n: int) -> tuple[SignVector, OpCounter]:
    """Row i of the order-2^n Hadamard matrix, without building the matrix.

    The binary digits of i pick which base row enters each Kronecker
    factor.  The row is built directly in packed form: the low 3 digits
    select its first byte, and each higher digit b doubles the bytes built
    so far, appending a copy for digit 0 or their bitwise complement for
    digit 1.  With bit 1 encoding -1, that doubling is the Kronecker
    product with [1, 1] or [1, -1].  The returned counter always reads
    2^(n+1) - 2; peak working memory is the packed row plus one copy.
    """
    _check_order(n, ORDER_CAP)
    _check_index(i, n)
    low = min(n, 3)
    counter = OpCounter()
    # The table stands for the first `low` levels, each charged 2 * length.
    counter.add((2 << low) - 2)
    out = np.empty(1 << (n - low), dtype=np.uint8)
    # Orders below 3 keep only the top 2^n bits; the padding stays zero.
    out[0] = _FIRST_BYTES[i & 7] & ((0xFF00 >> (1 << low)) & 0xFF)
    for b in range(low, n):
        counter.add(2 << b)
        half = 1 << (b - 3)
        if (i >> b) & 1:
            np.bitwise_not(out[:half], out=out[half : 2 * half])
        else:
            out[half : 2 * half] = out[:half]
    return SignVector(out.tobytes(), 1 << n), counter


def generate_rows(naturals, n: int) -> tuple[np.ndarray, OpCounter]:
    """Natural rows `naturals` of the order-2^n matrix as one packed block.

    Block doubling: the same copy/complement doubling as `generate_row`,
    run once per index bit over every row of the block at once.  Row r
    of the (count, ceil(2^n / 8)) uint8 result starts from the table byte
    of its low 3 digits; at each higher digit b one NumPy pass XORs the
    first half of every row into its second half with a per-row mask
    that is 0xFF where digit b of that row's index is 1, giving the copy
    or the bitwise complement.  Padding bits of orders below 3 stay zero.
    Each row is charged 2^(n+1) - 2 multiplications, as `generate_row`
    charges it, so the counter reads count * predicted_cost(n).  Working
    memory is the block plus 32 mask bytes and a few int64 copies of the
    index per row, so a caller bounds it by how many rows it asks for at
    once.
    """
    _check_order(n, ORDER_CAP)
    naturals = _index_array(naturals, n)
    count = naturals.size
    low = min(n, 3)
    counter = OpCounter()
    counter.add(count * ((2 << low) - 2))
    out = np.empty((count, 1 << (n - low)), dtype=np.uint8)
    out[:, 0] = _FIRST_BYTES[naturals & 7] & ((0xFF00 >> (1 << low)) & 0xFF)
    # Column b of `masks` is 0xFF where digit b of the row's index is 1
    # (n <= ORDER_CAP fits 32 bits, so this is 32 bytes per row).
    as_bytes = naturals.astype("<u4").view(np.uint8).reshape(count, 4)
    masks = np.unpackbits(as_bytes, axis=1, bitorder="little")
    masks *= 0xFF
    for b in range(low, n):
        counter.add(count * (2 << b))
        half = 1 << (b - 3)
        np.bitwise_xor(out[:, :half], masks[:, b : b + 1], out=out[:, half : 2 * half])
    return out, counter


# Chunk size for the closed-form oracle: bounds extra memory to O(1)
# beyond the output regardless of row length.
_DIRECT_CHUNK = 1 << 20


def direct_row(i: int, n: int) -> SignVector:
    """Same row as generate_row, via the closed form (-1)^popcount(i AND j).

    Each entry is evaluated independently from the index bits, sharing no
    code path with the Kronecker accumulation, so the two implementations
    can serve as oracles for each other.
    """
    _check_order(n, ORDER_CAP)
    _check_index(i, n)
    size = 1 << n
    out = np.empty(size, dtype=np.int8)
    mask = np.uint64(i)
    for start in range(0, size, _DIRECT_CHUNK):
        stop = min(start + _DIRECT_CHUNK, size)
        j = np.arange(start, stop, dtype=np.uint64)
        parity = (np.bitwise_count(j & mask) & 1).astype(np.int8)
        out[start:stop] = 1 - 2 * parity
    return SignVector._pack(out)


def full_matrix(n: int) -> list[SignVector]:
    """All 2^n rows via the doubling recursion [[H, H], [H, -H]].

    Memory-quadratic by construction and capped at desk scale: it exists
    only to cross-check the row generator, never for production use.
    """
    _check_order(n, FULL_MATRIX_CAP)
    h = np.ones((1, 1), dtype=np.int8)
    for _ in range(n):
        h = np.block([[h, h], [h, -h]])
    packed = np.packbits(h == -1, axis=1)
    size = 1 << n
    return [SignVector(packed[r].tobytes(), size) for r in range(size)]


def predicted_cost(n: int) -> int:
    """Exact number of scalar multiplications one row generation performs."""
    _check_order(n, INDEX_BITS_CAP)
    return (1 << (n + 1)) - 2
