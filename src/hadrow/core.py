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


def _check_order(n, cap: int) -> int:
    """Order exponent n as a Python int, under `_integer`'s rule and in [1, cap]."""
    n = _integer(n, "order exponents")
    if not 1 <= n <= cap:
        raise OrderError(f"order exponent must be in [1, {cap}], got {n}")
    return n


def _integer(value, what: str) -> int:
    """The one integer rule: value as a Python int, TypeError for a bool or a non-integer."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{what} must be integers, got {value!r}")
    return operator.index(value)


def _check_index(i, n: int) -> int:
    """Row index i as a Python int, under `_integer`'s rule and in [0, 2^n)."""
    i = _integer(i, "row indices")
    if not 0 <= i < (1 << n):
        raise IndexRangeError(f"row index {i} out of range [0, {1 << n})")
    return i


def _integer_array(values, what: str) -> np.ndarray:
    """values as a flat integer array under `_integer`'s rule, integers of any size kept exact.

    A NumPy integer array, or a `range` once NumPy converts it, passes as
    it is.  Other input is checked as Python objects, so a bool among ints
    fails as a non-integer does; it comes back as int64, or as Python ints
    when one does not fit.
    """
    if isinstance(values, range):
        values = np.asarray(values)  # a range holds no bool
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values.reshape(-1)
    if isinstance(values, np.ndarray) and values.dtype.kind not in "fO":
        raise TypeError(f"{what} must be integers, got dtype {values.dtype}")
    flat = np.asarray(values, dtype=object).reshape(-1)
    kinds = list(map(type, flat))
    # `_integer` accepts or refuses a value by its type, so one element of each type decides.
    for kind in set(kinds):
        _integer(flat[kinds.index(kind)], what)
    try:
        return flat.astype(np.int64)
    except OverflowError:  # an integer past int64, kept exact
        return np.array([_integer(v, what) for v in flat], dtype=object)


def _index_array(indices, n: int) -> np.ndarray:
    """Row indices as a fresh flat int64 array, each checked against [0, 2^n).

    The one range check for every index set (block kernel, array ordering,
    HADP writer and reader, measurement sets).  Integers of any size give
    `IndexRangeError` when out of range; non-integers give TypeError.
    """
    arr = _integer_array(indices, "row indices")
    if arr.size:
        _check_index(int(arr.min()), n)
        _check_index(int(arr.max()), n)
    return arr.astype(np.int64)


def _first_not_increasing(indices: np.ndarray) -> int | None:
    """Position t of the first index with indices[t - 1] >= indices[t], else None."""
    bad = np.flatnonzero(indices[1:] <= indices[:-1])
    return int(bad[0]) + 1 if bad.size else None


def _word_signs() -> np.ndarray:
    """Item w holds the 16 signs that little-endian word w packs: w & 0xFF's, then w >> 8's.

    65536 items of 16 bytes (`V16`), 1 MiB: filled in place from the 256 x 8
    byte table, most significant bit of each byte first, so the build makes no
    large temporary.  A row viewed as `<u2` words gathers with one `take`.
    """
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    byte_signs = 1 - 2 * bits.astype(np.int8)
    table = np.empty((256, 256, 16), dtype=np.int8)  # [w >> 8, w & 0xFF]
    table[:, :, :8] = byte_signs[None, :, :]
    table[:, :, 8:] = byte_signs[:, None, :]
    return table.reshape(-1).view("V16")


_SIGNS = _word_signs()
_WORDS = np.dtype("<u2")  # the table's word order on every host


def _is_scalar(value) -> bool:
    # bytes() reads anything with __index__ as a size (k zero bytes), and a
    # NumPy bool, which has none, as its one-byte buffer: neither is storage.
    try:
        operator.index(value)
    except TypeError:
        return isinstance(value, np.bool_)
    return True


@dataclass(frozen=True, slots=True)
class SignVector:
    """Immutable length-2^k vector over {+1, -1}, stored one bit per entry.

    Bit 0 encodes +1 and bit 1 encodes -1, most significant bit of each
    byte first, with the final byte zero padded.  Under this encoding the
    all-plus row packs to all-zero bytes and the popcount of the packed
    storage counts the -1 entries.  Rows are slotted: two fields, no
    per-row dict.
    """

    packed: bytes
    length: int

    def __post_init__(self) -> None:
        packed = self.packed
        if type(packed) is not bytes:
            if _is_scalar(packed):
                raise TypeError(f"packed storage must be bytes-like, got {type(packed).__name__}")
            _set_packed(self, bytes(packed))
        length = self.length
        if type(length) is not int:
            length = _integer(length, "row lengths")
            _set_length(self, length)
        if length < 1 or length & (length - 1):
            raise ValueError(f"length must be a power of two, got {length}")
        expected = (length + 7) // 8
        if len(self.packed) != expected:
            raise ValueError(
                f"packed storage must be {expected} bytes for length "
                f"{length}, got {len(self.packed)}"
            )
        pad = 8 * expected - length
        if pad and self.packed[-1] & ((1 << pad) - 1):
            raise ValueError("padding bits in the final byte must be zero")

    @classmethod
    def from_signs(cls, values) -> "SignVector":
        """Pack a sequence of +1/-1 integer entries; a bool or a float raises TypeError."""
        shape = np.shape(values)
        if len(shape) != 1 or shape[0] == 0:
            raise ValueError("sign vector must be a non-empty 1-d sequence")
        if shape[0] & (shape[0] - 1):
            raise ValueError(f"sign vector length must be a power of two, got {shape[0]}")
        arr = _integer_array(values, "sign entries")
        if not np.all((arr == 1) | (arr == -1)):
            raise ValueError("sign vector entries must be +1 or -1")
        return cls._pack(arr.astype(np.int8))

    @classmethod
    def from_packed(cls, data, length: int) -> "SignVector":
        """Rehydrate from packed storage produced by `.packed`."""
        return cls(data, length)

    @classmethod
    def _trusted(cls, packed: bytes, length: int) -> "SignVector":
        # Unchecked path for `formats.read_patterns` alone, whose bulk checks
        # already fix every row's length and padding; `packed` must be bytes.
        # The two slots are set through their descriptors, bound once below.
        row = object.__new__(cls)
        _set_packed(row, packed)
        _set_length(row, length)
        return row

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
        """Unpack to a fresh int8 array of +1/-1 entries, 16 signs per lookup.

        The packed row, viewed as little-endian 16-bit words, gathers 16-byte
        items from a 65536-item sign table (1 MiB, built at import) in one
        `take`.  Every word indexes the table, so the gather skips the bounds
        pass (`mode="wrap"` never wraps) and a row of 2 or more bytes needs no
        slice; a one-byte row (length 8 or less) is padded with a zero byte
        and the result sliced.
        """
        packed = self.packed
        if len(packed) > 1:
            return _SIGNS.take(np.frombuffer(packed, _WORDS), mode="wrap").view(np.int8)
        return _SIGNS.take(np.frombuffer(packed + b"\0", _WORDS)).view(np.int8)[: self.length]

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


# The slot setters of a row, bound once: the frozen class refuses plain assignment.
_set_packed = SignVector.packed.__set__
_set_length = SignVector.length.__set__


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
    n = _check_order(n, INDEX_BITS_CAP)
    i = _check_index(i, n)
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
_FIRST_BYTES = bytes.fromhex("005533660f5a3c69")

# `generate_row` doubles bytes up to 2^15 entries (4 KiB) and lists of
# references to them beyond.  Per-row time at n = 22 by stripe size, each
# call right after a cold-cache control (one pinned CPU, median of three
# 300-call medians): 2^12 134, 2^14 95, 2^15 97, 2^16 96, 2^17 99,
# 2^19 124 µs.  Flat from 2^14 to 2^16; smaller stripes pay per reference,
# larger ones per byte copied, and the two stripes add 8 KiB to the peak.
_STRIPE_BITS = 15


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


def _packed_row(i: int, n: int) -> bytes:
    """Packed bytes of row i of the order-2^n matrix, with i and n taken as checked.

    The binary digits of i pick which base row enters each Kronecker
    factor.  The row is built directly in packed form, bit 1 encoding -1,
    and carried together with its negation.  The low 3 digits select the
    first byte; each higher digit b doubles both: digit 0 maps
    (row, neg) to (row + row, neg + neg), the Kronecker product with
    [1, 1], and digit 1 to (row + neg, neg + row), the product with
    [1, -1].  So no complement pass is ever made.  Up to 2^15 entries the
    doubling concatenates bytes; past that it concatenates lists of
    references to those two stripes, and one join builds the row.  Peak
    working memory is the packed row, the two 4 KiB stripes, and the
    reference lists with the join's buffer of one 80-byte entry per
    reference: about 1.02-1.04 bits per entry from n = 22 on.
    """
    # Orders below 3 keep only the top 2^n bits; the padding stays zero,
    # and their negation is never used.
    first = _FIRST_BYTES[i & 7] & ((0xFF00 >> (1 << min(n, 3))) & 0xFF)
    row, neg = bytes((first,)), bytes((first ^ 0xFF,))
    for b in range(3, n):
        if b == _STRIPE_BITS:
            row, neg = [row], [neg]
        if (i >> b) & 1:
            row, neg = row + neg, neg + row
        else:
            row, neg = row + row, neg + neg
    return b"".join(row) if n > _STRIPE_BITS else row


def generate_row(i: int, n: int) -> tuple[SignVector, OpCounter]:
    """Row i of the order-2^n Hadamard matrix, without building the matrix.

    Checks i and n, then builds the row with `_packed_row`, the Kronecker
    doubling chain carried with its negation, at about 1.02-1.04 bits per
    entry from n = 22 on.  The counter is not counted as the kernel runs:
    it is charged 2^(n+1) - 2, the closed-form cost of the doubling chain.
    """
    n = _check_order(n, ORDER_CAP)
    i = _check_index(i, n)
    counter = OpCounter()
    counter.add((2 << n) - 2)
    return SignVector(_packed_row(i, n), 1 << n), counter


def generate_rows(naturals, n: int) -> tuple[np.ndarray, OpCounter]:
    """Natural rows `naturals` of the order-2^n matrix as one packed block.

    Block doubling, run once per index bit over every row of the block
    at once.  Row r of the (count, ceil(2^n / 8)) uint8 result starts
    from the table byte of its low 3 digits; at each higher digit b one
    NumPy pass XORs the first half of every row into its second half
    with a per-row mask that is 0xFF where digit b of that row's index
    is 1, giving the copy or the bitwise complement.  Padding bits of
    orders below 3 stay zero.  As in `generate_row`, the counter is not
    counted as the kernel runs: it is charged once per call, count *
    (2^(n+1) - 2), so it reads count * predicted_cost(n).  Working memory
    is the block plus 32 mask bytes and a few int64 copies of the index
    per row, so a caller bounds it by how many rows it asks for at once.
    """
    n = _check_order(n, ORDER_CAP)
    naturals = _index_array(naturals, n)
    count = naturals.size
    low = min(n, 3)
    counter = OpCounter()
    counter.add(count * ((2 << n) - 2))
    out = np.empty((count, 1 << (n - low)), dtype=np.uint8)
    first_bytes = np.frombuffer(_FIRST_BYTES, dtype=np.uint8)
    out[:, 0] = first_bytes[naturals & 7] & ((0xFF00 >> (1 << low)) & 0xFF)
    # Column b of `masks` is 0xFF where digit b of the row's index is 1
    # (n <= ORDER_CAP fits 32 bits, so this is 32 bytes per row).
    as_bytes = naturals.astype("<u4").view(np.uint8).reshape(count, 4)
    masks = np.unpackbits(as_bytes, axis=1, bitorder="little")
    masks *= 0xFF
    for b in range(low, n):
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
    n = _check_order(n, ORDER_CAP)
    i = _check_index(i, n)
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
    n = _check_order(n, FULL_MATRIX_CAP)
    h = np.ones((1, 1), dtype=np.int8)
    for _ in range(n):
        h = np.block([[h, h], [h, -h]])
    packed = np.packbits(h == -1, axis=1)
    size = 1 << n
    return [SignVector(packed[r].tobytes(), size) for r in range(size)]


def predicted_cost(n: int) -> int:
    """Exact number of scalar multiplications one row generation performs."""
    n = _check_order(n, INDEX_BITS_CAP)
    return (1 << (n + 1)) - 2
