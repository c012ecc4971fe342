"""Bit-exact serialization: HADP pattern streams, CSV rows, PBM bitmaps."""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import INDEX_BITS_CAP, SignVector, _check_order, _first_not_increasing, _index_array
from .ordering import OrderingScheme

__all__ = [
    "MAGIC",
    "VERSION",
    "HEADER_SIZE",
    "PatternFormatError",
    "BadMagicError",
    "UnsupportedVersionError",
    "TruncatedStreamError",
    "PatternFileHeader",
    "PatternWriter",
    "write_patterns",
    "read_patterns",
    "export_row_text",
]

MAGIC = b"HADP"
VERSION = 1

# magic, version, order exponent, scheme code, row count, reserved
_HEADER = struct.Struct("<4sBBBQB")
HEADER_SIZE = _HEADER.size

_SCHEME_CODES = {
    OrderingScheme.NATURAL: 0,
    OrderingScheme.SEQUENCY: 1,
    OrderingScheme.DYADIC: 2,
}
_CODE_SCHEMES = {code: scheme for scheme, code in _SCHEME_CODES.items()}


class PatternFormatError(ValueError):
    """Structurally invalid pattern stream."""


class BadMagicError(PatternFormatError):
    """Stream does not start with the HADP magic."""


class UnsupportedVersionError(PatternFormatError):
    """Stream version this reader does not understand."""


class TruncatedStreamError(PatternFormatError):
    """Stream ends before the length its header promises."""


@dataclass(frozen=True)
class PatternFileHeader:
    n: int
    scheme: OrderingScheme
    count: int

    def row_bytes(self) -> int:
        return ((1 << self.n) + 7) // 8


class PatternWriter:
    """Streaming HADP writer: header and index block first, then rows as built.

    Every index is known before any row is, so the constructor writes the
    fixed header and the whole index block to `stream` at once, and each
    `write_rows` call appends a block of packed rows straight after the
    previous one.  The writer holds no row data itself: peak memory is
    the index block plus whatever chunk of rows the caller builds at a
    time.  `finish` checks that exactly one row per index was written.
    `indices` pass core's shared checks: `IndexRangeError` for one outside
    [0, 2^n), ValueError unless they strictly increase.
    """

    def __init__(self, stream, indices, n: int, scheme: OrderingScheme) -> None:
        scheme = OrderingScheme(scheme)
        _check_order(n, INDEX_BITS_CAP)
        indices = _index_array(indices, n)
        t = _first_not_increasing(indices)
        if t is not None:
            raise ValueError(
                f"indices must be strictly increasing, got {indices[t]} after {indices[t - 1]}"
            )
        self._stream = stream
        self._row_bytes = ((1 << n) + 7) // 8
        self._count = indices.size
        self._written = 0
        stream.write(_HEADER.pack(MAGIC, VERSION, n, _SCHEME_CODES[scheme], self._count, 0))
        stream.write(indices.astype("<u8"))

    def write_rows(self, rows) -> None:
        """Append whole packed rows: a bytes-like object or a 2-d uint8 block."""
        size = memoryview(rows).nbytes
        if size % self._row_bytes:
            raise ValueError(f"{size} bytes is not a whole number of {self._row_bytes}-byte rows")
        if self._written + size // self._row_bytes > self._count:
            raise ValueError(f"more rows than the {self._count} indices in the header")
        self._stream.write(rows)
        self._written += size // self._row_bytes

    def finish(self) -> None:
        """Check that the stream holds one row per index."""
        if self._written != self._count:
            raise ValueError(f"{self._written} rows written for {self._count} indices")


def write_patterns(
    rows: Sequence[tuple[int, SignVector]], n: int, scheme: OrderingScheme
) -> bytes:
    """Serialize (ordered index, row) pairs, deterministic byte for byte.

    Layout: the fixed header, then count 8-byte little-endian indices in
    strictly increasing order, then the packed rows in the same order,
    each zero padded to a byte boundary.  The bytes are the ones a
    `PatternWriter` streams for the same rows, and it checks the indices.
    """
    _check_order(n, INDEX_BITS_CAP)
    rows = list(rows)
    for _, row in rows:
        if len(row) != 1 << n:
            raise ValueError(f"row length {len(row)} does not match order 2^{n}")
    out = io.BytesIO()
    writer = PatternWriter(out, [index for index, _ in rows], n, scheme)
    for _, row in rows:
        writer.write_rows(row.packed)
    writer.finish()
    return out.getvalue()


def read_patterns(data: bytes) -> tuple[PatternFileHeader, list[tuple[int, SignVector]]]:
    """Exact inverse of write_patterns; trusts nothing outside the stream.

    The index block passes the writer's shared checks; like every other
    structural fault, a failure raises `PatternFormatError`.
    """
    if len(data) >= 4 and data[:4] != MAGIC:
        raise BadMagicError(f"bad magic {data[:4]!r}")
    if len(data) < HEADER_SIZE:
        raise TruncatedStreamError(
            f"stream of {len(data)} bytes is shorter than the {HEADER_SIZE}-byte header"
        )
    _, version, n, scheme_code, count, reserved = _HEADER.unpack_from(data)
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported version {version}")
    if not 1 <= n <= INDEX_BITS_CAP:
        raise PatternFormatError(f"order exponent {n} out of range [1, {INDEX_BITS_CAP}]")
    if scheme_code not in _CODE_SCHEMES:
        raise PatternFormatError(f"unknown ordering scheme code {scheme_code}")
    if reserved != 0:
        raise PatternFormatError(f"reserved byte must be zero, got {reserved}")
    length = 1 << n
    if count > length:
        raise PatternFormatError(f"count {count} exceeds 2^{n} rows")
    row_bytes = (length + 7) // 8
    need = HEADER_SIZE + count * (8 + row_bytes)
    if len(data) < need:
        raise TruncatedStreamError(f"stream has {len(data)} bytes, header promises {need}")
    if len(data) > need:
        raise PatternFormatError(f"{len(data) - need} trailing bytes after payload")
    block = np.frombuffer(data, dtype="<u8", count=count, offset=HEADER_SIZE)
    try:
        indices = _index_array(block, n)
    except ValueError as exc:
        raise PatternFormatError(f"index block: {exc}") from None
    if _first_not_increasing(indices) is not None:
        raise PatternFormatError("index block is not strictly increasing")
    pos = HEADER_SIZE + 8 * count
    rows = []
    for t, index in enumerate(indices.tolist()):
        chunk = data[pos + t * row_bytes : pos + (t + 1) * row_bytes]
        try:
            rows.append((index, SignVector.from_packed(chunk, length)))
        except ValueError as exc:
            raise PatternFormatError(f"row {t}: {exc}") from None
    return PatternFileHeader(n, _CODE_SCHEMES[scheme_code], count), rows


def export_row_text(row: SignVector, fmt: str) -> str:
    """Render one row as `csv` (signed entries) or `pbm` (square P1 bitmap).

    PBM reshapes the row row-major into a 2^(n/2) square, mapping +1 to
    `0` (white) and -1 to `1` (black), so the all-plus row renders blank.
    """
    if fmt == "csv":
        return ",".join(str(v) for v in row.to_numpy().tolist()) + "\n"
    if fmt == "pbm":
        n = row.order
        if n % 2:
            raise ValueError(f"pbm needs an even order exponent for a square reshape, got n={n}")
        side = 1 << (n // 2)
        bits = (row.to_numpy() == -1).astype(np.uint8)
        lines = (
            "".join("1" if bit else "0" for bit in bits[r * side : (r + 1) * side].tolist())
            for r in range(side)
        )
        return f"P1\n{side} {side}\n" + "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {fmt!r}")
