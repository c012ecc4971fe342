"""Single-pixel imaging simulation and reconstruction.

A single-pixel detector measuring through Hadamard patterns records one
inner product per pattern.  `simulate` reproduces those readings exactly
(noiseless, signed +-1 patterns): a few patterns stream one generated row
each, as the detector sees them, while n or more patterns of an
order-2^n scene are read off one fast transform of the scene.
`reconstruct` inverts the measured coefficients with the fast transform
over just the index bits they use, zero-filling whatever was not
measured.  Scenes travel as portable graymaps (P2 or P5).
"""

from __future__ import annotations

import operator
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    INDEX_BITS_CAP,
    _check_order,
    _first_not_increasing,
    _index_array,
    _integer_array,
    generate_row,
)
from .ordering import OrderingScheme, to_natural_array
from .transform import _divided, _fwht, fwht

__all__ = [
    "MAX_PIXEL",
    "DuplicateIndexError",
    "PgmError",
    "Scene",
    "MeasurementSet",
    "simulate",
    "reconstruct",
    "read_pgm",
    "write_pgm",
]

MAX_PIXEL = 65535


class DuplicateIndexError(ValueError):
    """The same ordered index appears twice in a measurement set."""


class PgmError(ValueError):
    """Malformed portable graymap stream."""


def _is_pow2(value: int) -> bool:
    return value >= 1 and value & (value - 1) == 0


@dataclass(frozen=True)
class Scene:
    """Row-major nonnegative integer image with power-of-two dimensions.

    Pixels must be integers (TypeError otherwise) in [0, MAX_PIXEL].
    """

    pixels: np.ndarray
    width: int
    height: int

    def __post_init__(self) -> None:
        if not (_is_pow2(self.width) and _is_pow2(self.height)):
            raise ValueError(
                f"scene dimensions must be powers of two, got {self.width}x{self.height}"
            )
        size = np.size(self.pixels)
        if size != self.width * self.height:
            raise ValueError(f"expected {self.width * self.height} pixels, got {size}")
        arr = _integer_array(self.pixels, "pixels")
        if int(arr.min()) < 0 or int(arr.max()) > MAX_PIXEL:
            raise ValueError(f"pixel values must lie in [0, {MAX_PIXEL}]")
        object.__setattr__(self, "pixels", arr.astype(np.int64, copy=False))

    @property
    def n(self) -> int:
        """Order exponent: width * height == 2^n."""
        return (self.width * self.height).bit_length() - 1

    def reshaped(self) -> np.ndarray:
        """Pixels as a (height, width) array."""
        return self.pixels.reshape(self.height, self.width)


@dataclass(frozen=True)
class MeasurementSet:
    """Detector readings: (ordered index, inner product) pairs plus context.

    Indices and values must be integers (TypeError otherwise) and n must
    lie in [1, INDEX_BITS_CAP] (`OrderError`).  The indices pass core's
    shared checks: `IndexRangeError` for one outside [0, 2^n),
    `DuplicateIndexError` unless they strictly increase once sorted.
    """

    entries: tuple[tuple[int, int], ...]
    scheme: OrderingScheme
    n: int
    width: int
    height: int

    def __post_init__(self) -> None:
        entries = tuple((operator.index(k), operator.index(y)) for k, y in self.entries)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "scheme", OrderingScheme(self.scheme))
        _check_order(self.n, INDEX_BITS_CAP)
        if self.width < 1 or self.height < 1 or self.width * self.height != 1 << self.n:
            raise ValueError(
                f"sides must be >= 1 with width*height = 2^{self.n}, got {self.width}x{self.height}"
            )
        _distinct_indices(self.indices(), self.n)

    def indices(self) -> list[int]:
        return [k for k, _ in self.entries]


def _distinct_indices(indices, n: int) -> np.ndarray:
    """Indices as a fresh int64 array in their given order, all checked.

    Core's `_index_array` raises TypeError for a non-integer and
    `IndexRangeError` for an index outside [0, 2^n); a repeated index
    raises `DuplicateIndexError`.
    """
    ks = _index_array(indices, n)
    ordered = np.sort(ks)
    t = _first_not_increasing(ordered)
    if t is not None:
        raise DuplicateIndexError(f"ordered index {ordered[t]} measured twice")
    return ks


def simulate(scene: Scene, indices, scheme=OrderingScheme.NATURAL) -> MeasurementSet:
    """Measure `scene` at the given ordered indices, keeping their order.

    y_k is the inner product of ordered row k with the flattened scene.
    `indices` may be any iterable of integers; the whole set is checked
    before any row is measured (see `MeasurementSet` for the errors).

    For an order-2^n scene, fewer than n indices stream one generated row
    each, as the detector sees them: every row is built, dotted with the
    scene and discarded, so the workspace is one row plus its int64 copy.
    From n indices on, one fast transform of the scene yields every
    coefficient at once and each y_k is read off at natural slot
    `to_natural(k)`.  The transform's n*2^n additions cost about what n
    streamed rows do, hence the cutoff at n.  Its workspace is two 2^n
    int64 arrays (the transformed copy of the scene and the transform's
    own buffer), the size of the scene's own pixels twice over.
    """
    scheme = OrderingScheme(scheme)
    if not isinstance(indices, (Sequence, np.ndarray)):
        indices = list(indices)  # numpy makes a 0-d object array of a generator
    ks = _distinct_indices(indices, scene.n)
    naturals = to_natural_array(ks, scene.n, scheme)
    if ks.size >= scene.n:
        values = fwht(scene.pixels).coefficients[naturals].tolist()
    else:
        values = []
        for natural in naturals.tolist():
            row, _ = generate_row(natural, scene.n)
            values.append(int(row.to_numpy().astype(np.int64) @ scene.pixels))
    entries = tuple(zip(ks.tolist(), values))
    return MeasurementSet(entries, scheme, scene.n, scene.width, scene.height)


def reconstruct(measurements: MeasurementSet) -> np.ndarray:
    """Zero-filled inverse-transform estimate of the measured scene.

    Measured values land at their natural-order coefficient slots and the
    missing coefficients stay zero.  A full index set recovers the scene
    exactly (integer dtype); partial sets give the linear estimate, which
    falls back to float64 when 2^n no longer divides evenly.  The result
    has shape (height, width).

    Only the index bits the measured natural slots use are transformed.
    When they all lie in bits l..h-1, a window of w = h - l bits, the
    factorization H_(2^n) = H_(2^(n-h)) (x) H_(2^w) (x) H_(2^l) turns the
    estimate into the window's own inverse transform, repeated 2^l times
    per entry and 2^(n-h) times over: w*2^w additions, then one write of
    the 2^n result.  The workspace is that one output buffer.  Only a
    window spanning every bit needs the transform's spare 2^n buffer; its
    result is whichever of the two buffers the transform ended in.
    Each int64 transform intermediate is a signed subset sum of the values,
    so values whose magnitudes sum past 2^63 - 1 raise ValueError up front
    (a real scene sums to at most 2^(3n/2) * 65535).
    """
    n = measurements.n
    low, window = _natural_coefficients(measurements)
    window = _divided(_fwht(window), n)
    if window.size == 1 << n:
        return window.reshape(measurements.height, measurements.width)
    out = np.empty(1 << n, dtype=window.dtype)
    out.reshape(-1, window.size, 1 << low)[...] = window[None, :, None]
    return out.reshape(measurements.height, measurements.width)


def _natural_coefficients(measurements: MeasurementSet) -> tuple[int, np.ndarray]:
    """The measured values in a window over the natural index bits they use.

    When the natural slots of the measured indices use only bits l..h-1,
    returns l and a zeroed int64 window of 2^(h-l) slots holding each
    value at slot `natural >> l`.  The index arrays are locals here, so
    none is held through the transform's workspace.
    """
    entries = measurements.entries
    if sum(abs(y) for _, y in entries) >= 1 << 63:
        raise ValueError(
            "measurement magnitudes sum beyond 2^63 - 1; the 64-bit transform would overflow"
        )
    ks = np.fromiter((k for k, _ in entries), dtype=np.int64, count=len(entries))
    naturals = to_natural_array(ks, measurements.n, measurements.scheme)
    used = int(np.bitwise_or.reduce(naturals))
    low = (used & -used).bit_length() - 1 if used else 0
    naturals >>= low
    ys = np.fromiter((y for _, y in entries), dtype=np.int64, count=len(entries))
    window = np.zeros(1 << (used.bit_length() - low), dtype=np.int64)
    window[naturals] = ys
    return low, window


# A comment where a token could start, else a token up to the next whitespace.
_PGM_TOKEN = re.compile(rb"#[^\n]*|([^\s#]\S*)")


def _pgm_tokens(data: bytes, start: int, count: int) -> tuple[list[bytes], int]:
    """Scan whitespace-separated header tokens, skipping # comments."""
    tokens: list[bytes] = []
    for match in _PGM_TOKEN.finditer(data, start):
        if match.group(1) is not None:
            tokens.append(match.group(1))
            if len(tokens) == count:
                return tokens, match.end()
    raise PgmError("truncated graymap header")


def read_pgm(data: bytes) -> Scene:
    """Parse a P2 (text) or P5 (binary) graymap into a Scene.

    Raises PgmError for malformed streams, negative text samples included;
    dimension violations (sides not powers of two) surface as the Scene's
    own ValueError.
    """
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"not a P2/P5 graymap (magic {magic!r})")
    tokens, pos = _pgm_tokens(data, 2, 3)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise PgmError("non-numeric graymap header field") from None
    if width < 1 or height < 1:
        raise PgmError(f"graymap dimensions must be positive, got {width}x{height}")
    if not 0 < maxval <= MAX_PIXEL:
        raise PgmError(f"maxval must be in [1, {MAX_PIXEL}], got {maxval}")
    count = width * height
    if magic == b"P5":
        if pos >= len(data) or not data[pos : pos + 1].isspace():
            raise PgmError("missing raster separator after maxval")
        pos += 1
        bytes_per = 2 if maxval > 255 else 1
        raster = data[pos : pos + count * bytes_per]
        if len(raster) < count * bytes_per:
            raise PgmError("truncated graymap raster")
        dtype = ">u2" if bytes_per == 2 else np.uint8
        values = np.frombuffer(raster, dtype=dtype).astype(np.int64)
    else:
        if data.find(b"#", pos) < 0:  # no comments: one split finds every sample
            sample_tokens = data[pos:].split()
            if len(sample_tokens) < count:
                raise PgmError("truncated graymap header")
            del sample_tokens[count:]
        else:
            sample_tokens, _ = _pgm_tokens(data, pos, count)
        try:
            values = np.array([int(t) for t in sample_tokens], dtype=np.int64)
        except ValueError:
            raise PgmError("non-numeric sample in text graymap") from None
        except OverflowError:
            raise PgmError("text graymap sample does not fit in 64 bits") from None
        if int(values.min(initial=0)) < 0:
            raise PgmError("negative sample in text graymap")
    if int(values.max(initial=0)) > maxval:
        raise PgmError("sample exceeds declared maxval")
    return Scene(values, width, height)


def write_pgm(image, maxval: int | None = None, binary: bool = True) -> bytes:
    """Encode a Scene or (height, width) array as P5 (binary) or P2 (text)."""
    if isinstance(image, Scene):
        arr = image.reshaped()
    else:
        arr = np.asarray(image)
        if arr.ndim != 2:
            raise ValueError("image must be a Scene or a 2-d array")
    arr = np.asarray(arr, dtype=np.int64)
    lowest, highest = int(arr.min(initial=0)), int(arr.max(initial=0))
    if lowest < 0:
        raise ValueError("pixels must be nonnegative")
    if maxval is None:
        maxval = 255 if highest <= 255 else MAX_PIXEL
    if not 0 < maxval <= MAX_PIXEL:
        raise ValueError(f"maxval must be in [1, {MAX_PIXEL}], got {maxval}")
    if highest > maxval:
        raise ValueError("pixel exceeds maxval")
    height, width = arr.shape
    header = f"{'P5' if binary else 'P2'}\n{width} {height}\n{maxval}\n".encode("ascii")
    if binary:
        dtype = ">u2" if maxval > 255 else np.uint8
        return header + arr.astype(dtype).tobytes()
    body = "\n".join(" ".join(str(v) for v in row) for row in arr.tolist())
    return header + body.encode("ascii") + b"\n"
