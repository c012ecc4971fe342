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

import itertools
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    INDEX_BITS_CAP,
    _check_order,
    _first_not_increasing,
    _index_array,
    _integer,
    _integer_array,
    generate_row,
)
from .ordering import OrderingScheme, _scheme, to_natural_array
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
# A graymap's raster is encoded about this many bytes at a time, whole
# image rows and at least one (see `_pgm_pieces`).
_PGM_BLOCK_BYTES = 1 << 20


class DuplicateIndexError(ValueError):
    """The same ordered index appears twice in a measurement set."""


class PgmError(ValueError):
    """Malformed portable graymap stream."""


def _is_pow2(value: int) -> bool:
    return value >= 1 and value & (value - 1) == 0


@dataclass(frozen=True)
class Scene:
    """Row-major nonnegative integer image with power-of-two dimensions.

    Pixels and both sides must pass core's integer rule (TypeError for a
    float or a bool), and the sides are stored as Python ints; pixels
    must lie in [0, MAX_PIXEL].
    """

    pixels: np.ndarray
    width: int
    height: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "width", _integer(self.width, "scene sides"))
        object.__setattr__(self, "height", _integer(self.height, "scene sides"))
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


@dataclass(frozen=True, init=False, eq=False, repr=False)
class MeasurementSet:
    """Detector readings: (ordered index, inner product) pairs plus context.

    The set is stored as two columns in the order given: the indices as
    an int64 array and the values as an int64 array (an object array of
    Python ints if one does not fit in 64 bits, which `reconstruct` then
    rejects).  `entries`, the pairs as a tuple of Python ints, is built
    from the columns each time it is read; `simulate` and `hadrow
    reconstruct` hand their arrays straight in and never build it.

    Each entry must be one (index, value) pair (ValueError otherwise),
    both under core's integer rule (TypeError for a non-integer, a bool or
    a sequence), and n must lie in [1, INDEX_BITS_CAP] (`OrderError`).
    Both sides pass the same rule and must multiply to 2^n (ValueError).
    The indices pass core's shared checks: `IndexRangeError` for one
    outside [0, 2^n), `DuplicateIndexError` unless they strictly increase
    once sorted.  Equality and hashing follow the entries and the context.
    """

    scheme: OrderingScheme
    n: int
    width: int
    height: int
    _indices: np.ndarray
    _values: np.ndarray

    def __init__(self, entries, scheme, n: int, width: int, height: int) -> None:
        indices, values = [], []
        for k, y in entries:  # ValueError unless every entry is one (index, value) pair
            indices.append(k)
            values.append(y)
        # Object columns hold a nested index or value whole, for the integer rule to
        # refuse; NumPy would flatten it into the column.
        indices, values = (
            _integer_array(np.fromiter(column, dtype=object), "measurement indices and values")
            for column in (indices, values)
        )
        self._set_columns(indices, values, scheme, n, width, height)

    @classmethod
    def _from_arrays(cls, indices, values, scheme, n: int, width: int, height: int):
        """A set over an index sequence and a value array, checked as the constructor checks.

        An integer `values` array is kept as it is, not copied; None gives
        a zeroed int64 column for the caller to fill.
        """
        measured = cls.__new__(cls)
        measured._set_columns(indices, values, scheme, n, width, height)
        return measured

    def _set_columns(self, indices, values, scheme, n, width, height) -> None:
        object.__setattr__(self, "scheme", _scheme(scheme))
        n = _check_order(n, INDEX_BITS_CAP)
        width, height = _integer(width, "scene sides"), _integer(height, "scene sides")
        if width < 1 or height < 1 or width * height != 1 << n:
            raise ValueError(f"sides must be >= 1 with width*height = 2^{n}, got {width}x{height}")
        ks = _index_array(indices, n)
        ordered = np.sort(ks)
        t = _first_not_increasing(ordered)
        if t is not None:
            raise DuplicateIndexError(f"ordered index {ordered[t]} measured twice")
        if values is None:
            values = np.zeros(ks.size, dtype=np.int64)
        if values.size != ks.size:
            raise ValueError(f"{ks.size} measurement indices but {values.size} values")
        object.__setattr__(self, "_indices", ks)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        """The (ordered index, value) pairs as Python ints, in the order given."""
        return tuple(zip(self._indices.tolist(), self._values.tolist()))

    def indices(self) -> list[int]:
        return self._indices.tolist()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.scheme, self.n, self.width, self.height)
            == (other.scheme, other.n, other.width, other.height)
            and np.array_equal(self._indices, other._indices)
            and np.array_equal(self._values, other._values)
        )

    def __hash__(self) -> int:
        return hash((self.entries, self.scheme, self.n, self.width, self.height))

    def __repr__(self) -> str:
        return (
            f"MeasurementSet(entries={self.entries!r}, scheme={self.scheme!r}, "
            f"n={self.n!r}, width={self.width!r}, height={self.height!r})"
        )


def simulate(scene: Scene, indices, scheme=OrderingScheme.NATURAL) -> MeasurementSet:
    """Measure `scene` at the given ordered indices, keeping their order.

    y_k is the inner product of ordered row k with the flattened scene.
    `indices` may be any iterable of integers.  The returned set is built
    first, which checks the whole index set once, before any row is
    measured (see `MeasurementSet` for the errors); its zeroed value
    column is then filled in place.

    For an order-2^n scene, fewer than n indices stream one generated row
    each, as the detector sees them: every row is built, dotted with the
    scene and discarded, so the workspace is one row plus its int64 copy.
    From n indices on, one fast transform of the scene yields every
    coefficient at once and each y_k is read off at natural slot
    `to_natural(k)`.  The cutoff at n is untuned (streamed rows measured
    as costly as the transform at about 2-14 rows for n = 10..22); it
    stays until a benchmark times partial sets.  The transform's
    workspace is two 2^n int64 arrays (the transformed copy of the scene
    and the transform's own buffer), the scene's own pixels twice over.

    Either way no per-entry Python object is made.
    """
    if not isinstance(indices, (Sequence, np.ndarray)):
        indices = list(indices)  # numpy makes a 0-d object array of a generator
    measured = MeasurementSet._from_arrays(indices, None, scheme, scene.n, scene.width, scene.height)
    naturals = to_natural_array(measured._indices, scene.n, measured.scheme)
    values = measured._values
    if values.size >= scene.n:
        np.take(fwht(scene.pixels).coefficients, naturals, out=values)
    else:
        for slot, natural in enumerate(naturals.tolist()):
            row, _ = generate_row(natural, scene.n)
            values[slot] = row.to_numpy().astype(np.int64) @ scene.pixels
    return measured


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
    the 2^n result into one fresh output.  The workspace peaks at the
    window plus that output, 2^w + 2^n entries (two 2^n buffers at full
    sampling); the transform's spare buffer is window-sized.
    Each int64 transform intermediate is a signed subset sum of the values,
    so values whose magnitudes sum past 2^63 - 1 raise ValueError up front
    (a real scene sums to at most 2^(3n/2) * 65535).
    """
    n = measurements.n
    low, window = _natural_coefficients(measurements)
    window = _divided(_fwht(window), n)
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
    ys = measurements._values
    # count * max|y| bounds the sum from above; only past 2^63 is the exact sum needed.
    peak = max(int(ys.max(initial=0)), -int(ys.min(initial=0)))
    if ys.size * peak >= 1 << 63 and sum(abs(y) for y in ys.tolist()) >= 1 << 63:
        raise ValueError(
            "measurement magnitudes sum beyond 2^63 - 1; the 64-bit transform would overflow"
        )
    naturals = to_natural_array(measurements._indices, measurements.n, measurements.scheme)
    used = int(np.bitwise_or.reduce(naturals))
    low = (used & -used).bit_length() - 1 if used else 0
    naturals >>= low
    window = np.zeros(1 << (used.bit_length() - low), dtype=np.int64)
    window[naturals] = ys
    return low, window


# A comment where a token could start, else a token up to the next whitespace.
_PGM_TOKEN = re.compile(rb"#[^\n]*|([^\s#]\S*)")
# A comment where a token could start: a '#' with no non-space just before it.
_PGM_COMMENT = re.compile(rb"#(?<!\S#)[^\n]*")


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
        sample_tokens = _PGM_COMMENT.sub(b"", data[pos:]).split()
        if len(sample_tokens) < count:
            raise PgmError("truncated graymap raster")
        del sample_tokens[count:]
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
    """Encode a Scene or (height, width) array as P5 (binary) or P2 (text).

    Pixels and maxval pass core's integer rule: TypeError for a float or a
    bool, so round and cast an estimate first.  An integer array is read
    as it is.  An empty image raises ValueError: no graymap has a zero side.
    The graymap is returned whole, joined from the same ~1 MiB blocks that
    `hadrow reconstruct` writes one at a time.
    """
    return b"".join(_pgm_pieces(image, maxval, binary))


def _pgm_pieces(image, maxval: int | None = None, binary: bool = True) -> Iterator:
    """`write_pgm`'s checks, run now, then an iterator of its bytes-like pieces.

    The header comes first, then the raster encoded one block of whole
    image rows at a time: about _PGM_BLOCK_BYTES of P5 samples and at least
    one row, the P2 text cut by the same rows.  Each block is encoded only
    when the iterator reaches it, so a sink that writes and drops each piece
    never holds the encoded raster whole.
    """
    if isinstance(image, Scene):
        image = image.reshaped()
    shape = np.shape(image)
    if len(shape) != 2 or 0 in shape:
        raise ValueError(f"image must be a Scene or a nonempty 2-d array, got shape {shape}")
    arr = _integer_array(image, "pixels").reshape(shape)
    lowest, highest = int(arr.min()), int(arr.max())
    if lowest < 0:
        raise ValueError("pixels must be nonnegative")
    if maxval is None:
        maxval = 255 if highest <= 255 else MAX_PIXEL
    maxval = _integer(maxval, "maxvals")
    if not 0 < maxval <= MAX_PIXEL:
        raise ValueError(f"maxval must be in [1, {MAX_PIXEL}], got {maxval}")
    if highest > maxval:
        raise ValueError("pixel exceeds maxval")
    height, width = arr.shape
    header = f"{'P5' if binary else 'P2'}\n{width} {height}\n{maxval}\n".encode("ascii")
    sample_bytes = 2 if maxval > 255 else 1
    rows = max(1, _PGM_BLOCK_BYTES // (width * sample_bytes))
    blocks = (arr[top : top + rows] for top in range(0, height, rows))
    if binary:
        dtype = ">u2" if sample_bytes == 2 else np.uint8
        raster = (block.astype(dtype).data for block in blocks)
    else:
        raster = (
            "".join(" ".join(map(str, row)) + "\n" for row in block.tolist()).encode("ascii")
            for block in blocks
        )
    return itertools.chain((header,), raster)
