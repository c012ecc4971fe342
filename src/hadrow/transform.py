"""Fast Walsh-Hadamard transform in natural (Sylvester) coefficient order."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Spectrum", "fwht", "ifwht"]

# Source rows per step of the blocked transpose: each step writes 64
# contiguous entries to every output row instead of one.
_BAND = 64


@dataclass(frozen=True)
class Spectrum:
    """Transform coefficients of a length-2^n signal, natural order."""

    coefficients: np.ndarray
    n: int

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if coeffs.ndim != 1 or coeffs.size != 1 << self.n:
            raise ValueError(f"spectrum needs exactly {1 << self.n} coefficients")


def _checked(x) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size == 0 or arr.size & (arr.size - 1):
        raise ValueError(f"transform length must be a power of two, got shape {arr.shape}")
    return arr


def _widened(x) -> np.ndarray:
    """A fresh contiguous copy of x: int64 for integer input, float64 otherwise."""
    arr = _checked(x)
    dtype = np.int64 if issubclass(arr.dtype.type, np.integer) else np.float64
    return arr.astype(dtype)


def _transpose_into(dst: np.ndarray, src: np.ndarray, rows: int, cols: int) -> None:
    """Write the (rows, cols) matrix held in src, transposed, into dst."""
    matrix = src.reshape(rows, cols)
    target = dst.reshape(cols, rows)
    for r in range(0, rows, _BAND):
        target[:, r : r + _BAND] = matrix[r : r + _BAND].T


def _butterflies(v: np.ndarray, scratch: np.ndarray, half: int) -> None:
    """Butterfly levels half, 2*half, ... < v.size of v, in place, low to high.

    Each level turns every pair (a, b) that lies `half` apart into
    (a + b, a - b); the differences pass through `scratch`, a contiguous
    array of at least v.size // 2 entries whose contents are discarded.
    """
    while half < v.size:
        pairs = v.reshape(-1, 2, half)
        low, high = pairs[:, 0, :], pairs[:, 1, :]
        diff = scratch[: low.size].reshape(low.shape)
        np.subtract(low, high, out=diff)
        low += high
        high[...] = diff
        half *= 2


def _fwht_inplace(v: np.ndarray) -> None:
    """Transform the contiguous length-2^n array v in place (see fwht).

    Seen as a (2^a, 2^b) matrix, v holds its low b index bits along the
    rows; in the transposed copy they pair whole rows instead.
    """
    cols = 1 << ((v.size.bit_length() - 1) // 2)
    rows = v.size // cols
    flipped = np.empty_like(v)
    _transpose_into(flipped, v, rows, cols)
    _butterflies(flipped, v, rows)
    _transpose_into(v, flipped, cols, rows)
    _butterflies(v, flipped, cols)


def _divided(v: np.ndarray, n: int) -> np.ndarray:
    """v / 2^n, exact where it can be.

    Integer v comes back itself, shifted in place, when every entry
    divides exactly; otherwise the result is a new float64 array.
    """
    if issubclass(v.dtype.type, np.integer) and not (v & ((1 << n) - 1)).any():
        v >>= n
        return v
    return v / (1 << n)


def fwht(x) -> Spectrum:
    """Multiply x by the order-2^n Hadamard matrix via the butterfly network.

    Coefficient i equals the inner product of natural-order row i with x,
    computed with n*2^n additions and subtractions.  Integer input is
    widened to 64 bits; float input is carried in float64.  x itself is
    never modified.

    The butterflies run in place on one copy of x, split by
    H_(2^n) = H_(2^a) (x) H_(2^b) with b = n // 2: the low b levels run
    on one transposed copy, where every butterfly spans whole contiguous
    rows of 2^a entries, and the high a levels run on the copy after it
    is transposed back.  Each half borrows the other buffer as scratch,
    so the workspace is that one transposed copy of 2^n entries.  Levels
    run low to high, so float results equal the plain level-by-level
    network bit for bit.
    """
    v = _widened(x)
    _fwht_inplace(v)
    return Spectrum(v, v.size.bit_length() - 1)


def ifwht(spectrum) -> np.ndarray:
    """Invert fwht using H H = 2^n I: transform again, divide by 2^n.

    Integer spectra that divide exactly come back as integers; otherwise
    the result falls back to float64.  The argument is never modified.
    """
    coeffs = spectrum.coefficients if isinstance(spectrum, Spectrum) else spectrum
    v = _widened(coeffs)
    _fwht_inplace(v)
    return _divided(v, v.size.bit_length() - 1)
