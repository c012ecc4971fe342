"""Fast Walsh-Hadamard transform in natural (Sylvester) coefficient order."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Spectrum", "fwht", "ifwht"]


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


def _widened(x) -> np.ndarray:
    """A fresh contiguous copy of x: int64 for integer input, float64 otherwise.

    ValueError unless x is one-dimensional with a power-of-two length.
    """
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size == 0 or arr.size & (arr.size - 1):
        raise ValueError(f"transform length must be a power of two, got shape {arr.shape}")
    dtype = np.int64 if issubclass(arr.dtype.type, np.integer) else np.float64
    return arr.astype(dtype)


def _fwht(v: np.ndarray) -> np.ndarray:
    """The transform of the contiguous length-2^n array v (see fwht).

    Returns whichever of v and one spare buffer the last level wrote;
    v's contents are lost either way.
    """
    spare = np.empty_like(v)
    half = v.size // 2
    for _ in range(v.size.bit_length() - 1):
        np.add(v[0::2], v[1::2], out=spare[:half])
        np.subtract(v[0::2], v[1::2], out=spare[half:])
        v, spare = spare, v
    return v


def _divided(v: np.ndarray, n: int) -> np.ndarray:
    """v / 2^n, exact where it can be.

    Integer v comes back itself, shifted in place, when every entry
    divides exactly; otherwise the result is a new float64 array.  Nothing
    else of size 2^n is allocated: the test is one OR reduction, and the
    cast comes before the division, so NumPy needs no casting buffers.
    """
    if issubclass(v.dtype.type, np.integer) and not int(np.bitwise_or.reduce(v)) & ((1 << n) - 1):
        v >>= n
        return v
    out = v.astype(np.float64)
    out /= 1 << n
    return out


def fwht(x) -> Spectrum:
    """Multiply x by the order-2^n Hadamard matrix via the butterfly network.

    Coefficient i equals the inner product of natural-order row i with x,
    computed with n*2^n additions and subtractions.  Integer input is
    widened to 64 bits; float input is carried in float64.  x itself is
    never modified.

    The levels run in Pease's constant geometry: each one reads the pairs
    (v[2j], v[2j+1]) and writes their sum to slot j and their difference
    to slot j + 2^(n-1) of the other buffer.  That combines one index bit
    per level, low to high, and moves it to the top, so after n levels
    every bit is back in place.  The operands are those of the plain
    level-by-level network, so float results equal it bit for bit.  The
    workspace beyond the copy of x is one spare buffer of 2^n entries.
    """
    v = _fwht(_widened(x))
    return Spectrum(v, v.size.bit_length() - 1)


def ifwht(spectrum) -> np.ndarray:
    """Invert fwht using H H = 2^n I: transform again, divide by 2^n.

    Integer spectra that divide exactly come back as integers; otherwise
    the result falls back to float64.  The argument is never modified.
    """
    coeffs = spectrum.coefficients if isinstance(spectrum, Spectrum) else spectrum
    v = _fwht(_widened(coeffs))
    return _divided(v, v.size.bit_length() - 1)
