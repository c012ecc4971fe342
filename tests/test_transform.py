"""Tests for the fast Walsh-Hadamard transform and its inverse."""

import tracemalloc

import numpy as np
import pytest

from hadrow import (
    MeasurementSet,
    OrderingScheme,
    Scene,
    Spectrum,
    fwht,
    generate_row,
    ifwht,
    reconstruct,
    simulate,
)


def stacked_fwht(x: np.ndarray) -> np.ndarray:
    """Reference network: one fresh array per level, built with np.stack."""
    v = x.copy()
    half = 1
    while half < v.size:
        pairs = v.reshape(-1, 2, half)
        v = np.stack(
            (pairs[:, 0, :] + pairs[:, 1, :], pairs[:, 0, :] - pairs[:, 1, :]),
            axis=1,
        ).reshape(-1)
        half *= 2
    return v


@pytest.mark.parametrize("dtype", ["int64", "float64"])
@pytest.mark.parametrize("n", range(1, 23))
def test_matches_stacked_reference_byte_for_byte(n, dtype):
    rng = np.random.default_rng(1000 + n)
    if dtype == "int64":
        x = rng.integers(-(1 << 40), 1 << 40, size=1 << n)
    else:
        x = rng.standard_normal(1 << n)
    out = fwht(x).coefficients
    assert out.dtype == x.dtype
    assert out.tobytes() == stacked_fwht(x).tobytes()


def test_delta_maps_to_all_ones():
    assert fwht([1, 0, 0, 0]).coefficients.tolist() == [1, 1, 1, 1]


@pytest.mark.parametrize("n", [1, 3, 5])
def test_constant_concentrates_in_first_coefficient(n):
    out = fwht([7] * (1 << n)).coefficients
    assert out[0] == 7 * (1 << n)
    assert not out[1:].any()


def test_known_order_four_vector():
    spectrum = fwht([1, 2, 3, 4])
    assert spectrum.coefficients.tolist() == [10, -2, -4, 0]
    assert spectrum.n == 2


@pytest.mark.parametrize("n", range(1, 9))
def test_coefficients_are_row_inner_products(n):
    rng = np.random.default_rng(n)
    x = rng.integers(-50, 50, size=1 << n)
    coeffs = fwht(x).coefficients
    for i in range(1 << n):
        row = generate_row(i, n)[0].to_numpy().astype(np.int64)
        assert coeffs[i] == int(row @ x)


@pytest.mark.parametrize("n", range(1, 13))
def test_involution_up_to_scale(n):
    rng = np.random.default_rng(n + 31)
    x = rng.integers(-1000, 1000, size=1 << n)
    twice = fwht(fwht(x).coefficients).coefficients
    assert np.array_equal(twice, (1 << n) * x)


@pytest.mark.parametrize("n", range(1, 11))
def test_parseval_integer_exact(n):
    rng = np.random.default_rng(n + 77)
    x = rng.integers(-200, 200, size=1 << n)
    coeffs = fwht(x).coefficients
    # exact big-int arithmetic on both sides
    lhs = sum(int(c) ** 2 for c in coeffs)
    rhs = (1 << n) * sum(int(v) ** 2 for v in x)
    assert lhs == rhs


def test_ifwht_flat_spectrum():
    assert ifwht(Spectrum(np.array([4, 0, 0, 0]), 2)).tolist() == [1, 1, 1, 1]


def test_ifwht_known_vector():
    out = ifwht(Spectrum(np.array([10, -2, -4, 0]), 2))
    assert out.tolist() == [1, 2, 3, 4]
    assert out.dtype == np.int64


def test_ifwht_inverts_fwht():
    x = [1, 2, 3, 4]
    assert ifwht(fwht(x)).tolist() == x


def test_ifwht_falls_back_to_float_when_inexact():
    out = ifwht(Spectrum(np.array([1, 0, 0, 0]), 2))
    assert out.dtype == np.float64
    assert out.tolist() == [0.25, 0.25, 0.25, 0.25]


def test_float_input_stays_float():
    spectrum = fwht(np.array([0.5, 1.5]))
    assert spectrum.coefficients.dtype == np.float64
    assert spectrum.coefficients.tolist() == [2.0, -1.0]
    assert ifwht(spectrum).tolist() == [0.5, 1.5]


def test_input_is_not_mutated():
    x = np.array([1, 2, 3, 4])
    fwht(x)
    assert x.tolist() == [1, 2, 3, 4]


@pytest.mark.parametrize("bad", [[1, 2, 3], [], [[1, 2], [3, 4]]])
def test_rejects_non_power_of_two_shapes(bad):
    with pytest.raises(ValueError):
        fwht(bad)


def test_spectrum_validates_length():
    with pytest.raises(ValueError):
        Spectrum(np.array([1, 2, 3]), 2)


def test_strided_input_matches_reference():
    x = np.random.default_rng(5).standard_normal(1 << 9)[::2]
    assert fwht(x).coefficients.tobytes() == stacked_fwht(x).tobytes()


@pytest.mark.parametrize("coeffs", [[10, -2, -4, 0], [1.0, 0.5, 0.25, 0.0], [1, 0, 0, 0]])
def test_ifwht_leaves_its_spectrum_unchanged(coeffs):
    arr = np.array(coeffs)
    spectrum = Spectrum(arr, 2)
    ifwht(spectrum)
    assert spectrum.coefficients is arr
    assert arr.tolist() == coeffs


def test_reconstruct_peak_memory_is_bounded():
    n = 20
    measured = MeasurementSet(((0, 5 << n), (3, 1 << n)), OrderingScheme.SEQUENCY, n, 1024, 1024)
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        estimate = reconstruct(measured)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert estimate.dtype == np.int64
    # the int64 output buffer; the two-slot window's transform is negligible
    assert peak - baseline <= 3 * 8 * (1 << n) + (1 << 20)


def _reconstruct_peak(measured):
    """The estimate and the tracemalloc peak of one reconstruct call, above what was live."""
    reconstruct(measured)  # warm caches before measuring
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        estimate = reconstruct(measured)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return estimate, peak - baseline


@pytest.mark.parametrize("scale,dtype", [(1 << 20, np.int64), (1, np.float64)])
def test_low_sequency_reconstruct_holds_one_output_buffer(scale, dtype):
    # Sequency 0..255 at n = 20 use natural bits 12..19 only: an 8-bit
    # window, broadcast into one 8-byte-per-pixel output.
    n = 20
    entries = tuple((k, (k % 7 - 3) * scale) for k in range(256))
    measured = MeasurementSet(entries, OrderingScheme.SEQUENCY, n, 1024, 1024)
    estimate, peak = _reconstruct_peak(measured)
    assert estimate.dtype == dtype
    assert peak <= 8 * (1 << n) + (1 << 20)


def test_full_sampling_reconstruct_adds_no_broadcast_copy():
    # A window over every bit returns the buffer the transform ended in,
    # with no broadcast into a further 2^n output.
    n = 16
    scene = Scene(np.random.default_rng(16).integers(0, 65536, size=1 << n), 256, 256)
    estimate, peak = _reconstruct_peak(simulate(scene, range(1 << n), "sequency"))
    assert np.array_equal(estimate, scene.reshaped())
    assert peak <= 3 * 8 * (1 << n) + (1 << 20)


@pytest.mark.parametrize(
    "transform,values",
    [(fwht, "int"), (fwht, "float"), (ifwht, "exact"), (ifwht, "inexact"), (ifwht, "float")],
)
def test_transform_workspace_is_one_spare_buffer(transform, values):
    # The widened copy of the input plus one spare buffer of the same
    # size, with no NumPy casting or ufunc buffers on top.
    n = 16
    rng = np.random.default_rng(n)
    if values == "float":
        x = rng.standard_normal(1 << n)
    else:
        x = rng.integers(0, 65536, size=1 << n) << (n if values == "exact" else 0)
    transform(x)  # warm caches before measuring
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        transform(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - baseline <= 2 * 8 * (1 << n) + (64 << 10)
