"""Tests for the natural, sequency, and dyadic index permutations."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadrow import (
    IndexRangeError,
    OrderingScheme,
    bit_reverse,
    generate_ordered_row,
    gray_code,
    sign_changes,
    SignVector,
    to_natural,
    to_natural_array,
)

ALL_SCHEMES = list(OrderingScheme)


def test_gray_code_neighbors_differ_in_one_bit():
    for k in range(255):
        assert bin(gray_code(k) ^ gray_code(k + 1)).count("1") == 1


def test_bit_reverse():
    assert bit_reverse(0b10, 2) == 0b01
    assert bit_reverse(0b110, 4) == 0b0110
    assert bit_reverse(0b1011, 4) == 0b1101


def _string_reverse(value, width):
    """Independent reference: reverse the binary digits of the masked value as text."""
    if width == 0:
        return 0
    return int(format(value & ((1 << width) - 1), f"0{width}b")[::-1], 2)


def _string_natural(k, n, scheme):
    scheme = OrderingScheme(scheme)
    if scheme is OrderingScheme.NATURAL:
        return k
    return _string_reverse(k ^ (k >> 1) if scheme is OrderingScheme.SEQUENCY else k, n)


@settings(max_examples=400, deadline=None)
@given(st.data(), st.integers(0, 200))
def test_bit_reverse_matches_string_reversal(data, width):
    # Values reach past 2^width and below zero: only the low width bits count.
    value = data.draw(st.integers(-(1 << (width + 8)), 1 << (width + 8)))
    assert bit_reverse(value, width) == _string_reverse(value, width)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 62), st.sampled_from(ALL_SCHEMES))
def test_maps_match_string_reversal(data, n, scheme):
    ks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20))
    expected = [_string_natural(k, n, scheme) for k in ks]
    assert [to_natural(k, n, scheme) for k in ks] == expected
    for dtype in (np.int64, np.uint64):
        mapped = to_natural_array(np.array(ks, dtype=dtype), n, scheme)
        assert mapped.dtype == np.int64
        assert mapped.tolist() == expected


def test_bit_reverse_rejects_a_negative_width():
    with pytest.raises(ValueError, match="nonnegative"):
        bit_reverse(5, -1)
    assert bit_reverse(5, 0) == 0


def test_numpy_integers_map_to_python_ints():
    assert type(bit_reverse(np.int64(5), 4)) is int
    assert type(bit_reverse(np.uint8(5), np.int32(4))) is int
    for scheme in ALL_SCHEMES:
        natural = to_natural(np.int64(5), 4, scheme)
        assert type(natural) is int
        assert natural == _string_natural(5, 4, scheme)
    assert to_natural(np.int64(5), 4, "dyadic") == 10


def test_array_map_memory_is_two_index_arrays():
    # At most two copies of the positions are live: 16 bytes per index.
    n = 20
    ks = np.arange(1 << n)
    to_natural_array(ks[:8], n, "sequency")  # warm numpy paths
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        to_natural_array(ks, n, "sequency")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base <= 16 * ks.size + 256 * 1024


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("n", [1, 3, 6])
def test_all_schemes_fix_index_zero(scheme, n):
    assert to_natural(0, n, scheme) == 0


def test_sequency_examples_order_four():
    # The natural rows of the order-4 matrix have 0, 3, 1, 2 sign changes,
    # so ordered position 1 must map to natural row 2 and position 3 to row 1.
    assert to_natural(1, 2, OrderingScheme.SEQUENCY) == 2
    assert to_natural(3, 2, OrderingScheme.SEQUENCY) == 1
    assert generate_ordered_row(1, 2, OrderingScheme.SEQUENCY).to_numpy().tolist() == [1, 1, -1, -1]


def test_dyadic_example_order_four():
    assert to_natural(2, 2, OrderingScheme.DYADIC) == 1
    assert generate_ordered_row(2, 2, OrderingScheme.DYADIC).to_numpy().tolist() == [1, -1, 1, -1]


def test_sequency_row_zero_is_flat():
    row = generate_ordered_row(0, 3, OrderingScheme.SEQUENCY)
    assert row.to_numpy().tolist() == [1] * 8


@pytest.mark.parametrize("n", range(1, 13))
def test_natural_is_identity(n):
    for k in range(0, 1 << n, max(1, (1 << n) // 64)):
        assert to_natural(k, n, OrderingScheme.NATURAL) == k


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("n", range(1, 13))
def test_index_map_is_a_bijection(scheme, n):
    image = {to_natural(k, n, scheme) for k in range(1 << n)}
    assert image == set(range(1 << n))


@pytest.mark.parametrize("n", range(1, 9))
def test_sequency_position_equals_sign_change_count(n):
    for k in range(1 << n):
        assert sign_changes(generate_ordered_row(k, n, OrderingScheme.SEQUENCY)) == k


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("n", range(1, 7))
def test_ordering_preserves_orthogonality(scheme, n):
    size = 1 << n
    rows = np.stack(
        [generate_ordered_row(k, n, scheme).to_numpy().astype(np.int64) for k in range(size)]
    )
    assert np.array_equal(rows @ rows.T, size * np.eye(size, dtype=np.int64))


@pytest.mark.parametrize(
    "signs,expected",
    [
        ([1, 1, 1, 1], 0),
        ([1, -1, 1, -1], 3),
        ([1, 1, -1, -1], 1),
        ([1], 0),
    ],
)
def test_sign_changes(signs, expected):
    assert sign_changes(SignVector.from_signs(signs)) == expected


def test_scheme_coercion_from_token():
    assert OrderingScheme("sequency") is OrderingScheme.SEQUENCY
    assert str(OrderingScheme.DYADIC) == "dyadic"
    assert to_natural(3, 2, "sequency") == 1
    with pytest.raises(ValueError):
        OrderingScheme("walsh")


def test_index_out_of_range():
    with pytest.raises(IndexRangeError):
        to_natural(4, 2, OrderingScheme.SEQUENCY)
    with pytest.raises(IndexRangeError):
        generate_ordered_row(-1, 3, OrderingScheme.NATURAL)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("n", [1, 2, 5, 11])
def test_array_map_matches_scalar_map(scheme, n):
    ks = np.arange(1 << n)
    mapped = to_natural_array(ks, n, scheme)
    assert mapped.dtype == np.int64
    assert mapped.tolist() == [to_natural(k, n, scheme) for k in range(1 << n)]


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_array_map_at_the_index_bit_cap(scheme):
    n = 62
    ks = [0, 1, 12345678901234567, (1 << n) - 2, (1 << n) - 1]
    mapped = to_natural_array(np.array(ks, dtype=np.uint64), n, scheme)
    assert mapped.tolist() == [to_natural(k, n, scheme) for k in ks]


def test_array_map_leaves_its_input_alone():
    ks = np.array([1, 2, 3])
    to_natural_array(ks, 2, OrderingScheme.SEQUENCY)
    assert ks.tolist() == [1, 2, 3]


def test_array_map_range_and_type_errors():
    with pytest.raises(IndexRangeError, match=r"row index 4 out of range \[0, 4\)"):
        to_natural_array([0, 4], 2, OrderingScheme.SEQUENCY)
    with pytest.raises(IndexRangeError):
        to_natural_array([-1, 0], 2, OrderingScheme.DYADIC)
    with pytest.raises(TypeError):
        to_natural_array([0.0], 2, OrderingScheme.NATURAL)
    assert to_natural_array([], 2, OrderingScheme.DYADIC).size == 0
