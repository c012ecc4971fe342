"""Unit tests for single-row generation, its oracles, and sign packing."""

import copy
import dataclasses
import gc
import io
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hadrow import core
from hadrow import (
    BASE_MATRIX,
    BitString,
    IndexRangeError,
    MeasurementSet,
    OpCounter,
    OrderError,
    SignVector,
    bit_reverse,
    dec2bin,
    direct_row,
    full_matrix,
    OrderingScheme,
    PatternWriter,
    generate_ordered_row,
    generate_row,
    generate_rows,
    kron,
    predicted_cost,
    read_patterns,
    to_natural,
    to_natural_array,
    write_patterns,
)

# Row 6 of the order-16 matrix, cross-checked against both oracles below.
GOLDEN_ROW_6_N4 = [1, 1, -1, -1, -1, -1, 1, 1, 1, 1, -1, -1, -1, -1, 1, 1]


def _assert_unpacks_fresh(row):
    """`row.to_numpy()` equals 1 - 2 * unpackbits of its bytes, as a fresh int8 array."""
    bits = np.unpackbits(np.frombuffer(row.packed, dtype=np.uint8), count=len(row))
    expected = 1 - 2 * bits.astype(np.int8)
    first, second = row.to_numpy(), row.to_numpy()
    assert first.dtype == np.int8 and first.flags.writeable
    assert first.ndim == 1 and first.flags.c_contiguous and first.shape == (len(row),)
    assert np.array_equal(first, expected)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, core._SIGNS)
    first[:] = 0
    assert np.array_equal(second, expected)
    assert np.array_equal(row.to_numpy(), expected)


class TestDec2Bin:
    @pytest.mark.parametrize(
        "i,n,digits",
        [
            (6, 4, (0, 1, 1, 0)),
            (0, 3, (0, 0, 0)),
            (5, 3, (1, 0, 1)),
        ],
    )
    def test_examples(self, i, n, digits):
        bits = dec2bin(i, n)
        assert bits.digits == digits
        assert bits.width == n
        assert bits.source_index == i

    @given(
        st.integers(1, 62).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))
        )
    )
    def test_round_trip(self, case):
        n, i = case
        bits = dec2bin(i, n)
        assert bits.to_index() == i
        # positional weights, low digit last
        assert sum(d << (n - 1 - pos) for pos, d in enumerate(bits.digits)) == i

    def test_index_out_of_range(self):
        with pytest.raises(IndexRangeError):
            dec2bin(8, 3)
        with pytest.raises(IndexRangeError):
            dec2bin(-1, 3)

    @pytest.mark.parametrize("n", [0, -2, 63])
    def test_invalid_order(self, n):
        with pytest.raises(OrderError):
            dec2bin(0, n)

    def test_bitstring_rejects_mismatched_digits(self):
        with pytest.raises(ValueError):
            BitString((1, 0), 1, 2)
        with pytest.raises(ValueError):
            BitString((0, 2), 2, 2)

    def test_bitstring_rejects_a_width_mismatch(self):
        with pytest.raises(ValueError, match="^width 3 does not match 2 digits$"):
            BitString((1, 0), 2, 3)


sign_lists = st.integers(0, 8).flatmap(
    lambda k: st.lists(st.sampled_from([1, -1]), min_size=1 << k, max_size=1 << k)
)


class _Size:
    """An int-like value with `__index__` only, which `bytes()` reads as a size."""

    def __init__(self, k):
        self.k = k

    def __index__(self):
        return self.k


def _order_and_packed_bytes(n):
    size = ((1 << n) + 7) // 8
    return st.tuples(st.just(n), st.binary(min_size=size, max_size=size))


class TestSignVector:
    def test_base_row_packs_to_0x40(self):
        assert SignVector.from_signs([1, -1]).packed == b"\x40"

    def test_all_plus_row_packs_to_zero_bytes(self):
        vec = generate_row(0, 3)[0]
        assert vec.packed == b"\x00"
        assert vec.negative_count() == 0

    def test_packed_size_is_ceil_length_over_8(self):
        for n in range(0, 7):
            vec = SignVector.from_signs([1] * (1 << n))
            assert len(vec.packed) == ((1 << n) + 7) // 8

    @given(sign_lists)
    def test_pack_unpack_identity(self, signs):
        vec = SignVector.from_signs(signs)
        assert vec.to_numpy().tolist() == signs
        assert list(vec) == signs
        again = SignVector.from_packed(vec.packed, vec.length)
        assert again == vec

    def test_getitem(self):
        vec = SignVector.from_signs(GOLDEN_ROW_6_N4)
        for t, expected in enumerate(GOLDEN_ROW_6_N4):
            assert vec[t] == expected
        assert vec[-1] == GOLDEN_ROW_6_N4[-1]
        with pytest.raises(IndexError):
            vec[16]

    def test_negative_count_is_packed_popcount(self):
        vec = SignVector.from_signs(GOLDEN_ROW_6_N4)
        assert vec.negative_count() == GOLDEN_ROW_6_N4.count(-1)

    def test_negated(self):
        vec = SignVector.from_signs(GOLDEN_ROW_6_N4)
        flipped = vec.negated()
        assert flipped.to_numpy().tolist() == [-v for v in GOLDEN_ROW_6_N4]
        assert flipped.negated() == vec

    def test_dot_matches_elementwise_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            a = rng.choice([-1, 1], size=1 << n)
            b = rng.choice([-1, 1], size=1 << n)
            got = SignVector.from_signs(a).dot(SignVector.from_signs(b))
            assert got == int(np.dot(a.astype(np.int64), b.astype(np.int64)))

    def test_dot_length_mismatch(self):
        with pytest.raises(ValueError):
            SignVector.from_signs([1, 1]).dot(SignVector.from_signs([1, 1, 1, 1]))

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            SignVector.from_signs([1, 0])
        with pytest.raises(ValueError):
            SignVector.from_signs([1, -2])

    def test_rejects_non_power_of_two_length(self):
        with pytest.raises(ValueError):
            SignVector.from_signs([1, 1, 1])

    def test_rejects_dirty_padding(self):
        with pytest.raises(ValueError):
            SignVector.from_packed(b"\x41", 2)  # low bits must stay zero

    @pytest.mark.parametrize("n", [*range(1, 17), 22])
    def test_to_numpy_is_fresh_and_matches_unpackbits(self, n):
        _assert_unpacks_fresh(generate_row((1 << n) - 1, n)[0])

    def test_to_numpy_unpacks_every_16_bit_word(self):
        # One 2^20-entry row whose words count through all 65536 table entries.
        row = SignVector(np.arange(1 << 16, dtype=">u2").tobytes(), 1 << 20)
        _assert_unpacks_fresh(row)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_to_numpy_of_one_byte_rows(self, n):
        # Every clean byte of a 2-, 4- or 8-entry row, padded to one word before the lookup.
        for byte in range(0, 256, 1 << (8 - (1 << n))):
            _assert_unpacks_fresh(SignVector(bytes((byte,)), 1 << n))

    @given(st.integers(1, 12).flatmap(_order_and_packed_bytes))
    def test_to_numpy_of_random_packed_rows(self, case):
        n, data = case  # rows of n < 3 get their padding bits cleared
        pad = 8 * len(data) - (1 << n)
        data = data[:-1] + bytes((data[-1] & (0xFF << pad) & 0xFF,))
        _assert_unpacks_fresh(SignVector(data, 1 << n))

    def test_rejects_wrong_storage_size(self):
        with pytest.raises(ValueError):
            SignVector.from_packed(b"\x00\x00", 8)

    def test_order_property(self):
        assert generate_row(0, 5)[0].order == 5

    def test_rejects_a_length_that_is_not_a_power_of_two(self):
        with pytest.raises(ValueError, match="^length must be a power of two, got 3$"):
            SignVector(b"\x00", 3)

    @pytest.mark.parametrize("values", [[], [[1, -1], [-1, 1]]], ids=["empty", "2-d"])
    def test_from_signs_rejects_empty_and_2d_input(self, values):
        with pytest.raises(ValueError, match="non-empty 1-d sequence"):
            SignVector.from_signs(values)

    @pytest.mark.parametrize(
        "values",
        [[True, True], np.array([True, True]), [1.0, -1.0], [1, True], np.array([1.0, -1.0])],
        ids=["bool-list", "bool-array", "float-list", "int-and-bool-list", "float-array"],
    )
    def test_from_signs_rejects_bools_and_floats(self, values):
        # The one integer rule: +1/-1 written as a bool or a float is not an integer entry.
        with pytest.raises(TypeError):
            SignVector.from_signs(values)

    @pytest.mark.parametrize("dtype", list(np.typecodes["AllInteger"]))
    def test_from_signs_packs_every_integer_dtype(self, dtype):
        signed = np.dtype(dtype).kind == "i"
        signs = [1, -1, -1, 1] if signed else [1, 1, 1, 1]
        vec = SignVector.from_signs(np.array(signs, dtype=dtype))
        assert vec == SignVector.from_signs(signs)
        assert vec.packed == (b"\x60" if signed else b"\x00")

    @pytest.mark.parametrize("data", [bytearray(b"\x40"), memoryview(b"\x40"), np.uint8([0x40])])
    def test_from_packed_stores_any_bytes_like_as_bytes(self, data):
        vec = SignVector.from_packed(data, 2)
        assert type(vec.packed) is bytes
        assert vec == SignVector.from_signs([1, -1])

    @pytest.mark.parametrize(
        "packed,length",
        [(2, 16), (1, 8), (True, 8), (np.int64(2), 16), (np.bool_(True), 8),
         (np.array(2, np.uint8), 16), (_Size(2), 16)],
        ids=["int", "int-one-byte", "bool", "numpy-int", "numpy-bool", "0-d-array", "index"],
    )
    def test_integer_packed_is_refused_not_read_as_a_size(self, packed, length):
        # bytes(2) is two zero bytes: read as storage, these were all-plus rows.
        for make in (SignVector, SignVector.from_packed):
            with pytest.raises(TypeError, match="^packed storage must be bytes-like, got "):
                make(packed, length)

    @pytest.mark.parametrize(
        "length,error",
        [(True, "^row lengths must be integers, got True$"),
         (np.bool_(True), "^row lengths must be integers, got "),
         (16.0, "cannot be interpreted as an integer$"),
         (np.float64(16), "cannot be interpreted as an integer$"),
         (np.int64(16), None), (np.uint8(16), None)],
        ids=["bool", "numpy-bool", "float", "numpy-float", "numpy-int64", "numpy-uint8"],
    )
    def test_length_follows_the_integer_rule(self, length, error):
        # A bool length once built an order-0 row; a float one failed on `&`.
        for make in (SignVector, SignVector.from_packed):
            if error:
                with pytest.raises(TypeError, match=error):
                    make(b"\x00\x00", length)
            else:
                row = make(b"\x00\x00", length)
                assert type(row.length) is int and row.length == 16
                assert row == SignVector(b"\x00\x00", 16)

    def test_zero_d_bytes_array_is_stored_as_its_buffer(self):
        vec = SignVector(np.array(b"\x40\x00"), 16)
        assert type(vec.packed) is bytes and vec.packed == b"\x40\x00"

    def test_huge_integer_packed_is_refused_before_any_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(TypeError):
                SignVector(1 << 24, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_repr_lists_short_rows_and_sizes_long_ones(self):
        assert repr(SignVector.from_signs([1, -1, -1, 1])) == "SignVector([1,-1,-1,1])"
        assert repr(generate_row(6, 4)[0]) == f"SignVector([{','.join(map(str, GOLDEN_ROW_6_N4))}])"
        assert repr(generate_row(6, 5)[0]) == "SignVector(length=32)"


def _rows_of_every_source():
    data = write_patterns([(3, generate_ordered_row(3, 4, "sequency"))], 4, "sequency")
    return {
        "generate_row": generate_row(6, 4)[0],
        "generate_ordered_row": generate_ordered_row(5, 14, "sequency"),
        "direct_row": direct_row(9, 5),
        "from_signs": SignVector.from_signs([1, -1]),
        "kron": kron(SignVector.from_signs([1, -1]), SignVector.from_signs([1, 1])),
        "read_patterns": read_patterns(data)[1][0][1],
    }


_COPIES = {
    **{f"pickle-{p}": lambda row, p=p: pickle.loads(pickle.dumps(row, p))
       for p in range(pickle.HIGHEST_PROTOCOL + 1)},
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


class TestSlottedRow:
    @pytest.mark.parametrize("source", list(_rows_of_every_source()))
    def test_rows_carry_no_dict(self, source):
        row = _rows_of_every_source()[source]
        assert not hasattr(row, "__dict__")
        assert type(row.packed) is bytes

    @pytest.mark.parametrize("how", list(_COPIES))
    @pytest.mark.parametrize("source", list(_rows_of_every_source()))
    def test_copies_are_equal_rows_with_equal_hashes(self, source, how):
        row = _rows_of_every_source()[source]
        again = _COPIES[how](row)
        assert type(again) is SignVector and not hasattr(again, "__dict__")
        assert again == row and hash(again) == hash(row)
        assert (again.packed, again.length) == (row.packed, row.length)
        assert np.array_equal(again.to_numpy(), row.to_numpy())

    @pytest.mark.parametrize("field", ["packed", "length"])
    def test_fields_cannot_be_assigned(self, field):
        row = generate_row(6, 4)[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(row, field, getattr(row, field))
        assert row == SignVector.from_signs(GOLDEN_ROW_6_N4)


class TestKron:
    @pytest.mark.parametrize(
        "a,b,expected,cost",
        [
            ([1], [1, -1], [1, -1], 2),
            ([1, -1], [1, 1], [1, 1, -1, -1], 4),
            ([1, 1], [1, -1], [1, -1, 1, -1], 4),
        ],
    )
    def test_examples(self, a, b, expected, cost):
        counter = OpCounter()
        out = kron(SignVector.from_signs(a), SignVector.from_signs(b), counter)
        assert out.to_numpy().tolist() == expected
        assert counter.multiplications == cost

    def test_counter_accumulates(self):
        counter = OpCounter()
        two = SignVector.from_signs([1, -1])
        kron(two, two, counter)
        kron(two, two, counter)
        assert counter.multiplications == 8

    def test_counter_is_optional(self):
        two = SignVector.from_signs([1, -1])
        assert kron(two, two).to_numpy().tolist() == [1, -1, -1, 1]

    def test_result_length_cap(self):
        big = generate_row(0, 16)[0]
        with pytest.raises(OrderError):
            kron(big, big)

    def test_counter_rejects_negative_charge(self):
        with pytest.raises(ValueError):
            OpCounter().add(-1)


class TestGenerateRow:
    def test_golden_row(self):
        row, counter = generate_row(6, 4)
        assert row.to_numpy().tolist() == GOLDEN_ROW_6_N4
        assert counter.multiplications == 30

    @pytest.mark.parametrize("n", [1, 3, 7, 12])
    def test_row_zero_is_all_plus(self, n):
        row, _ = generate_row(0, n)
        assert row.negative_count() == 0
        assert len(row) == 1 << n

    def test_row_one_order_two(self):
        assert generate_row(1, 1)[0] == BASE_MATRIX.row1

    def test_first_entry_always_plus(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 14))
            i = int(rng.integers(0, 1 << n))
            assert generate_row(i, n)[0][0] == 1

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_full_matrix_exhaustively(self, n):
        rows = full_matrix(n)
        for i in range(1 << n):
            row = generate_row(i, n)[0]
            assert row == rows[i]
            assert row == direct_row(i, n)

    @pytest.mark.parametrize("n", range(11, 23))
    def test_matches_direct_row_spot(self, n):
        # Fewer samples past n=16, where each oracle row costs milliseconds.
        rng = np.random.default_rng(n)
        samples = 1000 if n <= 16 else 6
        for i in map(int, rng.integers(0, 1 << n, size=samples)):
            assert generate_row(i, n)[0] == direct_row(i, n)

    # n = 14..17 cross the switch from doubling bytes to doubling lists at
    # 2^15 entries.  Each single-bit index takes the negation branch at
    # exactly one level; the all-ones index takes it at every level.
    @pytest.mark.parametrize("n", [14, 15, 16, 17, 22])
    def test_matches_direct_row_at_every_negation_level(self, n):
        for i in [1 << b for b in range(n)] + [(1 << n) - 1]:
            assert generate_row(i, n)[0] == direct_row(i, n)

    @pytest.mark.parametrize("n", range(20, 27))
    def test_row_peaks_at_1_05_bits_per_entry_plus_two_stripes(self, n):
        # The joined row, its reference lists and the join's per-item
        # buffers stay under 1.05 bits per entry; the two 4 KiB stripes
        # are a fixed 8 KiB on top (1.09 bits per entry at n = 20 in all).
        gc.collect()
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            row, _ = generate_row((1 << n) - 3, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(row.packed) == (1 << n) // 8
        assert 8 * (peak - baseline - 2 * 4096) <= 1.05 * (1 << n)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_counter_matches_closed_form(self, n):
        rng = np.random.default_rng(n)
        for i in map(int, rng.integers(0, 1 << n, size=5)):
            assert generate_row(i, n)[1].multiplications == predicted_cost(n)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_counter_matches_the_kronecker_chain(self, n):
        # The paper's construction: row i = [1] (x) B[d1] (x) ... (x) B[dn]
        # over the digits of i, charged by kron through one counter.
        for i in range(1 << n):
            counter = OpCounter()
            chain = SignVector.from_signs([1])
            for digit in dec2bin(i, n).digits:
                chain = kron(chain, BASE_MATRIX.row(digit), counter)
            row, charged = generate_row(i, n)
            assert chain == row
            assert counter.multiplications == charged.multiplications

    @pytest.mark.parametrize("n", range(2, 11))
    def test_recursive_halves(self, n):
        rng = np.random.default_rng(n + 100)
        half_len = 1 << (n - 1)
        for i in map(int, rng.integers(0, 1 << n, size=8)):
            row = generate_row(i, n)[0].to_numpy()
            half = generate_row(i % half_len, n - 1)[0].to_numpy()
            assert np.array_equal(row[:half_len], half)
            top = -half if i >= half_len else half
            assert np.array_equal(row[half_len:], top)

    def test_index_out_of_range(self):
        with pytest.raises(IndexRangeError):
            generate_row(8, 3)

    @pytest.mark.parametrize("n", [0, 31])
    def test_invalid_order(self, n):
        with pytest.raises(OrderError):
            generate_row(0, n)


class TestGenerateRows:
    @pytest.mark.parametrize("scheme", list(OrderingScheme))
    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_direct_row_row_for_row(self, n, scheme):
        # Every row up to n=10, 256 sampled ordered positions beyond.
        if n <= 10:
            ks = np.arange(1 << n)
        else:
            ks = np.random.default_rng(n).choice(1 << n, size=256, replace=False)
        block, counter = generate_rows(to_natural_array(ks, n, scheme), n)
        assert block.shape == (ks.size, ((1 << n) + 7) // 8)
        assert block.dtype == np.uint8
        for k, packed in zip(ks.tolist(), block):
            assert packed.tobytes() == direct_row(to_natural(k, n, scheme), n).packed
        assert counter.multiplications == ks.size * predicted_cost(n)

    def test_rows_equal_generate_row_at_order_20(self):
        naturals = [0, 1, 5, (1 << 20) - 1]
        block, _ = generate_rows(naturals, 20)
        for i, packed in zip(naturals, block):
            assert packed.tobytes() == generate_row(i, 20)[0].packed

    @pytest.mark.parametrize("n", [1, 3, 4, 12])
    def test_counter_is_charged_once_per_call(self, n, monkeypatch):
        charges = []
        add = OpCounter.add

        def recording_add(self, count):
            charges.append(count)
            add(self, count)

        monkeypatch.setattr(OpCounter, "add", recording_add)
        _, counter = generate_rows([0, 1, (1 << n) - 1], n)
        assert charges == [3 * predicted_cost(n)]
        assert counter.multiplications == 3 * predicted_cost(n)

    def test_empty_block(self):
        block, counter = generate_rows([], 5)
        assert block.shape == (0, 4)
        assert counter.multiplications == 0

    def test_index_out_of_range(self):
        with pytest.raises(IndexRangeError, match=r"\[0, 8\)"):
            generate_rows([0, 8], 3)
        with pytest.raises(IndexRangeError):
            generate_rows([-1], 3)

    def test_rejects_non_integer_indices(self):
        with pytest.raises(TypeError):
            generate_rows([0.5], 3)

    @pytest.mark.parametrize("n", [0, 31])
    def test_invalid_order(self, n):
        with pytest.raises(OrderError):
            generate_rows([0], n)


# Every caller that takes a set of row indices, fed one of order 2^4.
INDEX_SET_CALLERS = {
    "PatternWriter": lambda ks: PatternWriter(io.BytesIO(), ks, 4, "natural"),
    "write_patterns": lambda ks: write_patterns(
        [(k, generate_row(0, 4)[0]) for k in ks], 4, "natural"
    ),
    "generate_rows": lambda ks: generate_rows(ks, 4),
    "to_natural_array": lambda ks: to_natural_array(ks, 4, "sequency"),
    "MeasurementSet": lambda ks: MeasurementSet(tuple((k, 1) for k in ks), "natural", 4, 4, 4),
}


@pytest.mark.parametrize("caller", list(INDEX_SET_CALLERS))
def test_lowest_index_out_of_range_is_reported(caller):
    with pytest.raises(IndexRangeError, match=r"row index 17 out of range \[0, 16\)"):
        INDEX_SET_CALLERS[caller]([20, 17])


@pytest.mark.parametrize("caller", list(INDEX_SET_CALLERS))
@pytest.mark.parametrize(
    "ks", [[2**70], [0, -(2**70)], [0, 2**64], [-1, 2**63]], ids=["2^70", "-2^70", "2^64", "-1,2^63"]
)
def test_indices_beyond_64_bits_are_out_of_range(caller, ks):
    # Python ints that fit no 64-bit dtype reach the one shared range check.
    with pytest.raises(IndexRangeError):
        INDEX_SET_CALLERS[caller](ks)


@pytest.mark.parametrize("caller", list(INDEX_SET_CALLERS))
@pytest.mark.parametrize("ks", [[0, True], [np.True_, 1]], ids=["True", "np.True_"])
def test_bool_among_indices_is_rejected(caller, ks):
    # NumPy alone would read either list as an int64 array of rows.
    with pytest.raises(TypeError):
        INDEX_SET_CALLERS[caller](ks)


@pytest.mark.parametrize(
    "caller",
    [generate_row, direct_row, dec2bin, lambda i, n: to_natural(i, n, "dyadic"), bit_reverse],
    ids=["generate_row", "direct_row", "dec2bin", "to_natural", "bit_reverse"],
)
@pytest.mark.parametrize("flag", [True, np.True_], ids=["True", "np.True_"])
def test_scalar_index_rejects_bool(caller, flag):
    with pytest.raises(TypeError):
        caller(flag, 3)


ORDER_CALLERS = {
    "generate_row": lambda n: generate_row(1, n),
    "generate_rows": lambda n: generate_rows([1], n),
    "direct_row": lambda n: direct_row(1, n),
    "dec2bin": lambda n: dec2bin(1, n),
    "full_matrix": full_matrix,
    "predicted_cost": predicted_cost,
    "to_natural": lambda n: to_natural(1, n, "dyadic"),
    "to_natural_array": lambda n: to_natural_array([1], n, "sequency"),
    "PatternWriter": lambda n: PatternWriter(io.BytesIO(), [1], n, "natural"),
    "write_patterns": lambda n: write_patterns([], n, "natural"),
    "MeasurementSet": lambda n: MeasurementSet(((1, 0),), "natural", n, 2, 1),
}


@pytest.mark.parametrize("caller", list(ORDER_CALLERS))
@pytest.mark.parametrize("flag", [True, np.True_], ids=["True", "np.True_"])
def test_order_exponent_rejects_bool(caller, flag):
    # 1 <= True <= cap holds, so without the integer rule True reads as order 2^1.
    with pytest.raises(TypeError):
        ORDER_CALLERS[caller](flag)


@pytest.mark.parametrize("caller", list(ORDER_CALLERS))
def test_order_exponent_accepts_numpy_integers(caller):
    ORDER_CALLERS[caller](np.int64(1))


class TestDirectRow:
    def test_row_zero(self):
        assert direct_row(0, 3).to_numpy().tolist() == [1] * 8

    def test_small_example(self):
        assert direct_row(3, 2).to_numpy().tolist() == [1, -1, -1, 1]

    def test_golden_row(self):
        assert direct_row(6, 4).to_numpy().tolist() == GOLDEN_ROW_6_N4

    def test_against_pure_python_popcount(self):
        # independent scalar evaluation, no numpy involved
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            i = int(rng.integers(0, 1 << n))
            expected = [(-1) ** bin(i & j).count("1") for j in range(1 << n)]
            assert direct_row(i, n).to_numpy().tolist() == expected

    def test_index_out_of_range(self):
        with pytest.raises(IndexRangeError):
            direct_row(4, 2)


class TestFullMatrix:
    def test_order_two(self):
        rows = full_matrix(1)
        assert [r.to_numpy().tolist() for r in rows] == [[1, 1], [1, -1]]

    def test_order_four(self):
        rows = full_matrix(2)
        assert [r.to_numpy().tolist() for r in rows] == [
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, 1],
        ]

    @pytest.mark.parametrize("n", [1, 4, 6])
    def test_first_row_all_plus(self, n):
        assert full_matrix(n)[0].negative_count() == 0

    def test_cap(self):
        with pytest.raises(OrderError):
            full_matrix(14)
        with pytest.raises(OrderError):
            full_matrix(0)

    def test_base_matrix_invariants(self):
        assert BASE_MATRIX.row0.dot(BASE_MATRIX.row0) == 2
        assert BASE_MATRIX.row1.dot(BASE_MATRIX.row1) == 2
        assert BASE_MATRIX.row0.dot(BASE_MATRIX.row1) == 0
        with pytest.raises(ValueError):
            BASE_MATRIX.row(2)


class TestPredictedCost:
    @pytest.mark.parametrize("n,expected", [(1, 2), (3, 14), (20, 2097150)])
    def test_values(self, n, expected):
        assert predicted_cost(n) == expected

    @pytest.mark.parametrize("n", [0, 63])
    def test_invalid_order(self, n):
        with pytest.raises(OrderError):
            predicted_cost(n)
