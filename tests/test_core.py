"""Unit tests for single-row generation, its oracles, and sign packing."""

import gc
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hadrow import (
    BASE_MATRIX,
    BitString,
    IndexRangeError,
    MeasurementSet,
    OpCounter,
    OrderError,
    SignVector,
    dec2bin,
    direct_row,
    full_matrix,
    OrderingScheme,
    PatternWriter,
    generate_row,
    generate_rows,
    kron,
    predicted_cost,
    to_natural,
    to_natural_array,
    write_patterns,
)

# Row 6 of the order-16 matrix, cross-checked against both oracles below.
GOLDEN_ROW_6_N4 = [1, 1, -1, -1, -1, -1, 1, 1, 1, 1, -1, -1, -1, -1, 1, 1]


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


sign_lists = st.integers(0, 8).flatmap(
    lambda k: st.lists(st.sampled_from([1, -1]), min_size=1 << k, max_size=1 << k)
)


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

    @pytest.mark.parametrize("n", [1, 2, 3, 9, 14])
    def test_to_numpy_is_fresh_and_matches_unpackbits(self, n):
        row = generate_row((1 << n) - 1, n)[0]
        bits = np.unpackbits(np.frombuffer(row.packed, dtype=np.uint8), count=1 << n)
        first = row.to_numpy()
        assert first.dtype == np.int8
        assert np.array_equal(first, 1 - 2 * bits.astype(np.int8))
        first[:] = 0
        assert np.array_equal(row.to_numpy(), 1 - 2 * bits.astype(np.int8))

    def test_rejects_wrong_storage_size(self):
        with pytest.raises(ValueError):
            SignVector.from_packed(b"\x00\x00", 8)

    def test_order_property(self):
        assert generate_row(0, 5)[0].order == 5


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

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_full_matrix_exhaustively(self, n):
        rows = full_matrix(n)
        for i in range(1 << n):
            assert generate_row(i, n)[0] == rows[i]

    @pytest.mark.parametrize("n", range(11, 23))
    def test_matches_direct_row_spot(self, n):
        # Fewer samples past n=16, where each oracle row costs milliseconds.
        rng = np.random.default_rng(n)
        samples = 1000 if n <= 16 else 6
        for i in map(int, rng.integers(0, 1 << n, size=samples)):
            assert generate_row(i, n)[0] == direct_row(i, n)

    def test_row_at_order_22_peaks_at_twice_its_packed_size(self):
        n = 22
        generate_row(1, n)  # warm numpy paths before measuring
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
        assert peak - baseline <= 2 * (1 << n) // 8 + 64 * 1024

    @pytest.mark.parametrize("n", range(1, 17))
    def test_counter_matches_closed_form(self, n):
        rng = np.random.default_rng(n)
        for i in map(int, rng.integers(0, 1 << n, size=5)):
            assert generate_row(i, n)[1].multiplications == predicted_cost(n)

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
@pytest.mark.parametrize(
    "ks", [[2**70], [0, -(2**70)], [0, 2**64], [-1, 2**63]], ids=["2^70", "-2^70", "2^64", "-1,2^63"]
)
def test_indices_beyond_64_bits_are_out_of_range(caller, ks):
    # Python ints that fit no 64-bit dtype reach the one shared range check.
    with pytest.raises(IndexRangeError):
        INDEX_SET_CALLERS[caller](ks)


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
