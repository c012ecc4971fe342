"""Tests for HADP pattern streams and textual row exports."""

import gc
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hadrow import (
    INDEX_BITS_CAP,
    BadMagicError,
    OrderingScheme,
    PatternFormatError,
    PatternWriter,
    SignVector,
    TruncatedStreamError,
    UnsupportedVersionError,
    direct_row,
    export_row_text,
    full_matrix,
    generate_row,
    read_patterns,
    write_patterns,
)
from hadrow.formats import HEADER_SIZE


def _rows_for(n, indices, scheme=OrderingScheme.NATURAL):
    return [(k, generate_row(k, n)[0]) for k in indices]


def _reference_text(signs, fmt):
    """csv or pbm text of a list of +1/-1 entries, built one entry at a time."""
    if fmt == "csv":
        return ",".join(str(v) for v in signs) + "\n"
    side = 1 << (len(signs).bit_length() // 2)
    lines = (
        "".join("1" if v == -1 else "0" for v in signs[r * side : (r + 1) * side]) + "\n"
        for r in range(side)
    )
    return f"P1\n{side} {side}\n" + "".join(lines)


class TestWritePatterns:
    def test_header_and_payload_bytes_order_two(self):
        data = write_patterns(_rows_for(1, [1]), 1, OrderingScheme.NATURAL)
        header = b"HADP" + bytes([1, 1, 0]) + (1).to_bytes(8, "little") + b"\x00"
        assert data == header + (1).to_bytes(8, "little") + b"\x40"

    def test_all_plus_row_payload_is_zero(self):
        data = write_patterns(_rows_for(3, [0]), 3, OrderingScheme.NATURAL)
        assert data[-1:] == b"\x00"

    def test_payload_matches_oracle_matrix(self):
        data = write_patterns(_rows_for(2, range(4)), 2, OrderingScheme.NATURAL)
        expected_payload = b"".join(row.packed for row in full_matrix(2))
        assert data.endswith(expected_payload)
        assert expected_payload == b"\x00\x50\x30\x60"

    def test_deterministic(self):
        rows = _rows_for(4, [0, 3, 9])
        assert write_patterns(rows, 4, "dyadic") == write_patterns(rows, 4, "dyadic")

    def test_rejects_wrong_row_length(self):
        bad = [(0, generate_row(0, 2)[0])]
        with pytest.raises(ValueError):
            write_patterns(bad, 3, OrderingScheme.NATURAL)

    def test_rejects_unsorted_indices(self):
        rows = _rows_for(3, [3]) + _rows_for(3, [1])
        with pytest.raises(ValueError):
            write_patterns(rows, 3, OrderingScheme.NATURAL)

    def test_rejects_duplicate_indices(self):
        rows = _rows_for(3, [2]) + _rows_for(3, [2])
        with pytest.raises(ValueError):
            write_patterns(rows, 3, OrderingScheme.NATURAL)

    def test_rejects_out_of_range_index(self):
        rows = [(9, generate_row(1, 3)[0])]
        with pytest.raises(ValueError):
            write_patterns(rows, 3, OrderingScheme.NATURAL)


class TestPatternWriter:
    def test_streams_the_bytes_write_patterns_returns(self):
        n, indices = 5, [0, 3, 9, 30, 31]
        rows = _rows_for(n, indices)
        out = io.BytesIO()
        writer = PatternWriter(out, np.array(indices), n, "sequency")
        block = np.frombuffer(b"".join(row.packed for _, row in rows), dtype=np.uint8)
        writer.write_rows(block[:8].reshape(2, 4))
        writer.write_rows(block[8:].tobytes())
        writer.finish()
        assert out.getvalue() == write_patterns(rows, n, "sequency")

    def test_header_and_index_block_come_first(self):
        out = io.BytesIO()
        PatternWriter(out, [2, 7], 3, OrderingScheme.DYADIC)
        header = b"HADP" + bytes([1, 3, 2]) + (2).to_bytes(8, "little") + b"\x00"
        assert out.getvalue() == header + (2).to_bytes(8, "little") + (7).to_bytes(8, "little")

    @pytest.mark.parametrize("indices", [[3, 1], [2, 2], [0, 8], [-1]])
    def test_rejects_bad_index_blocks(self, indices):
        with pytest.raises(ValueError):
            PatternWriter(io.BytesIO(), indices, 3, OrderingScheme.NATURAL)

    def test_rejects_partial_rows_and_extra_rows(self):
        writer = PatternWriter(io.BytesIO(), [0, 1], 4, OrderingScheme.NATURAL)
        with pytest.raises(ValueError, match="whole number"):
            writer.write_rows(b"\x00\x00\x00")
        with pytest.raises(ValueError, match="more rows"):
            writer.write_rows(bytes(6))

    def test_finish_requires_one_row_per_index(self):
        writer = PatternWriter(io.BytesIO(), [0, 1], 4, OrderingScheme.NATURAL)
        writer.write_rows(bytes(2))
        with pytest.raises(ValueError, match="1 rows written for 2 indices"):
            writer.finish()


class TestReadPatterns:
    def test_round_trip(self):
        rng = np.random.default_rng(10)
        for n in (1, 3, 6, 10):
            picked = sorted(map(int, rng.choice(1 << n, size=min(20, 1 << n), replace=False)))
            rows = _rows_for(n, picked)
            data = write_patterns(rows, n, OrderingScheme.SEQUENCY)
            header, back = read_patterns(data)
            assert header.n == n
            assert header.scheme is OrderingScheme.SEQUENCY
            assert header.count == len(picked)
            assert back == rows
            # rewrite is byte-identical
            assert write_patterns(back, header.n, header.scheme) == data

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9])
    def test_header_row_bytes_is_each_row_size(self, n):
        header, rows = read_patterns(write_patterns(_rows_for(n, [0, (1 << n) - 1]), n, "natural"))
        assert header.row_bytes() == len(rows[0][1].packed) == ((1 << n) + 7) // 8

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 10])
    def test_bytes_bytearray_and_memoryview_read_the_same_rows(self, n):
        picked = sorted({0, 1, (1 << n) // 3, (1 << n) - 1})
        data = write_patterns(_rows_for(n, picked), n, OrderingScheme.DYADIC)
        results = [read_patterns(kind(data)) for kind in (bytes, bytearray, memoryview)]
        assert results[1] == results[0] and results[2] == results[0]
        for _, rows in results:
            assert [k for k, _ in rows] == picked
            for _, row in rows:
                assert type(row.packed) is bytes
                checked = SignVector(row.packed, 1 << n)
                assert row == checked and hash(row) == hash(checked)

    @pytest.mark.parametrize("n", [1, 14, 30, INDEX_BITS_CAP])
    def test_a_zero_row_stream_reads_back_empty(self, n):
        # At n = 30 a row is 2^27 bytes and at n = 62 it is 2^59: splitting an
        # empty row block must allocate none.
        data = write_patterns([], n, OrderingScheme.SEQUENCY)
        read_patterns(data)  # warm the row format
        gc.collect()
        tracemalloc.start()
        try:
            header, rows = read_patterns(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (header.n, header.count, rows) == (n, 0, [])
        assert peak < 64 * 1024

    @pytest.mark.parametrize("n", [1, 3, 4, 10])
    def test_rows_never_alias_a_bytearray_input(self, n):
        picked = sorted({0, 1, (1 << n) // 3, (1 << n) - 1})
        data = bytearray(write_patterns(_rows_for(n, picked), n, OrderingScheme.NATURAL))
        _, rows = read_patterns(data)
        before = [row.packed for _, row in rows]
        pos = HEADER_SIZE + 8 * len(picked)
        data[pos:] = bytes(~b & 0xFF for b in data[pos:])  # flip every row bit in place
        assert [row.packed for _, row in rows] == before
        assert rows == _rows_for(n, picked)

    @pytest.mark.parametrize("n", [1, 3, 4, 10])
    def test_a_memoryview_slice_inside_a_larger_buffer(self, n):
        picked = sorted({0, (1 << n) // 3, (1 << n) - 1})
        data = write_patterns(_rows_for(n, picked), n, OrderingScheme.SEQUENCY)
        outer = memoryview(b"junk" + data + b"tail")[4 : 4 + len(data)]
        assert read_patterns(outer) == read_patterns(data)

    def test_recovers_order_two_example(self):
        data = write_patterns(_rows_for(1, [1]), 1, OrderingScheme.NATURAL)
        _, rows = read_patterns(data)
        assert rows[0][0] == 1
        assert rows[0][1].to_numpy().tolist() == [1, -1]

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_bad_magic(self, kind):
        # The message names the four bytes alike for every input type.
        data = bytearray(write_patterns(_rows_for(1, [0]), 1, OrderingScheme.NATURAL))
        data[:4] = b"XXXX"
        with pytest.raises(BadMagicError, match=r"^bad magic b'XXXX'$"):
            read_patterns(kind(data))

    def test_unsupported_version(self):
        data = bytearray(write_patterns(_rows_for(1, [0]), 1, OrderingScheme.NATURAL))
        data[4] = 2
        with pytest.raises(UnsupportedVersionError):
            read_patterns(bytes(data))

    @pytest.mark.parametrize("cut", [0, 3, HEADER_SIZE - 1, HEADER_SIZE + 4, -1])
    def test_truncations_are_distinguishable(self, cut):
        data = write_patterns(_rows_for(3, [1, 4]), 3, OrderingScheme.NATURAL)
        with pytest.raises(TruncatedStreamError):
            read_patterns(data[:cut])

    def test_trailing_garbage_rejected(self):
        data = write_patterns(_rows_for(2, [0]), 2, OrderingScheme.NATURAL)
        with pytest.raises(PatternFormatError):
            read_patterns(data + b"\x00")

    def test_bad_scheme_code(self):
        data = bytearray(write_patterns(_rows_for(1, [0]), 1, OrderingScheme.NATURAL))
        data[6] = 9
        with pytest.raises(PatternFormatError):
            read_patterns(bytes(data))

    def test_nonzero_reserved_byte(self):
        data = bytearray(write_patterns(_rows_for(1, [0]), 1, OrderingScheme.NATURAL))
        data[15] = 1
        with pytest.raises(PatternFormatError):
            read_patterns(bytes(data))

    @pytest.mark.parametrize("block", [(1, 8), (1, 2**64 - 1), (4, 1), (4, 4)])
    def test_bad_index_block_rejected(self, block):
        data = bytearray(write_patterns(_rows_for(3, [1, 4]), 3, OrderingScheme.NATURAL))
        data[HEADER_SIZE : HEADER_SIZE + 16] = b"".join(k.to_bytes(8, "little") for k in block)
        with pytest.raises(PatternFormatError):
            read_patterns(bytes(data))

    def test_dirty_row_padding_rejected(self):
        data = bytearray(write_patterns(_rows_for(1, [0]), 1, OrderingScheme.NATURAL))
        data[-1] = 0x01  # pad bits of the 2-entry row must stay zero
        with pytest.raises(PatternFormatError):
            read_patterns(bytes(data))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_first_dirty_row_is_named(self, n, where):
        # Every row of n < 3 is one byte, its low 8 - 2^n bits padding.
        count = 1 << n
        t = {"first": 0, "middle": count // 2, "last": count - 1}[where]
        data = bytearray(write_patterns(_rows_for(n, range(count)), n, OrderingScheme.NATURAL))
        rows_at = HEADER_SIZE + 8 * count
        data[rows_at + t] |= 1 << (8 - (1 << n) - 1)  # the highest pad bit
        data[-1] |= 1  # and the last row's lowest, so only the first is named
        message = rf"^row {t}: padding bits in the final byte must be zero$"
        with pytest.raises(PatternFormatError, match=message):
            read_patterns(bytes(data))


class TestExportRowText:
    def test_csv(self):
        row = SignVector.from_signs([1, -1, 1, -1])
        assert export_row_text(row, "csv") == "1,-1,1,-1\n"

    def test_csv_round_trip(self):
        row = generate_row(100, 8)[0]
        text = export_row_text(row, "csv")
        parsed = [int(tok) for tok in text.strip().split(",")]
        assert SignVector.from_signs(parsed) == row

    def test_pbm_flat_row_is_blank(self):
        text = export_row_text(generate_row(0, 4)[0], "pbm")
        assert text == "P1\n4 4\n0000\n0000\n0000\n0000\n"

    def test_pbm_golden_row(self):
        text = export_row_text(generate_row(6, 4)[0], "pbm")
        assert text == "P1\n4 4\n0011\n1100\n0011\n1100\n"

    @given(st.integers(1, 7).flatmap(lambda h: st.tuples(st.integers(0, 4**h - 1), st.just(2 * h))))
    def test_pbm_matches_text_built_from_the_direct_row(self, case):
        i, n = case
        expected = _reference_text(direct_row(i, n).to_numpy().tolist(), "pbm")
        # A bare bool: pytest's diff of two 2^14-pixel bitmaps would dwarf the test.
        same = export_row_text(generate_row(i, n)[0], "pbm") == expected
        assert same, (i, n)

    @given(st.integers(1, 16).flatmap(lambda n: st.tuples(st.integers(0, 2**n - 1), st.just(n))))
    def test_csv_matches_text_built_from_the_direct_row(self, case):
        i, n = case
        expected = _reference_text(direct_row(i, n).to_numpy().tolist(), "csv")
        same = export_row_text(generate_row(i, n)[0], "csv") == expected
        assert same, (i, n)

    @pytest.mark.parametrize("fmt,n", [("csv", 17), ("pbm", 18)])
    def test_a_vector_of_many_distinct_stripes(self, fmt, n):
        # Random entries: each of the 4 or 8 stripes of 2^15 entries is rendered on its own.
        signs = np.random.default_rng(n).choice([1, -1], size=1 << n).tolist()
        same = export_row_text(SignVector.from_signs(signs), fmt) == _reference_text(signs, fmt)
        assert same, (fmt, n)

    def test_pbm_of_a_one_entry_row(self):
        assert export_row_text(SignVector(b"\x00", 1), "pbm") == "P1\n1 1\n0\n"
        assert export_row_text(SignVector(b"\x80", 1), "pbm") == "P1\n1 1\n1\n"

    def test_pbm_rejects_odd_order(self):
        with pytest.raises(ValueError):
            export_row_text(generate_row(1, 3)[0], "pbm")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export_row_text(generate_row(0, 2)[0], "png")
        with pytest.raises(ValueError, match="unknown export format"):  # bytes, not text
            export_row_text(generate_row(0, 2)[0], "packed")

    @pytest.mark.parametrize("fmt", ["csv", "pbm"])
    def test_text_at_order_22_is_held_once(self, fmt):
        # csv is a 10 MiB text and pbm a 4 MiB one; only one full-size copy may be live.
        row = generate_row(3000017, 22)[0]
        export_row_text(generate_row(5, 4)[0], fmt)  # warm numpy paths
        gc.collect()
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            text = export_row_text(row, fmt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert text == _reference_text(direct_row(3000017, 22).to_numpy().tolist(), fmt)
        assert peak - base <= 1.1 * len(text)
