"""Tests for HADP pattern streams and textual row exports."""

import io

import numpy as np
import pytest

from hadrow import (
    BadMagicError,
    OrderingScheme,
    PatternFormatError,
    PatternWriter,
    SignVector,
    TruncatedStreamError,
    UnsupportedVersionError,
    export_row_text,
    full_matrix,
    generate_row,
    read_patterns,
    write_patterns,
)
from hadrow.formats import HEADER_SIZE


def _rows_for(n, indices, scheme=OrderingScheme.NATURAL):
    return [(k, generate_row(k, n)[0]) for k in indices]


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

    def test_recovers_order_two_example(self):
        data = write_patterns(_rows_for(1, [1]), 1, OrderingScheme.NATURAL)
        _, rows = read_patterns(data)
        assert rows[0][0] == 1
        assert rows[0][1].to_numpy().tolist() == [1, -1]

    def test_bad_magic(self):
        data = bytearray(write_patterns(_rows_for(1, [0]), 1, OrderingScheme.NATURAL))
        data[:4] = b"XXXX"
        with pytest.raises(BadMagicError):
            read_patterns(bytes(data))

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

    def test_pbm_rejects_odd_order(self):
        with pytest.raises(ValueError):
            export_row_text(generate_row(1, 3)[0], "pbm")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export_row_text(generate_row(0, 2)[0], "png")
