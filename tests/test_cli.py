"""End-to-end tests of the command line surface and its exit-code contract."""

import argparse
import errno
import gc
import io
import itertools
import os
import re
import stat
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadrow import (
    MAX_PIXEL,
    MeasurementSet,
    PgmError,
    Scene,
    direct_row,
    full_matrix,
    generate_ordered_row,
    generate_row,
    kron,
    predicted_cost,
    read_patterns,
    read_pgm,
    reconstruct,
    simulate,
    to_natural,
    write_patterns,
    write_pgm,
)
from hadrow import cli
from hadrow.core import generate_rows
from hadrow.cli import InputDataError, _parse_measurement_csv, _read_measurements, main


SRC = Path(__file__).resolve().parent.parent / "src"


def run(*argv):
    return main(list(argv))


def _traced_peak(*argv):
    """tracemalloc peak of one successful command, above what was live before it."""
    assert run(*argv) == 0  # warm caches before measuring
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert run(*argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


class TestRow:
    def test_golden_row_csv(self, capsys):
        assert run("row", "--index", "6", "--n", "4") == 0
        expected = ",".join(str(v) for v in generate_row(6, 4)[0])
        assert capsys.readouterr().out == expected + "\n"

    def test_flat_row(self, capsys):
        assert run("row", "--index", "0", "--n", "3") == 0
        assert capsys.readouterr().out == "1,1,1,1,1,1,1,1\n"

    def test_out_of_range_index_names_the_valid_range(self, capsys):
        assert run("row", "--index", "8", "--n", "3") == 2
        assert "[0, 8)" in capsys.readouterr().err

    @pytest.mark.parametrize("n,expected", [(4, 30), (22, 8388606)])
    def test_verbose_reports_multiplications(self, capsys, n, expected):
        assert run("row", "--index", "5", "--n", str(n), "--format", "packed", "--verbose") == 0
        assert capsys.readouterr().err == f"multiplications: {expected}\n"

    def test_ordered_row(self, capsys):
        assert run("row", "--index", "1", "--n", "2", "--ordering", "sequency") == 0
        assert capsys.readouterr().out == "1,1,-1,-1\n"

    def test_packed_output(self, tmp_path):
        out = tmp_path / "row.bin"
        assert run("row", "--index", "6", "--n", "4", "--format", "packed", "--out", str(out)) == 0
        assert out.read_bytes() == generate_row(6, 4)[0].packed

    @pytest.mark.parametrize("ordering", ["natural", "sequency", "dyadic"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_short_packed_rows_match_the_direct_row(self, tmp_path, n, ordering):
        # Rows of n < 3 are padded; at n = 3 the row is its first byte alone.
        out = tmp_path / "row.bin"
        for k in range(1 << n):
            argv = ["row", "--index", str(k), "--n", str(n), "--ordering", ordering]
            assert run(*argv, "--format", "packed", "--out", str(out)) == 0
            assert out.read_bytes() == direct_row(to_natural(k, n, ordering), n).packed

    def test_pbm_requires_even_order(self, capsys, tmp_path):
        assert run("row", "--index", "1", "--n", "3", "--format", "pbm") == 2
        assert "even" in capsys.readouterr().err
        out = tmp_path / "row.pbm"
        assert run("row", "--index", "1", "--n", "3", "--format", "pbm", "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "pbm"])
    def test_text_peak_is_the_packed_row_and_two_stripes(self, tmp_path, fmt):
        n = 24
        argv = ["row", "--index", "3000017", "--n", str(n), "--ordering", "sequency"]
        peak = _traced_peak(*argv, "--format", fmt, "--out", str(tmp_path / "row.txt"))
        assert peak <= 1.05 * (1 << n) / 8 + (1 << 20), peak

    def test_unwritable_output_is_io_error(self, capsys):
        assert run("row", "--index", "0", "--n", "2", "--out", "/nonexistent/dir/x.csv") == 3

    def test_env_var_lowers_the_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("HADROW_MAX_N", "10")
        assert run("row", "--index", "0", "--n", "12") == 2
        monkeypatch.setenv("HADROW_MAX_N", "banana")
        assert run("row", "--index", "0", "--n", "2") == 2

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_env_var_must_be_positive(self, capsys, monkeypatch, value):
        monkeypatch.setenv("HADROW_MAX_N", value)
        assert run("row", "--index", "0", "--n", "2") == 2
        assert capsys.readouterr().err == f"error: HADROW_MAX_N must be positive, got {value}\n"

    def test_env_var_cannot_raise_the_cap(self, monkeypatch):
        monkeypatch.setenv("HADROW_MAX_N", "40")
        assert run("row", "--index", "0", "--n", "31") == 2


class TestBatch:
    def test_file_matches_oracle_matrix(self, tmp_path):
        out = tmp_path / "p.hadp"
        assert run("batch", "--indices", "0..4", "--n", "2", "--out", str(out)) == 0
        header, rows = read_patterns(out.read_bytes())
        assert header.count == 4
        assert [r for _, r in rows] == full_matrix(2)

    def test_single_flat_row_payload(self, tmp_path):
        out = tmp_path / "p.hadp"
        assert run("batch", "--indices", "0", "--n", "1", "--out", str(out)) == 0
        assert out.read_bytes()[-1:] == b"\x00"

    def test_jobs_do_not_change_bytes(self, tmp_path):
        seq = tmp_path / "seq.hadp"
        par = tmp_path / "par.hadp"
        args = ["--indices", "0..64", "--n", "6", "--ordering", "sequency"]
        assert run("batch", *args, "--out", str(seq), "--jobs", "1") == 0
        assert run("batch", *args, "--out", str(par), "--jobs", "4") == 0
        assert seq.read_bytes() == par.read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2", "4"])
    @pytest.mark.parametrize("scheme", ["natural", "sequency", "dyadic"])
    def test_matches_write_patterns_over_ordered_rows(self, tmp_path, scheme, jobs):
        # 1102 rows of 2 KiB span several kernel chunks.
        n, spec = 14, "5000..5400,0..700,16383,1000"
        ordered = [*range(700), 1000, *range(5000, 5400), 16383]
        out = tmp_path / "p.hadp"
        assert run("batch", "--indices", spec, "--n", str(n), "--ordering", scheme,
                   "--jobs", jobs, "--out", str(out)) == 0
        rows = [(k, generate_ordered_row(k, n, scheme)) for k in ordered]
        assert out.read_bytes() == write_patterns(rows, n, scheme)

    def test_stdout_gets_the_file_bytes(self, tmp_path, capsysbinary):
        out = tmp_path / "p.hadp"
        args = ["--indices", "0..40", "--n", "9", "--ordering", "dyadic"]
        assert run("batch", *args, "--out", str(out)) == 0
        assert run("batch", *args) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    def test_peak_memory_is_one_chunk_not_the_file(self, tmp_path):
        count, out = 8192, tmp_path / "big.hadp"
        args = ["batch", "--indices", f"0..{count}", "--n", "14", "--out", str(out)]
        assert run(*args[:2], "0..4", *args[3:]) == 0  # warm numpy paths
        tracemalloc.start()
        try:
            assert run(*args) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.stat().st_size == 16 + count * (8 + 2048)  # a 16 MiB file
        assert peak <= 8 * count + 2 * 2**20

    def test_comma_list_and_ranges_merge(self, tmp_path):
        out = tmp_path / "p.hadp"
        assert run("batch", "--indices", "5,1..3,2", "--n", "3", "--out", str(out)) == 0
        _, rows = read_patterns(out.read_bytes())
        assert [k for k, _ in rows] == [1, 2, 5]

    def test_bad_indices(self, capsys):
        assert run("batch", "--indices", "4..2", "--n", "3") == 2
        assert run("batch", "--indices", "abc", "--n", "3") == 2
        assert run("batch", "--indices", "0..9", "--n", "3") == 2
        assert run("batch", "--indices", "2..2", "--n", "3") == 2

    @pytest.mark.parametrize("indices", ["0..1000000000000", "-1000000000000..0"])
    def test_huge_index_range_rejected_before_expansion(self, indices, capsys):
        tracemalloc.start()
        try:
            assert run("batch", f"--indices={indices}", "--n", "4") == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert "indices must lie in [0, 16)" in capsys.readouterr().err


def _spec_model(text, n):
    """Reference model of `--indices`: the sorted indices a spec selects, None if invalid.

    A part is a lone index k, which selects k, or a..b, which selects
    a..b-1; every bound must lie in [0, 2^n] with a <= b (and k < 2^n),
    and the whole spec must select something.
    """
    chosen = set()
    for part in text.split(","):
        bounds = part.strip().split("..", 1)
        try:
            lo, hi = (int(bounds[0]), int(bounds[0]) + 1) if len(bounds) == 1 else map(int, bounds)
        except ValueError:
            return None
        if not 0 <= lo <= hi <= 1 << n:
            return None
        chosen.update(range(lo, hi))
    return sorted(chosen) or None


_SPEC_PART = st.one_of(
    st.integers(-3, 40).map(str),
    st.tuples(st.integers(-3, 40), st.integers(-3, 40)).map(lambda pair: "%d..%d" % pair),
    st.text(alphabet="0123456789.,-+_ x", max_size=8),
)


class TestIndexSpec:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(_SPEC_PART, min_size=1, max_size=5).map(",".join), st.integers(1, 5))
    def test_parse_matches_the_reference_model(self, spec, n):
        expected = _spec_model(spec, n)
        if expected is None:
            with pytest.raises(cli.UsageError):
                cli._parse_indices(spec, n)
        else:
            picked = cli._parse_indices(spec, n)
            assert picked.dtype == np.int64
            assert picked.tolist() == expected


# One --indices entry as (lo, hi, text): a lone index k is k..k+1, and a..a selects nothing.
_ENTRY = st.one_of(
    st.integers(0, 63).map(lambda k: (k, k + 1, str(k))),
    st.tuples(st.integers(0, 64), st.integers(0, 64)).map(sorted).map(
        lambda b: (b[0], b[1], f"{b[0]}..{b[1]}")
    ),
    st.integers(0, 64).map(lambda a: (a, a, f"{a}..{a}")),
)


class TestIndexExpansion:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ENTRY, min_size=1, max_size=8), st.data())
    def test_selection_is_the_union_of_the_ranges(self, entries, data):
        entries += data.draw(st.lists(st.sampled_from(entries), max_size=3))  # repeats
        spec = ",".join(text for *_, text in entries)
        expected = sorted(set().union(*(range(lo, hi) for lo, hi, _ in entries)))
        if not expected:
            with pytest.raises(cli.UsageError, match="^--indices selected nothing$"):
                cli._parse_indices(spec, 6)
        else:
            picked = cli._parse_indices(spec, 6)
            assert picked.dtype == np.int64
            assert picked.tolist() == expected

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("1,,2", "empty entry in --indices"),
            ("1,x", "bad index entry 'x'"),
            ("0..y", "bad index range '0..y'"),
            ("4..2", "descending index range '4..2'"),
            ("0..65", "indices must lie in [0, 64)"),
            ("3..3,5..5", "--indices selected nothing"),
        ],
    )
    def test_errors_come_before_any_expansion(self, spec, message, monkeypatch):
        def expand(*args, **kwargs):
            raise AssertionError("a range was expanded")

        monkeypatch.setattr(np, "repeat", expand)
        monkeypatch.setattr(np, "arange", expand)
        with pytest.raises(cli.UsageError, match=f"^{re.escape(message)}$"):
            cli._parse_indices(spec, 6)

    def test_overlapping_entries_cost_the_selection_once(self):
        # Four copies of one 2 MiB selection were expanded in full, then deduplicated.
        spec = ",".join(["0..262144"] * 4)
        cli._parse_indices(spec, 18)  # warm up
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            picked = cli._parse_indices(spec, 18)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert picked.tolist() == list(range(262144))
        assert peak - base < 2.5 * picked.nbytes, peak - base


class TestBatchPasses:
    @pytest.mark.parametrize(
        "count_of", [lambda c: c - 1, lambda c: c, lambda c: c + 1, lambda c: 2 * c + 1],
        ids=["chunk-1", "chunk", "chunk+1", "2chunk+1"],
    )
    @pytest.mark.parametrize("scheme", ["natural", "sequency", "dyadic"])
    def test_passes_fit_the_chunk_and_write_the_same_bytes(self, tmp_path, monkeypatch, scheme, count_of):
        n = 14
        chunk = cli.BATCH_CHUNK_BYTES // ((1 << n) // 8 + cli._INDEX_WORK_BYTES)
        count = count_of(chunk)
        sizes = []

        def recording(naturals, n):
            sizes.append(len(naturals))
            return generate_rows(naturals, n)

        monkeypatch.setattr(cli, "generate_rows", recording)
        half = 100 + count // 2
        out = tmp_path / "p.hadp"
        assert run("batch", "--indices", f"{half}..{100 + count},100..{half}", "--n", str(n),
                   "--ordering", scheme, "--out", str(out)) == 0
        rows = [(k, generate_ordered_row(k, n, scheme)) for k in range(100, 100 + count)]
        assert out.read_bytes() == write_patterns(rows, n, scheme)
        assert sum(sizes) == count and max(sizes) <= chunk


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        assert run("verify", "--n-max", "6") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "C(5) = 62" in out
        assert "oracle-equivalence" in out
        assert "sequency-law" in out

    def test_cap_guard(self, capsys):
        assert run("verify", "--n-max", "20") == 2
        assert "oracle" in capsys.readouterr().err

    def test_n_max_above_the_env_cap_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("HADROW_MAX_N", "3")
        assert run("verify", "--n-max", "4") == 2
        assert capsys.readouterr().err == "error: --n-max 4 exceeds the HADROW_MAX_N cap 3\n"

    def test_a_wrong_row_is_a_fail_row_and_exit_1(self, capsys, monkeypatch):
        # Row 0 in place of every row breaks the oracle and orthogonality suites only.
        def row_zero(i, n):
            return generate_row(0, n)[0], generate_row(i, n)[1]

        monkeypatch.setattr(cli, "generate_row", row_zero)
        assert run("verify", "--n-max", "2") == 1
        out = capsys.readouterr().out.splitlines()
        failed = [line.split()[:2] for line in out if line.endswith("FAIL")]
        assert failed == [["oracle-equivalence", "n=1"], ["oracle-equivalence", "n=2"],
                          ["orthogonality", "n=1"], ["orthogonality", "n=2"]]
        assert out[-1] == "4 check(s) FAILED"

    def test_an_overcharging_kron_fails_the_counter_law_at_every_n(self, capsys, monkeypatch):
        def kron_plus_one(a, b, counter):
            counter.add(1)
            return kron(a, b, counter)

        monkeypatch.setattr(cli, "kron", kron_plus_one)
        assert run("verify", "--n-max", "3") == 1
        out = capsys.readouterr().out.splitlines()
        failed = [line.split()[:2] for line in out if line.endswith("FAIL")]
        assert failed == [["counter-law", f"C({n})"] for n in (1, 2, 3)]
        assert out[-1] == "3 check(s) FAILED"


class TestSimulateReconstruct:
    def test_constant_scene_single_index(self, tmp_path, capsys):
        image = tmp_path / "c.pgm"
        image.write_bytes(write_pgm(np.full((4, 4), 50)))
        assert run("simulate", "--image", str(image), "--indices", "0") == 0
        assert "0,800" in capsys.readouterr().out

    def test_known_two_by_two(self, tmp_path, capsys):
        image = tmp_path / "q.pgm"
        image.write_bytes(write_pgm(np.array([[1, 2], [3, 4]])))
        assert run("simulate", "--image", str(image), "--indices", "0..4") == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert lines == ["0,10", "1,-2", "2,-4", "3,0"]

    @pytest.mark.parametrize("scheme", ["natural", "sequency", "dyadic"])
    def test_file_round_trip(self, tmp_path, scheme):
        rng = np.random.default_rng(42)
        pixels = rng.integers(0, 65536, size=(8, 8))
        image = tmp_path / "in.pgm"
        image.write_bytes(write_pgm(pixels))
        csv = tmp_path / "m.csv"
        out = tmp_path / "out.pgm"
        assert run("simulate", "--image", str(image), "--ordering", scheme, "--out", str(csv)) == 0
        assert run("reconstruct", "--measurements", str(csv), "--out", str(out)) == 0
        assert np.array_equal(read_pgm(out.read_bytes()).reshaped(), pixels)

    # 8x8 scene, n = 6: the full set and 9 picked indices take the
    # transform, 2 stream; the reference streams one index per call.
    @pytest.mark.parametrize("scheme", ["natural", "sequency", "dyadic"])
    @pytest.mark.parametrize(
        "indices,ks",
        [(None, list(range(64))), ("9,0..3,40..44,63", [0, 1, 2, 9, 40, 41, 42, 43, 63]),
         ("5,1", [1, 5])],
    )
    def test_csv_matches_per_index_simulate(self, tmp_path, scheme, indices, ks):
        rng = np.random.default_rng(11)
        image = tmp_path / "in.pgm"
        image.write_bytes(write_pgm(rng.integers(0, 65536, size=(8, 8))))
        csv = tmp_path / "m.csv"
        argv = ["simulate", "--image", str(image), "--ordering", scheme, "--out", str(csv)]
        assert run(*argv, *(["--indices", indices] if indices else [])) == 0
        scene = read_pgm(image.read_bytes())
        lines = [f"# hadrow n=6 scheme={scheme} width=8 height=8"]
        lines += [f"{k},{y}" for k in ks for _, y in simulate(scene, [k], scheme).entries]
        assert csv.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")

    def test_reconstruct_known_lines(self, tmp_path):
        csv = tmp_path / "m.csv"
        csv.write_text("0,10\n1,-2\n2,-4\n3,0\n")
        out = tmp_path / "r.pgm"
        assert run("reconstruct", "--measurements", str(csv), "--n", "2", "--out", str(out)) == 0
        assert read_pgm(out.read_bytes()).pixels.tolist() == [1, 2, 3, 4]

    def test_reconstruct_without_order_hint_fails(self, tmp_path, capsys):
        csv = tmp_path / "m.csv"
        csv.write_text("0,10\n")
        assert run("reconstruct", "--measurements", str(csv)) == 2

    def test_malformed_csv_is_io_error(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("0;10\n")
        assert run("reconstruct", "--measurements", str(csv), "--n", "2") == 3
        csv.write_text("0,ten\n")
        assert run("reconstruct", "--measurements", str(csv), "--n", "2") == 3

    def test_non_ascii_csv_is_io_error(self, tmp_path, capsys):
        csv = tmp_path / "latin.csv"
        csv.write_bytes(b"1,\xc3\xa90\n")
        out = tmp_path / "r.pgm"
        assert run("reconstruct", "--measurements", str(csv), "--n", "2", "--out", str(out)) == 3
        assert "not ASCII" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["99999999999999999999999", "-9223372036854775809"])
    def test_measurement_beyond_int64_is_io_error(self, tmp_path, capsys, value):
        csv = tmp_path / "huge.csv"
        csv.write_text(f"0,{value}\n")
        assert run("reconstruct", "--measurements", str(csv), "--n", "2") == 3
        assert "64 bits" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "values,code",
        [
            ([2**62, 2**62 - 1], 0),  # magnitudes sum to exactly 2^63 - 1
            ([2**62] * 4, 3),  # wrapped to an all-zero image before the bound
        ],
    )
    def test_measurements_that_would_overflow_the_transform(self, tmp_path, capsys, values, code):
        csv = tmp_path / "big.csv"
        csv.write_text("".join(f"{k},{y}\n" for k, y in enumerate(values)))
        out = tmp_path / "r.pgm"
        assert run("reconstruct", "--measurements", str(csv), "--n", "2", "--out", str(out)) == code
        if code:
            assert "2^63 - 1" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "value,code", [(-(2**63), 3), (-(2**63) + 1, 0)], ids=["int64-min", "int64-min-plus-1"]
    )
    def test_int64_min_magnitude_is_exact(self, tmp_path, capsys, value, code):
        # |INT64_MIN| = 2^63 wraps in int64 arithmetic; one more is 2^63 - 1, which fits.
        csv = tmp_path / "min.csv"
        csv.write_text(f"0,{value}\n")
        out = tmp_path / "r.pgm"
        assert run("reconstruct", "--measurements", str(csv), "--n", "2", "--out", str(out)) == code
        assert ("2^63 - 1" in capsys.readouterr().err) == bool(code)

    @pytest.mark.parametrize(
        "header,flags",
        [
            ("# hadrow n=2 width=-2 height=-2\n", []),
            ("", ["--width", "-1", "--height", "-4"]),
            ("", ["--width", "0"]),
            ("", ["--width", "-4"]),
            ("", ["--width", "3"]),
        ],
        ids=["header", "flags", "lone-zero", "lone-negative", "lone-not-dividing"],
    )
    def test_side_below_one_is_usage_error(self, tmp_path, capsys, header, flags):
        # The measurement set rejects the sides: both products equal 2^2, and
        # a lone side below 1, or one that does not divide 2^2, is passed on.
        csv = tmp_path / "m.csv"
        csv.write_text(header + "0,10\n")
        out = tmp_path / "r.pgm"
        argv = ["--measurements", str(csv), "--n", "2", "--out", str(out), *flags]
        assert run("reconstruct", *argv) == 2
        assert "sides must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "shape,header,flags",
        [
            ((4, 16), "", ["--n", "6", "--width", "16"]),
            ((2, 32), "", ["--n", "6", "--height", "2"]),
            ((4, 8), "", ["--n", "5", "--width", "8"]),
            ((8, 4), "", ["--n", "5", "--height", "8"]),
            ((4, 16), "# hadrow width=16\n", ["--n", "6"]),
            ((8, 4), "# hadrow n=5 height=8\n", []),
        ],
        ids=["width-6", "height-6", "width-5", "height-5", "header-width", "header-height"],
    )
    def test_lone_side_decides_the_other(self, tmp_path, shape, header, flags):
        rng = np.random.default_rng(7)
        pixels = rng.integers(0, 256, size=shape)
        image = tmp_path / "in.pgm"
        image.write_bytes(write_pgm(pixels))
        csv = tmp_path / "m.csv"
        out = tmp_path / "out.pgm"
        assert run("simulate", "--image", str(image), "--out", str(csv)) == 0
        csv.write_text(header + csv.read_text().split("\n", 1)[1])  # replace the header line
        assert run("reconstruct", "--measurements", str(csv), "--out", str(out), *flags) == 0
        assert out.read_bytes() == image.read_bytes()

    def test_duplicate_measurement_is_usage_error(self, tmp_path):
        csv = tmp_path / "dup.csv"
        csv.write_text("0,1\n0,2\n")
        assert run("reconstruct", "--measurements", str(csv), "--n", "2") == 2

    def test_missing_image_is_io_error(self, tmp_path):
        assert run("simulate", "--image", str(tmp_path / "nope.pgm")) == 3

    def test_non_power_of_two_image_is_usage_error(self, tmp_path):
        image = tmp_path / "odd.pgm"
        image.write_bytes(b"P2\n3 2\n255\n0 0 0 0 0 0\n")
        assert run("simulate", "--image", str(image)) == 2

    def test_negative_pgm_sample_is_io_error(self, tmp_path):
        image = tmp_path / "negative.pgm"
        image.write_bytes(b"P2\n2 2\n255\n0 -1 0 0\n")
        assert run("simulate", "--image", str(image)) == 3

    def test_pgm_sample_beyond_int64_is_io_error(self, tmp_path, capsys):
        image = tmp_path / "huge.pgm"
        image.write_bytes(b"P2\n2 2\n255\n0 99999999999999999999 0 0\n")
        assert run("simulate", "--image", str(image)) == 3
        assert "64 bits" in capsys.readouterr().err

    def test_corrupt_pgm_is_io_error(self, tmp_path):
        image = tmp_path / "corrupt.pgm"
        image.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        assert run("simulate", "--image", str(image)) == 3


# Per key: (flag, header value, unparsable header value).  The flag and the
# header always differ, so the output shows which one was taken.
_SETTINGS = {
    "n": ("6", "5", "x5"),
    "scheme": ("dyadic", "sequency", "foo"),
    "width": ("8", "4", "4.0"),
    "height": ("2", "16", "sixteen"),
}
_FLAG_NAMES = {"n": "--n", "scheme": "--ordering", "width": "--width", "height": "--height"}
_STATES = ("none", "header", "flag", "both")


def _settings_model(states):
    """Reference model of the settings rule: (n, scheme, width, height) or (exit code, text)."""
    picked = {}
    for key, state in states.items():
        flag, header, bad = _SETTINGS[key]
        if state in ("flag", "both", "bad+flag"):
            picked[key] = flag
        elif state == "header":
            picked[key] = header
        elif state == "bad":
            return 3, f"bad {key}={bad!r} in measurements header"
        else:
            picked[key] = None
    n, scheme, width, height = (picked[key] for key in _SETTINGS)
    if n is None:
        return 2, "order exponent unknown"
    n = int(n)
    if width is None and height is None:
        if n % 2:
            return 2, "pass --width or --height"
        width = height = 2 ** (n // 2)
    elif width is None:
        width = 2**n // int(height)
    elif height is None:
        height = 2**n // int(width)
    return n, scheme or "natural", int(width), int(height)


_SETTINGS_CASES = [dict(zip(_SETTINGS, combo)) for combo in itertools.product(_STATES, repeat=4)]
_SETTINGS_CASES += [
    {**dict.fromkeys(_SETTINGS, "header"), key: state}
    for key in _SETTINGS
    for state in ("bad", "bad+flag")
]


class TestReconstructSettings:
    """Each setting is its flag, else its header value, else derived; pinned to a model."""

    @pytest.mark.parametrize(
        "states", _SETTINGS_CASES, ids=lambda s: "-".join(f"{k}:{v}" for k, v in s.items())
    )
    def test_settings_follow_the_reference_model(self, tmp_path, capsys, states):
        entries = [(k, 3 * k - 20) for k in range(16)]
        header = [
            f"{key}={_SETTINGS[key][2 if state.startswith('bad') else 1]}"
            for key, state in states.items()
            if state in ("header", "both", "bad", "bad+flag")
        ]
        flags = [
            arg
            for key, state in states.items()
            if state in ("flag", "both", "bad+flag")
            for arg in (_FLAG_NAMES[key], _SETTINGS[key][0])
        ]
        csv = tmp_path / "m.csv"
        lines = [f"# hadrow {' '.join(header)}"] if header else []
        csv.write_text("\n".join(lines + [f"{k},{y}" for k, y in entries]) + "\n")
        out = tmp_path / "r.pgm"
        code = run("reconstruct", "--measurements", str(csv), "--out", str(out), *flags)
        err = capsys.readouterr().err
        expected = _settings_model(states)
        if len(expected) == 2:
            assert (code, expected[1] in err) == (expected[0], True), err
            assert not out.exists()
            return
        n, scheme, width, height = expected
        try:
            measured = MeasurementSet(entries, scheme, n, width, height)
        except ValueError as exc:
            assert (code, err) == (2, f"error: {exc}\n")
            assert not out.exists()
            return
        assert code == 0, err
        estimate = np.clip(np.rint(reconstruct(measured)), 0, MAX_PIXEL)
        assert np.array_equal(read_pgm(out.read_bytes()).reshaped(), estimate)


class TestMeasurementMemory:
    """Full sampling at n = 16 (256x256) and n = 10 (32x32): traced peaks."""

    @pytest.fixture
    def scene(self, tmp_path):
        rng = np.random.default_rng(16)
        image = tmp_path / "scene.pgm"
        image.write_bytes(write_pgm(rng.integers(0, 256, size=(256, 256))))
        return image

    def test_simulate_peak_per_entry(self, tmp_path, scene):
        csv = tmp_path / "m.csv"
        peak = _traced_peak("simulate", "--image", str(scene), "--ordering", "sequency",
                            "--out", str(csv))
        # The parent's tuples and line list peaked at about 256 bytes per entry.
        assert peak <= 80 * (1 << 16)
        # Rows are formatted a block at a time; the file is still one line per entry.
        measured = simulate(read_pgm(scene.read_bytes()), range(1 << 16), "sequency")
        body = "".join(f"{k},{y}\n" for k, y in measured.entries)
        expected = "# hadrow n=16 scheme=sequency width=256 height=256\n" + body
        assert csv.read_bytes() == expected.encode("ascii")

    @pytest.mark.parametrize("scheme", ["natural", "sequency", "dyadic"])
    def test_simulate_csv_makes_no_copy_of_the_columns(self, tmp_path, scheme):
        # spi-roundtrip's case: 32x32 at full sampling, where the CSV step once
        # stacked the set's two int64 columns into a whole (1024, 2) copy.
        image, csv = tmp_path / "scene.pgm", tmp_path / "m.csv"
        image.write_bytes(write_pgm(np.random.default_rng(32).integers(0, 65536, size=(32, 32))))
        peak = _traced_peak("simulate", "--image", str(image), "--ordering", scheme,
                            "--out", str(csv))
        # The stacked copy peaked at about 97 KiB; without it the transform sets
        # the peak, at about 75 KiB.
        assert peak <= 86 * 1024, peak
        measured = simulate(read_pgm(image.read_bytes()), range(1024), scheme)
        body = "".join(f"{k},{y}\n" for k, y in measured.entries)
        expected = f"# hadrow n=10 scheme={scheme} width=32 height=32\n" + body
        assert csv.read_bytes() == expected.encode("ascii")

    def test_reconstruct_peak_per_entry(self, tmp_path, scene):
        csv = tmp_path / "m.csv"
        out = tmp_path / "estimate.pgm"
        assert run("simulate", "--image", str(scene), "--ordering", "sequency",
                   "--out", str(csv)) == 0
        peak = _traced_peak("reconstruct", "--measurements", str(csv), "--out", str(out))
        # The parent's parse list and entry tuples peaked at about 216 bytes per entry.
        assert peak <= 64 * (1 << 16)
        assert out.read_bytes() == scene.read_bytes()



def _library_pgm(measured):
    """The graymap `hadrow reconstruct` writes, built whole through the library."""
    return write_pgm(np.clip(np.rint(reconstruct(measured)), 0, MAX_PIXEL).astype(np.int64))


# name: (n, width, value range, partial set, estimate dtype kind); odd n takes --width.
_RASTER_CASES = {
    "even-full": (6, 8, 255, False, "i"),
    "odd-full": (7, 16, 255, False, "i"),
    "partial-int": (8, 16, 10, True, "i"),
    "partial-float": (8, 16, 2560, True, "f"),
    "16bit-full": (6, 8, MAX_PIXEL, False, "i"),
    "16bit-float-clipped": (7, 16, 20_000_000, True, "f"),
}


def _raster_case(name, scheme):
    """(measurement set, estimate dtype kind, flags) of one reconstruct case."""
    rng = np.random.default_rng(list(_RASTER_CASES).index(name))
    n, width, top, partial, kind = _RASTER_CASES[name]
    if partial:
        ks = np.sort(rng.choice(1 << n, size=24, replace=False)).tolist()
        scale = 1 << n if kind == "i" else 1
        values = (rng.integers(-top, top, size=len(ks)) * scale).tolist()
        entries = list(zip(ks, values))
    else:
        pixels = rng.integers(0, top + 1, size=1 << n)
        pixels[0] = top
        entries = simulate(Scene(pixels, width, (1 << n) // width), range(1 << n), scheme).entries
    measured = MeasurementSet(entries, scheme, n, width, (1 << n) // width)
    flags = ["--width", str(width)] if n % 2 else []
    return measured, kind, flags


class TestReconstructRaster:
    """The PGM is encoded and written a block at a time, with the library's bytes."""

    @pytest.mark.parametrize("scheme", ["natural", "sequency", "dyadic"])
    @pytest.mark.parametrize("name", list(_RASTER_CASES))
    def test_matches_the_library_path(self, tmp_path, name, scheme):
        measured, kind, flags = _raster_case(name, scheme)
        assert reconstruct(measured).dtype.kind == kind
        csv, out = tmp_path / "m.csv", tmp_path / "r.pgm"
        # Odd n writes no sides to the header: --width decides them.
        sides = "" if flags else f" width={measured.width} height={measured.height}"
        lines = [f"# hadrow n={measured.n} scheme={scheme}{sides}"]
        csv.write_text("\n".join(lines + [f"{k},{y}" for k, y in measured.entries]) + "\n")
        assert run("reconstruct", "--measurements", str(csv), "--out", str(out), *flags) == 0
        expected = _library_pgm(measured)
        assert out.read_bytes() == expected
        assert expected.split(b"\n")[2] == (b"65535" if name.startswith("16bit") else b"255")

    def test_stdout_matches_the_library_path(self, tmp_path, capsysbinary):
        measured, _, _ = _raster_case("partial-float", "sequency")
        csv = tmp_path / "m.csv"
        csv.write_text("".join(f"{k},{y}\n" for k, y in measured.entries))
        assert run("reconstruct", "--measurements", str(csv), "--n", "8", "--ordering",
                   "sequency") == 0
        assert capsysbinary.readouterr().out == _library_pgm(measured)

    def test_n22_peak_is_the_estimate_plus_one_block(self, tmp_path):
        # A 2048x2048 scene from 4096 sequency lines, a few of them nonzero: the
        # int64 estimate is 32 MiB, and the whole 4 MiB raster, held twice,
        # once took the peak to 40 MiB.
        n, scale = 22, 1 << 22
        values = {0: 128 * scale, 1: 9 * scale, 6: -15 * scale, 100: 4 * scale, 2047: -7 * scale}
        csv, out = tmp_path / "m.csv", tmp_path / "r.pgm"
        lines = [f"# hadrow n={n} scheme=sequency width=2048 height=2048"]
        lines += [f"{k},{values.get(k, 0)}" for k in range(4096)]
        csv.write_text("\n".join(lines) + "\n")
        peak = _traced_peak("reconstruct", "--measurements", str(csv), "--out", str(out))
        assert peak <= (1 << n) * 8 + (3 << 19), peak
        measured = MeasurementSet(values.items(), "sequency", n, 2048, 2048)
        assert out.read_bytes() == _library_pgm(measured)


def _line_loop(data: bytes):
    """What the line loop alone reads from a CSV file's bytes, or its error message."""
    try:
        text = io.TextIOWrapper(io.BytesIO(data), encoding="ascii").read()  # as open() reads
    except UnicodeDecodeError:
        return "measurements file is not ASCII text"
    try:
        meta, entries = _parse_measurement_csv(text)
    except InputDataError as exc:
        return str(exc)
    return (meta, entries) if entries else "measurements file holds no data lines"


def _vectorized(data: bytes):
    """What `_read_measurements` reads, in the line loop's form, or its error message."""
    try:
        meta, indices, values = _read_measurements(data)
    except InputDataError as exc:
        return str(exc)
    return meta, list(zip(map(int, indices), values.tolist()))


_FIELD = st.one_of(
    st.integers(-3, 70),
    st.integers(-(2**65), 2**65),
    st.sampled_from([2**63 - 1, -(2**63 - 1), -(2**63), 2**63, -(2**63) - 1, 2**64, 10**30]),
).map(str) | st.sampled_from(["1_000", "", "-", "--1", "+5", " 7", "7 ", "\t7", "007", "-0", "1e3"])
_PLAIN_LINE = st.tuples(st.integers(0, 70), st.integers(-(2**63), 2**63 - 1)).map(
    lambda pair: f"{pair[0]},{pair[1]}"
)
_ODD_LINE = st.one_of(
    st.tuples(_FIELD, _FIELD).map(",".join),
    _FIELD,  # one column
    st.tuples(_FIELD, _FIELD, _FIELD).map(",".join),  # three columns
    st.tuples(_FIELD, _FIELD).map(lambda pair: f"{pair[0]},{pair[1]} # note"),  # mid-line '#'
    st.sampled_from(["", "   ", "# note", "#hadrow n=3 scheme=sequency", "  # hadrow width=4"]),
)
_HEADER = st.sampled_from(["# hadrow n=2 scheme=dyadic width=2 height=2", "#hadrow n=4", "# note", ""])
# str.splitlines breaks on all of these; a text-mode read turns \r\n and \r into \n.
_BREAK = st.sampled_from(["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])


@st.composite
def measurement_csvs(draw):
    """CSV bytes: header and plain data lines, then up to two odd lines or breaks."""
    lines = draw(st.lists(_HEADER, max_size=2)) + draw(st.lists(_PLAIN_LINE, max_size=8))
    breaks = ["\n"] * len(lines)
    for _ in range(draw(st.integers(0, 2))):
        spot = draw(st.integers(0, len(lines)))
        if draw(st.booleans()):
            lines.insert(spot, draw(_ODD_LINE | _HEADER))
            breaks.insert(spot, "\n")
        elif spot < len(lines):
            breaks[spot] = draw(_BREAK)
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    if lines and draw(st.booleans()):
        text = text[: -len(breaks[-1])]  # no break after the last line
    return text.encode("ascii")


class TestMeasurementParse:
    """The vectorized CSV pass reads what the line loop reads, or fails as it does."""

    @settings(max_examples=600, deadline=None)
    @given(measurement_csvs())
    def test_vectorized_pass_matches_the_line_loop(self, data):
        assert _vectorized(data) == _line_loop(data)

    @pytest.mark.parametrize(
        "data",
        [b"1_000,2\n", b"3,4 # note\n", b"5\n", b"1,2,3\n", b"0,9223372036854775807\n",
         b"0,-9223372036854775808\n", b"0,9223372036854775808\n", b"0,-9223372036854775809\n",
         b"9223372036854775808,1\n", b"\n\n0,1\r\n\r\n1,2", b"0,1\x0b1,2\n", b"0,1\x0c1,2",
         b"0,1\x1c1,2\n", b"0,1\n# hadrow n=2\n1,2\n", b"# hadrow n=2\x0b0,1\n1,2\n", b"",
         b"# hadrow n=2\n", b"0,\xc3\xa9\n"],
    )
    def test_named_cases_match_the_line_loop(self, data):
        assert _vectorized(data) == _line_loop(data)

    def test_integer_parsed_through_float_takes_the_line_loop(self, monkeypatch):
        # A NumPy release that still parses an int64 overflow through float
        # warns before returning its wrapped value.
        def through_float(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
            return np.array([[0, -(2**63)]])

        monkeypatch.setattr(np, "loadtxt", through_float)
        data = b"0,9223372036854775808\n"
        message = "measurements line 1: value does not fit in 64 bits"
        assert _vectorized(data) == _line_loop(data) == message

    @pytest.mark.parametrize(
        "text,whole",
        [("# hadrow n=2 width=2 height=2\n\n0,10\n1,-2\n2,-4\n3,0\n", False),
         ("0,10\n1,-2\n2,-4\n3,0", False),
         ("# hadrow n=2\n0,10\n1,-2\n2,-4\n3, 0\n", True),
         ("0,10\n1,-2\n# note\n2,-4\n3,0\n", True)],
    )
    def test_only_odd_files_take_the_line_loop_whole(self, tmp_path, monkeypatch, text, whole):
        seen = []
        line_loop = cli._parse_measurement_csv
        monkeypatch.setattr(cli, "_parse_measurement_csv", lambda t: seen.append(t) or line_loop(t))
        csv = tmp_path / "m.csv"
        csv.write_bytes(text.encode("ascii"))
        out = tmp_path / "r.pgm"
        assert run("reconstruct", "--measurements", str(csv), "--n", "2", "--out", str(out)) == 0
        assert read_pgm(out.read_bytes()).pixels.tolist() == [1, 2, 3, 4]
        assert (seen[-1] == text) == whole

    @pytest.mark.parametrize(
        "text,message",
        [("# hadrow n=2 width=2 height=2\n0,10\n1,-2\n2,-4\n3,0\n# hadrow n=3 width=4 height=2\n",
          "measurements line 6: header line after data"),
         ("# hadrow n=2 n=3 width=4 height=2\n0,10\n1,-2\n2,-4\n3,0\n",
          "measurements line 1: header repeats n"),
         ("# hadrow n=2\n\n#hadrow width=2 n=2\n0,10\n1,-2\n2,-4\n3,0\n",
          "measurements line 3: header repeats n")],
        ids=["header-after-data", "key-twice-on-one-line", "key-on-two-lines"],
    )
    def test_stray_header_is_io_error(self, tmp_path, capsys, text, message):
        csv = tmp_path / "m.csv"
        csv.write_text(text)
        out = tmp_path / "r.pgm"
        assert run("reconstruct", "--measurements", str(csv), "--out", str(out)) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        ["# hadrowing notes: n=3 width=4 height=2\n0,10\n1,-2\n2,-4\n3,0\n",
         "0,10\n1,-2\n2,-4\n3,0\n# hadrowing notes: n=3 width=4 height=2\n"],
        ids=["before-data", "after-data"],
    )
    def test_comment_starting_with_hadrow_is_not_a_header(self, tmp_path, text):
        csv = tmp_path / "m.csv"
        csv.write_text(text)
        out = tmp_path / "r.pgm"
        assert run("reconstruct", "--measurements", str(csv), "--n", "2", "--out", str(out)) == 0
        assert read_pgm(out.read_bytes()).pixels.tolist() == [1, 2, 3, 4]

    def test_benchmark_csvs_take_the_vectorized_pass(self, tmp_path, monkeypatch):
        # The two spi benchmark workloads' files: simulate's CSV of a 32x32
        # scene, and a header plus 4096 measurements at n = 22.
        image = tmp_path / "scene.pgm"
        image.write_bytes(write_pgm(np.random.default_rng(32).integers(0, 256, size=(32, 32))))
        csv = tmp_path / "m.csv"
        assert run("simulate", "--image", str(image), "--ordering", "sequency",
                   "--out", str(csv)) == 0
        header = "# hadrow n=22 scheme=sequency width=2048 height=2048\n"
        big = header + "".join(f"{k},{(k % 7 - 3) << 22}\n" for k in range(4096))
        seen = []
        line_loop = cli._parse_measurement_csv
        monkeypatch.setattr(cli, "_parse_measurement_csv", lambda t: seen.append(t) or line_loop(t))
        for data in (csv.read_bytes(), big.encode("ascii")):
            seen.clear()
            meta, indices, values = _read_measurements(data)
            # The line loop read the header line alone; loadtxt read every data line.
            assert seen == [data[: data.index(b"\n") + 1].decode("ascii")]
            assert meta["scheme"] == "sequency"
            assert len(indices) == len(values) == data.count(b"\n") - 1


class TestParserReuse:
    """`main` builds its parser once per process and carries nothing from call to call."""

    def test_parser_is_built_on_the_first_call_only(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **k: built.append(1) or init(self, *a, **k))
        cli._build_parser.cache_clear()
        assert run("row", "--index", "1", "--n", "2") == 0
        first = len(built)
        assert first == 7  # the top level and its six subcommands
        for argv in (["row", "--index", "2", "--n", "3"], ["bench", "--n-min", "5", "--n-max", "4"],
                     ["verify", "--n-max", "2"]):
            run(*argv)
        with pytest.raises(SystemExit):
            run("frobnicate")
        assert len(built) == first

    def test_reconstruct_flags_do_not_carry_over(self, tmp_path):
        pixels = np.arange(32).reshape(4, 8)
        image = tmp_path / "in.pgm"
        image.write_bytes(write_pgm(pixels))
        csv = tmp_path / "m.csv"
        assert run("simulate", "--image", str(image), "--out", str(csv)) == 0
        bare = tmp_path / "bare.csv"
        bare.write_text(csv.read_text().split("\n", 1)[1])
        out = tmp_path / "r.pgm"
        argv = ["reconstruct", "--measurements", str(bare), "--out", str(out)]
        assert run(*argv, "--n", "5", "--width", "4") == 0
        assert read_pgm(out.read_bytes()).reshaped().shape == (8, 4)
        assert run("reconstruct", "--measurements", str(csv), "--out", str(out)) == 0
        assert out.read_bytes() == image.read_bytes()  # the header's 8x4, not the flags'

    def test_row_verbose_does_not_carry_over(self, capsys):
        assert run("row", "--index", "5", "--n", "4", "--verbose") == 0
        assert capsys.readouterr().err == "multiplications: 30\n"
        assert run("row", "--index", "5", "--n", "4") == 0
        assert capsys.readouterr().err == ""

    def test_failures_leave_what_a_fresh_process_gives(self, tmp_path, capfd):
        argvs = [["frobnicate"],
                 ["batch", "--indices", "0..4", "--n", "3", "--jobs", "0"],
                 ["batch", "--indices", "0..4,6", "--n", "3", "--ordering", "dyadic"]]
        fresh = []
        for argv in argvs:
            done = subprocess.run([sys.executable, "-m", "hadrow.cli", *argv], capture_output=True,
                                  env={**os.environ, "PYTHONPATH": str(SRC)})
            fresh.append((done.returncode, done.stdout, done.stderr))
        capfd.readouterr()
        in_process = []
        for argv in argvs:
            try:
                code = run(*argv)
            except SystemExit as exc:
                code = exc.code
            sys.stdout.flush()
            sys.stderr.flush()
            out, err = capfd.readouterr()
            in_process.append((code, out.encode(), err.encode()))
        assert [code for code, _, _ in fresh] == [2, 2, 0]
        assert in_process == fresh

    @pytest.mark.parametrize(
        "command", [None, "row", "batch", "verify", "simulate", "reconstruct", "bench"]
    )
    def test_help_matches_a_fresh_parser(self, capsys, command):
        argv = [command, "--help"] if command else ["--help"]
        assert run("row", "--index", "0", "--n", "1") == 0
        texts = []
        for parse in (main, cli._build_parser.__wrapped__().parse_args):
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert texts[0].startswith(f"usage: hadrow {command or ''}".rstrip())


_OUT_COMMANDS = ["row", "batch", "simulate", "reconstruct", "bench"]


@pytest.fixture
def out_argv(tmp_path, monkeypatch):
    """One command line per --out subcommand, whose bytes repeat from run to run."""
    # bench's timings and peaks are pinned so that its CSV repeats too.
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    monkeypatch.setattr(cli, "tracemalloc", SimpleNamespace(
        is_tracing=lambda: True, get_traced_memory=lambda: (0, 0), reset_peak=lambda: None))
    scene, csv = tmp_path / "scene.pgm", tmp_path / "m.csv"
    scene.write_bytes(write_pgm(np.arange(64).reshape(8, 8) * 1000))
    assert run("simulate", "--image", str(scene), "--ordering", "sequency", "--out", str(csv)) == 0
    return {
        "row": ["row", "--index", "21", "--n", "8", "--format", "pbm"],
        "batch": ["batch", "--indices", "0..40,77", "--n", "9", "--ordering", "dyadic"],
        "simulate": ["simulate", "--image", str(scene), "--ordering", "sequency"],
        "reconstruct": ["reconstruct", "--measurements", str(csv)],
        "bench": ["bench", "--n-min", "3", "--n-max", "5", "--repeats", "1"],
    }


def _stdout_bytes(argv, capsysbinary, code=0):
    capsysbinary.readouterr()
    assert run(*argv) == code
    return capsysbinary.readouterr().out


def _longer_file(path, size):
    path.write_bytes(b"#" * (size + 5000))  # no newline: any stale tail shows
    return path


class TestOutInPlace:
    """An existing --out file is overwritten in place and cut to the bytes written."""

    @pytest.mark.parametrize("name", _OUT_COMMANDS)
    def test_longer_file_keeps_inode_and_mode(self, name, out_argv, tmp_path, capsysbinary):
        expected = _stdout_bytes(out_argv[name], capsysbinary)
        out = _longer_file(tmp_path / "out", len(expected))
        out.chmod(0o640)
        before = out.stat()
        assert run(*out_argv[name], "--out", str(out)) == 0
        after = out.stat()
        assert out.read_bytes() == expected
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)

    @pytest.mark.parametrize("name", _OUT_COMMANDS)
    def test_symlink_stays_and_its_target_gets_the_bytes(
        self, name, out_argv, tmp_path, capsysbinary
    ):
        expected = _stdout_bytes(out_argv[name], capsysbinary)
        target = _longer_file(tmp_path / "target", len(expected))
        link = tmp_path / "link"
        link.symlink_to(target)
        inode = target.stat().st_ino
        assert run(*out_argv[name], "--out", str(link)) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == expected and target.stat().st_ino == inode

    @pytest.mark.parametrize("name", _OUT_COMMANDS)
    def test_hard_link_sees_the_new_bytes(self, name, out_argv, tmp_path, capsysbinary):
        expected = _stdout_bytes(out_argv[name], capsysbinary)
        out = _longer_file(tmp_path / "out", len(expected))
        other = tmp_path / "other"
        os.link(out, other)
        assert run(*out_argv[name], "--out", str(out)) == 0
        assert other.read_bytes() == expected and out.stat().st_nlink == 2

    @pytest.mark.parametrize("name", _OUT_COMMANDS)
    def test_new_file_mode_follows_the_umask(self, name, out_argv, tmp_path, capsysbinary):
        expected = _stdout_bytes(out_argv[name], capsysbinary)
        out = tmp_path / "new"
        old = os.umask(0o027)
        try:
            assert run(*out_argv[name], "--out", str(out)) == 0
        finally:
            os.umask(old)
        assert out.read_bytes() == expected
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o027

    def test_error_after_open_cuts_to_the_bytes_written(self, tmp_path, monkeypatch, capsysbinary):
        def fail(writer, rows):
            raise OSError(errno.ENOSPC, "no room for rows")

        monkeypatch.setattr(cli.PatternWriter, "write_rows", fail)
        argv = ["batch", "--indices", "0..40", "--n", "9"]
        written = _stdout_bytes(argv, capsysbinary, code=3)
        assert len(written) == 16 + 8 * 40  # the header and index block
        out = _longer_file(tmp_path / "p.hadp", len(written))
        assert run(*argv, "--out", str(out)) == 3
        assert out.read_bytes() == written
        assert capsysbinary.readouterr().err == b"error: [Errno 28] no room for rows\n"

    def test_pgm_block_error_cuts_to_the_header(
        self, out_argv, tmp_path, monkeypatch, capsysbinary
    ):
        real = cli._pgm_pieces

        def pieces(image):
            yield next(real(image))  # the header, then the first raster block fails
            raise PgmError("block lost")

        monkeypatch.setattr(cli, "_pgm_pieces", pieces)
        written = _stdout_bytes(out_argv["reconstruct"], capsysbinary, code=3)
        assert written == b"P5\n8 8\n65535\n"
        out = _longer_file(tmp_path / "out.pgm", len(written))
        assert run(*out_argv["reconstruct"], "--out", str(out)) == 3
        assert out.read_bytes() == written

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_the_cut_never_masks_the_first_error(self, monkeypatch, capsys):
        # Taken for a regular file, /dev/null refuses the cut (EINVAL).
        monkeypatch.setattr(cli, "stat", SimpleNamespace(S_ISREG=lambda mode: True))
        argv = ["batch", "--indices", "0..4", "--n", "3", "--out", os.devnull]
        assert run(*argv) == 3
        assert "Invalid argument" in capsys.readouterr().err

        def fail(writer, rows):
            raise ValueError("first")

        monkeypatch.setattr(cli.PatternWriter, "write_rows", fail)
        assert run(*argv) == 2
        assert capsys.readouterr().err == "error: first\n"

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    @pytest.mark.parametrize("name", ["batch", "reconstruct"])
    def test_dev_null_is_written_not_cut(self, name, out_argv):
        assert run(*out_argv[name], "--out", os.devnull) == 0

    @pytest.mark.parametrize(
        "name,flag", [("simulate", "--image"), ("reconstruct", "--measurements")]
    )
    def test_input_as_its_own_out(self, name, flag, out_argv, tmp_path):
        argv = out_argv[name]
        fresh = tmp_path / "fresh"
        assert run(*argv, "--out", str(fresh)) == 0
        same = tmp_path / "same"
        same.write_bytes(Path(argv[argv.index(flag) + 1]).read_bytes())
        argv[argv.index(flag) + 1] = str(same)
        assert run(*argv, "--out", str(same)) == 0
        assert same.read_bytes() == fresh.read_bytes()


class TestBench:
    def test_counts_column_matches_formula(self, capsys):
        assert run("bench", "--n-min", "2", "--n-max", "5", "--repeats", "2") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,seconds,multiplications,predicted,peak_bytes"
        for line in lines[1:]:
            n, _, mults, predicted, peak = line.split(",")
            assert int(mults) == int(predicted) == predicted_cost(int(n))
            assert int(peak) > 0

    def test_empty_range_is_usage_error(self, capsys):
        assert run("bench", "--n-min", "5", "--n-max", "4") == 2

    def test_zero_repeats_is_usage_error(self, capsys):
        assert run("bench", "--n-min", "2", "--n-max", "3", "--repeats", "0") == 2
        assert capsys.readouterr().err == "error: --repeats must be >= 1, got 0\n"

    def test_leaves_a_callers_tracemalloc_session_running(self, capsys):
        tracemalloc.start()
        try:
            buffer = bytearray(8 << 20)  # the caller's peak: 8 MiB, then freed
            del buffer
            assert run("bench", "--n-min", "10", "--n-max", "11", "--repeats", "1") == 0
            assert tracemalloc.is_tracing()
            # As documented, bench resets the session's peak, so the caller's is lost.
            assert tracemalloc.get_traced_memory()[1] < 8 << 20
        finally:
            tracemalloc.stop()
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        for line, n in zip(lines, (10, 11), strict=True):
            # The row's peak is measured in the caller's session as in bench's own.
            assert int(line.split(",")[-1]) >= (1 << n) // 8

    def test_stops_the_tracing_it_started(self, capsys):
        assert not tracemalloc.is_tracing()
        assert run("bench", "--n-min", "4", "--n-max", "4", "--repeats", "1") == 0
        assert not tracemalloc.is_tracing()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        run("frobnicate")
    assert err.value.code == 2
