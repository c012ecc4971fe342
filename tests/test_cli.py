"""End-to-end tests of the command line surface and its exit-code contract."""

import tracemalloc

import numpy as np
import pytest

from hadrow import (
    full_matrix,
    generate_ordered_row,
    generate_row,
    predicted_cost,
    read_patterns,
    read_pgm,
    simulate,
    write_patterns,
    write_pgm,
)
from hadrow.cli import main


def run(*argv):
    return main(list(argv))


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

    def test_verbose_reports_multiplications(self, capsys):
        assert run("row", "--index", "5", "--n", "4", "--verbose") == 0
        assert "multiplications: 30" in capsys.readouterr().err

    def test_ordered_row(self, capsys):
        assert run("row", "--index", "1", "--n", "2", "--ordering", "sequency") == 0
        assert capsys.readouterr().out == "1,1,-1,-1\n"

    def test_packed_output(self, tmp_path):
        out = tmp_path / "row.bin"
        assert run("row", "--index", "6", "--n", "4", "--format", "packed", "--out", str(out)) == 0
        assert out.read_bytes() == generate_row(6, 4)[0].packed

    def test_pbm_requires_even_order(self, capsys):
        assert run("row", "--index", "1", "--n", "3", "--format", "pbm") == 2
        assert "even" in capsys.readouterr().err

    def test_unwritable_output_is_io_error(self, capsys):
        assert run("row", "--index", "0", "--n", "2", "--out", "/nonexistent/dir/x.csv") == 3

    def test_env_var_lowers_the_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("HADROW_MAX_N", "10")
        assert run("row", "--index", "0", "--n", "12") == 2
        monkeypatch.setenv("HADROW_MAX_N", "banana")
        assert run("row", "--index", "0", "--n", "2") == 2

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
        "header,flags",
        [("# hadrow n=2 width=-2 height=-2\n", []), ("", ["--width", "-1", "--height", "-4"])],
        ids=["header", "flags"],
    )
    def test_side_below_one_is_usage_error(self, tmp_path, capsys, header, flags):
        # Both products equal 2^2; the measurement set rejects the sides.
        csv = tmp_path / "m.csv"
        csv.write_text(header + "0,10\n")
        assert run("reconstruct", "--measurements", str(csv), "--n", "2", *flags) == 2
        assert "sides must be >= 1" in capsys.readouterr().err

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


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        run("frobnicate")
    assert err.value.code == 2
