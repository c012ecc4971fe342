"""Acceptance gate: every shipping criterion, each printing one PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines;
plain `pytest` shows them only for failures.
"""

import gc
import time
import tracemalloc

import numpy as np

import hadrow as hr
from hadrow.cli import main as cli_main

# Row 6 of the order-16 matrix: digits 0110 select base rows 0,1,1,0.
# Values frozen from the full-matrix oracle and confirmed by direct_row.
GOLDEN_ROW_6_N4 = [1, 1, -1, -1, -1, -1, 1, 1, 1, 1, -1, -1, -1, -1, 1, 1]


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:>2}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_golden_row_vector():
    row, counter = hr.generate_row(6, 4)
    ok = row.to_numpy().tolist() == GOLDEN_ROW_6_N4
    ok &= row == hr.full_matrix(4)[6]
    ok &= row == hr.direct_row(6, 4)
    ok &= counter.multiplications == 30
    best = min(_timed_generate(6, 4) for _ in range(30))
    report(1, "golden row 6 at order 16, dual-oracle exact", ok and best < 1e-3,
           f"best call {best * 1e6:.0f} us")


def _timed_generate(i, n):
    start = time.perf_counter()
    hr.generate_row(i, n)
    return time.perf_counter() - start


def test_criterion_02_multiplication_count_law():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    for n in range(1, 21):
        expected = hr.predicted_cost(n)
        ok &= expected == (1 << (n + 1)) - 2
        for i in map(int, rng.integers(0, 1 << n, size=10)):
            ok &= hr.generate_row(i, n)[1].multiplications == expected
    elapsed = time.perf_counter() - start
    report(2, "counter equals 2^(n+1)-2 for n=1..20", ok and elapsed < 30.0,
           f"{elapsed:.2f}s")


def test_criterion_03_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    for n in range(1, 11):
        rows = hr.full_matrix(n)
        for i in range(1 << n):
            ok &= hr.generate_row(i, n)[0] == rows[i]
    rng = np.random.default_rng(333)
    for _ in range(1000):
        n = int(rng.integers(11, 17))
        i = int(rng.integers(0, 1 << n))
        ok &= hr.generate_row(i, n)[0] == hr.direct_row(i, n)
    elapsed = time.perf_counter() - start
    report(3, "exhaustive n<=10 vs full matrix, 1000 spots vs closed form",
           ok and elapsed < 60.0, f"{elapsed:.2f}s")


def test_criterion_04_orthogonality():
    ok = True
    for n in range(1, 9):
        size = 1 << n
        stacked = np.stack(
            [hr.generate_row(i, n)[0].to_numpy().astype(np.int64) for i in range(size)]
        )
        ok &= bool(np.array_equal(stacked @ stacked.T, size * np.eye(size, dtype=np.int64)))
    report(4, "all row pairs at n<=8 give dot = 2^n * delta_ij", ok)


def test_criterion_05_sequency_law():
    ok = True
    for n in range(1, 9):
        for k in range(1 << n):
            ok &= hr.sign_changes(hr.generate_ordered_row(k, n, "sequency")) == k
    report(5, "sequency row k has exactly k sign changes, n<=8", ok)


def test_criterion_06_transform_consistency():
    rng = np.random.default_rng(606)
    ok = True
    for n in range(1, 11):
        x = rng.integers(-1000, 1000, size=1 << n)
        coeffs = hr.fwht(x).coefficients
        if n <= 6:
            checked = range(1 << n)
        else:
            checked = map(int, rng.integers(0, 1 << n, size=64))
        for i in checked:
            row = hr.generate_row(i, n)[0].to_numpy().astype(np.int64)
            ok &= int(coeffs[i]) == int(row @ x)
        twice = hr.fwht(coeffs).coefficients
        ok &= bool(np.array_equal(twice, (1 << n) * x.astype(np.int64)))
    report(6, "fwht matches row inner products; fwht twice = 2^n id", ok)


def test_criterion_07_spi_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    scene = hr.Scene(rng.integers(0, 65536, size=32 * 32), 32, 32)  # n = 10, 16-bit
    ok = True
    for scheme in hr.OrderingScheme:
        measured = hr.simulate(scene, range(1 << scene.n), scheme)
        estimate = hr.reconstruct(measured)
        ok &= estimate.dtype == np.int64
        ok &= bool(np.array_equal(estimate, scene.reshaped()))
    elapsed = time.perf_counter() - start
    report(7, "32x32 16-bit scene reconstructs bit-exactly under all orderings",
           ok and elapsed < 30.0, f"{elapsed:.2f}s")


def test_criterion_08_memory_scaling():
    peaks = {}
    for n in range(20, 27):
        gc.collect()
        tracemalloc.start()
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        row, _ = hr.generate_row((1 << n) - 3, n)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks[n] = peak - baseline
        del row
    cap = 4 * (1 << 26)
    ok = peaks[26] <= cap
    growth = [peaks[n + 1] / peaks[n] for n in range(20, 26)]
    ok &= all(1.7 <= g <= 2.5 for g in growth)
    report(8, "one row at n=26 within 4*2^26 bytes; peak doubles per order",
           ok, f"peak(26) = {peaks[26] / 2**20:.0f} MiB, growth {min(growth):.2f}..{max(growth):.2f}")


def test_criterion_09_serialization_round_trips():
    rng = np.random.default_rng(909)

    hadp_rows = 0
    ok = True
    for n in range(1, 13):
        size = 1 << n
        count = min(size, 150)
        picked = sorted(map(int, rng.choice(size, size=count, replace=False)))
        rows = [(k, hr.generate_row(k, n)[0]) for k in picked]
        data = hr.write_patterns(rows, n, "dyadic")
        header, back = hr.read_patterns(data)
        ok &= back == rows
        ok &= hr.write_patterns(back, header.n, header.scheme) == data
        hadp_rows += count

    csv_rows = 0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        row = hr.generate_row(int(rng.integers(0, 1 << n)), n)[0]
        text = hr.export_row_text(row, "csv")
        parsed = hr.SignVector.from_signs([int(tok) for tok in text.strip().split(",")])
        ok &= parsed == row
        ok &= hr.export_row_text(parsed, "csv") == text
        csv_rows += 1

    pbm_rows = 0
    for n in (2, 4, 6, 8, 10, 12):
        for i in map(int, rng.integers(0, 1 << n, size=170)):
            row = hr.generate_row(i, n)[0]
            text = hr.export_row_text(row, "pbm")
            digits = "".join(text.splitlines()[2:])
            parsed = hr.SignVector.from_signs([1 - 2 * int(d) for d in digits])
            ok &= parsed == row
            ok &= hr.export_row_text(parsed, "pbm") == text
            pbm_rows += 1

    ok &= hadp_rows >= 1000 and csv_rows >= 1000 and pbm_rows >= 1000
    report(9, "HADP/CSV/PBM byte-exact round trips on randomized rows",
           ok, f"{hadp_rows}+{csv_rows}+{pbm_rows} rows")


def test_criterion_10_parallel_batch_determinism(tmp_path):
    seq = tmp_path / "seq.hadp"
    par = tmp_path / "par.hadp"
    common = ["batch", "--indices", "0..1024", "--n", "14", "--ordering", "sequency"]
    ok = cli_main(common + ["--jobs", "1", "--out", str(seq)]) == 0
    ok &= cli_main(common + ["--jobs", "8", "--out", str(par)]) == 0
    data = seq.read_bytes()
    ok &= data == par.read_bytes()
    ok &= len(data) > 1024 * (8 + 2048)  # header + indices + packed rows
    report(10, "1024-row batch at n=14 is byte-identical for --jobs 1 and 8", ok)
