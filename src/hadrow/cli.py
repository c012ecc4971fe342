"""Command line surface: single rows, batches, verification, imaging, benchmarks.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O or
malformed-input error.  Data goes to stdout (or --out), diagnostics to
stderr.  The environment variable HADROW_MAX_N may lower (never raise)
the order cap.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import statistics
import sys
import time
import tracemalloc
from random import Random

import numpy as np

from .core import (
    FULL_MATRIX_CAP,
    ORDER_CAP,
    direct_row,
    full_matrix,
    generate_row,
    generate_rows,
    predicted_cost,
)
from .formats import PatternFormatError, PatternWriter, export_row_text
from .ordering import (
    OrderingScheme,
    generate_ordered_row,
    sign_changes,
    to_natural,
    to_natural_array,
)
from .spi import (
    MAX_PIXEL,
    MeasurementSet,
    PgmError,
    read_pgm,
    reconstruct,
    simulate,
    write_pgm,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3

_SCHEME_NAMES = [scheme.value for scheme in OrderingScheme]
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
# `batch` builds and writes about this many bytes per kernel pass, at least
# one row, so its memory stays flat in the number of rows.  Besides its
# packed bytes, each row of a pass costs under _INDEX_WORK_BYTES of index
# work (int64 copies of its index and the kernel's 32 mask bytes), which
# dominates at small orders.
BATCH_CHUNK_BYTES = 1 << 20
_INDEX_WORK_BYTES = 64


class UsageError(ValueError):
    """Bad flag values; mapped to exit code 2."""


class InputDataError(ValueError):
    """Malformed input file contents; mapped to exit code 3."""


def _order_cap() -> int:
    raw = os.environ.get("HADROW_MAX_N")
    if raw is None:
        return ORDER_CAP
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"HADROW_MAX_N must be an integer, got {raw!r}") from None
    if value < 1:
        raise UsageError(f"HADROW_MAX_N must be positive, got {value}")
    return min(ORDER_CAP, value)


def _check_cli_order(n: int) -> None:
    cap = _order_cap()
    if not 1 <= n <= cap:
        raise UsageError(f"order exponent must be in [1, {cap}], got {n}")


def _parse_indices(text: str, n: int) -> np.ndarray:
    """Comma list of indices and half-open a..b ranges; dedup, sort, range-check.

    Every index and range bound is checked against 2^n before any range is
    expanded, so an oversized range fails at once instead of filling memory.
    The selection is a sorted int64 array, 8 bytes per selected index.
    """
    size = 1 << n
    out_of_range = f"indices must lie in [0, {size})"
    ranges: list[tuple[int, int]] = []
    singles: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise UsageError("empty entry in --indices")
        if ".." in part:
            lo_text, _, hi_text = part.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise UsageError(f"bad index range {part!r}") from None
            if lo > hi:
                raise UsageError(f"descending index range {part!r}")
            if lo < 0 or hi > size:
                raise UsageError(out_of_range)
            ranges.append((lo, hi))
        else:
            try:
                k = int(part)
            except ValueError:
                raise UsageError(f"bad index entry {part!r}") from None
            if not 0 <= k < size:
                raise UsageError(out_of_range)
            singles.append(k)
    pieces = [np.arange(lo, hi, dtype=np.int64) for lo, hi in ranges]
    picked = np.unique(np.concatenate([np.array(singles, dtype=np.int64), *pieces]))
    if not picked.size:
        raise UsageError("--indices selected nothing")
    return picked


@contextlib.contextmanager
def _output(path: str | None):
    """Binary sink for every subcommand's data: the --out file, else stdout."""
    if path is None:
        yield sys.stdout.buffer
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            yield fh


def cmd_row(args) -> int:
    _check_cli_order(args.n)
    scheme = OrderingScheme(args.ordering)
    natural = to_natural(args.index, args.n, scheme)
    row, counter = generate_row(natural, args.n)
    if args.verbose:
        print(f"multiplications: {counter.multiplications}", file=sys.stderr)
    if args.format == "packed":
        data = row.packed
    else:
        data = export_row_text(row, args.format).encode("ascii")
    with _output(args.out) as fh:
        fh.write(data)
    return EXIT_OK


def cmd_batch(args) -> int:
    _check_cli_order(args.n)
    # --jobs is still validated so that old command lines keep working,
    # but one vectorized pass per chunk leaves no per-row work to share.
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    scheme = OrderingScheme(args.ordering)
    ordered = _parse_indices(args.indices, args.n)
    row_bytes = ((1 << args.n) + 7) // 8
    chunk = max(1, BATCH_CHUNK_BYTES // (row_bytes + _INDEX_WORK_BYTES))
    with _output(args.out) as fh:
        writer = PatternWriter(fh, ordered, args.n, scheme)
        for start in range(0, ordered.size, chunk):
            naturals = to_natural_array(ordered[start : start + chunk], args.n, scheme)
            writer.write_rows(generate_rows(naturals, args.n)[0])
        writer.finish()
    return EXIT_OK


def cmd_verify(args) -> int:
    n_max = args.n_max
    if not 1 <= n_max <= FULL_MATRIX_CAP:
        raise UsageError(
            f"--n-max must be in [1, {FULL_MATRIX_CAP}] (full-matrix oracle cap), got {n_max}"
        )
    if n_max > _order_cap():
        raise UsageError(f"--n-max {n_max} exceeds the HADROW_MAX_N cap {_order_cap()}")
    failures = 0

    def emit(suite: str, label: str, ok: bool) -> None:
        nonlocal failures
        if not ok:
            failures += 1
        print(f"{suite:<20} {label:<16} {'PASS' if ok else 'FAIL'}")

    for n in range(1, n_max + 1):
        rows = full_matrix(n)
        ok = all(
            generate_row(i, n)[0] == rows[i] == direct_row(i, n) for i in range(1 << n)
        )
        emit("oracle-equivalence", f"n={n}", ok)

    for n in range(1, min(n_max, 8) + 1):
        size = 1 << n
        stacked = np.stack(
            [generate_row(i, n)[0].to_numpy().astype(np.int64) for i in range(size)]
        )
        ok = bool(np.array_equal(stacked @ stacked.T, size * np.eye(size, dtype=np.int64)))
        emit("orthogonality", f"n={n}", ok)

    rng = Random(0x5EED)
    for n in range(1, n_max + 1):
        expected = predicted_cost(n)
        counts = {
            generate_row(rng.randrange(1 << n), n)[1].multiplications for _ in range(10)
        }
        emit("counter-law", f"C({n}) = {expected}", counts == {expected})

    for n in range(1, min(n_max, 10) + 1):
        ok = all(
            sign_changes(generate_ordered_row(k, n, OrderingScheme.SEQUENCY)) == k
            for k in range(1 << n)
        )
        emit("sequency-law", f"n={n}", ok)

    print("all checks passed" if failures == 0 else f"{failures} check(s) FAILED")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _read_file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def cmd_simulate(args) -> int:
    scene = read_pgm(_read_file_bytes(args.image))
    _check_cli_order(scene.n)
    scheme = OrderingScheme(args.ordering)
    if args.indices is None:
        ordered = np.arange(1 << scene.n)
    else:
        ordered = _parse_indices(args.indices, scene.n)
    measured = simulate(scene, ordered, scheme)
    lines = [
        f"# hadrow n={measured.n} scheme={measured.scheme} "
        f"width={measured.width} height={measured.height}"
    ]
    lines += [f"{k},{y}" for k, y in measured.entries]
    with _output(args.out) as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
    return EXIT_OK


def _parse_measurement_csv(text: str) -> tuple[dict, list[tuple[int, int]]]:
    meta: dict = {}
    entries: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("hadrow"):
                for token in body.split()[1:]:
                    key, sep, value = token.partition("=")
                    if sep:
                        meta[key] = value
            continue
        left, sep, right = line.partition(",")
        if not sep:
            raise InputDataError(f"measurements line {lineno}: expected 'index,value'")
        try:
            index, value = int(left), int(right)
        except ValueError:
            raise InputDataError(f"measurements line {lineno}: non-integer field") from None
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise InputDataError(f"measurements line {lineno}: value does not fit in 64 bits")
        entries.append((index, value))
    if not entries:
        raise InputDataError("measurements file holds no data lines")
    return meta, entries


def _meta_int(meta: dict, key: str) -> int | None:
    if key not in meta:
        return None
    try:
        return int(meta[key])
    except ValueError:
        raise InputDataError(f"bad {key}={meta[key]!r} in measurements header") from None


def cmd_reconstruct(args) -> int:
    with open(args.measurements, "r", encoding="ascii") as fh:
        # The text is freed once parsed, before the transform's buffers exist.
        try:
            meta, entries = _parse_measurement_csv(fh.read())
        except UnicodeDecodeError:
            raise InputDataError("measurements file is not ASCII text") from None
    n = args.n if args.n is not None else _meta_int(meta, "n")
    if n is None:
        raise UsageError("order exponent unknown: no CSV header and no --n")
    _check_cli_order(n)
    if args.ordering is not None:
        scheme = OrderingScheme(args.ordering)
    else:
        try:
            scheme = OrderingScheme(meta.get("scheme", "natural"))
        except ValueError:
            raise InputDataError(f"bad scheme {meta['scheme']!r} in measurements header") from None
    width = args.width if args.width is not None else _meta_int(meta, "width")
    height = args.height if args.height is not None else _meta_int(meta, "height")
    if width is None or height is None:
        if n % 2:
            raise UsageError("scene shape unknown: pass --width/--height (no square for odd n)")
        width = height = 1 << (n // 2)
    measured = MeasurementSet(tuple(entries), scheme, n, width, height)
    try:
        estimate = reconstruct(measured)
    except ValueError as exc:
        # The set is already validated, so only its values, which would
        # overflow the 64-bit transform, can fail here: bad file contents.
        raise InputDataError(str(exc)) from None
    # The estimate is ours alone, so rounding and clipping reuse its buffer.
    if estimate.dtype.kind == "f":
        np.rint(estimate, out=estimate)
    np.clip(estimate, 0, MAX_PIXEL, out=estimate)
    with _output(args.out) as fh:
        fh.write(write_pgm(estimate))
    return EXIT_OK


def cmd_bench(args) -> int:
    cap = _order_cap()
    if not 1 <= args.n_min <= args.n_max <= cap:
        raise UsageError(
            f"need 1 <= --n-min <= --n-max <= {cap}, got {args.n_min}..{args.n_max}"
        )
    if args.repeats < 1:
        raise UsageError(f"--repeats must be >= 1, got {args.repeats}")
    rng = Random(20240)
    lines = ["n,seconds,multiplications,predicted,peak_bytes"]
    for n in range(args.n_min, args.n_max + 1):
        indices = [rng.randrange(1 << n) for _ in range(args.repeats)]
        times = []
        mults = 0
        for i in indices:
            start = time.perf_counter()
            _, counter = generate_row(i, n)
            times.append(time.perf_counter() - start)
            mults = counter.multiplications
        tracemalloc.start()
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        generate_row(indices[0], n)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        lines.append(
            f"{n},{statistics.median(times):.9f},{mults},{predicted_cost(n)},{peak - baseline}"
        )
    with _output(args.out) as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hadrow",
        description="Generate single Hadamard matrix rows on demand, verify them, "
        "and simulate single-pixel imaging.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("row", help="generate one row")
    p.add_argument("--index", type=int, required=True, help="ordered row index")
    p.add_argument("--n", type=int, required=True, help="order exponent; rows have 2^n entries")
    p.add_argument("--ordering", choices=_SCHEME_NAMES, default="natural")
    p.add_argument("--format", choices=["csv", "pbm", "packed"], default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--verbose", action="store_true", help="print multiplication count to stderr")
    p.set_defaults(func=cmd_row)

    p = sub.add_parser("batch", help="write a HADP pattern file for many rows")
    p.add_argument("--indices", required=True, help="comma list and/or half-open a..b ranges")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ordering", choices=_SCHEME_NAMES, default="natural")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted for compatibility (must be >= 1); has no effect, output is identical",
    )
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("verify", help="run the invariant suites and print a pass/fail table")
    p.add_argument("--n-max", type=int, default=10, help=f"largest order exponent (<= {FULL_MATRIX_CAP})")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "simulate",
        help="measure a PGM scene: one fast transform for n or more indices, "
        "else one streamed row each",
    )
    p.add_argument("--image", required=True, help="P2/P5 graymap with power-of-two sides")
    p.add_argument("--indices", default=None, help="ordered indices (default: all)")
    p.add_argument("--ordering", choices=_SCHEME_NAMES, default="natural")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "reconstruct",
        help="invert a measurement CSV back to a PGM: w*2^w additions over the w natural "
        "index bits the measurements use, then one 2^n write into the output buffer "
        "(a spare 2^n transform buffer only when they span every bit)",
    )
    p.add_argument("--measurements", required=True, help="CSV of k,y_k lines")
    p.add_argument("--out", default=None, help="PGM output path (default stdout)")
    p.add_argument("--n", type=int, default=None, help="order exponent (overrides CSV header)")
    p.add_argument("--ordering", choices=_SCHEME_NAMES, default=None)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--height", type=int, default=None)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("bench", help="time row generation and report counts and memory")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--repeats", type=int, default=3, help="timing repeats per order (median)")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputDataError, PgmError, PatternFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # UsageError, OrderError, IndexRangeError, DuplicateIndexError and
        # any other bad value are usage errors.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
