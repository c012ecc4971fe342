"""Command line surface: single rows, batches, verification, imaging, benchmarks.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O or
malformed-input error.  Data goes to stdout (or --out), diagnostics to
stderr.  The environment variable HADROW_MAX_N may lower (never raise)
the order cap.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import os
import stat
import statistics
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from random import Random

import numpy as np

from .core import (
    BASE_MATRIX,
    FULL_MATRIX_CAP,
    ORDER_CAP,
    OpCounter,
    SignVector,
    _check_order,
    dec2bin,
    direct_row,
    full_matrix,
    generate_row,
    generate_rows,
    kron,
    predicted_cost,
)
from .formats import _ROW_FORMATS, PatternFormatError, PatternWriter, _row_pieces
from .ordering import (
    OrderingScheme,
    _scheme,
    generate_ordered_row,
    sign_changes,
    to_natural_array,
)
from .spi import (
    MAX_PIXEL,
    MeasurementSet,
    PgmError,
    _pgm_pieces,
    read_pgm,
    reconstruct,
    simulate,
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
# `simulate` formats this many CSV rows per write from slices of the set's
# two columns, so its text, the Python ints it is formatted from and any
# interleaved copy of the columns exist a block at a time, never whole:
# about 40 KiB per block, and smaller blocks measured no slower down to
# 128 rows.
_CSV_BLOCK_ROWS = 1 << 8
# The only bytes of a plain measurement data line (see _plain_rows).
_PLAIN_BYTES = b"0123456789-,\n"
# The settings a measurement CSV's `# hadrow` line records, in its order.
_HEADER_FIELDS = ("n", "scheme", "width", "height")


class UsageError(ValueError):
    """Bad flag values; mapped to exit code 2."""


class InputDataError(ValueError):
    """Malformed input file contents; mapped to exit code 3."""


# Errors that exit 3.  Every other ValueError (UsageError, OrderError,
# IndexRangeError, DuplicateIndexError, ...) is a usage error, exit 2.
_IO_ERRORS = (InputDataError, PgmError, PatternFormatError, OSError)


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


def _parse_indices(text: str, n: int) -> np.ndarray:
    """Comma list of half-open a..b ranges, a lone k short for k..k+1; dedup, sort, range-check.

    Every index and range bound is checked against 2^n before any range is
    expanded, so an oversized range fails at once instead of filling memory.
    Then ranges that overlap or touch are merged, and the merged ranges
    expand at once: one `np.repeat` of each range's offset plus one
    `np.arange`.  The selection is a sorted int64 array, 8 bytes per selected
    index however many entries name it.
    """
    size = 1 << n
    spans = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise UsageError("empty entry in --indices")
        lo_text, sep, hi_text = part.partition("..")
        try:
            lo = int(lo_text)
            hi = int(hi_text) if sep else lo + 1
        except ValueError:
            raise UsageError(f"bad index {'range' if sep else 'entry'} {part!r}") from None
        if lo > hi:
            raise UsageError(f"descending index range {part!r}")
        if lo < 0 or hi > size:
            raise UsageError(f"indices must lie in [0, {size})")
        if lo < hi:
            spans.append((lo, hi))
    if not spans:
        raise UsageError("--indices selected nothing")
    spans.sort()
    los, his = [], []
    for lo, hi in spans:
        if his and lo <= his[-1]:  # overlaps or touches the range before it
            his[-1] = max(his[-1], hi)
        else:
            los.append(lo)
            his.append(hi)
    counts = np.subtract(his, los)
    # Slot p of range e, which starts at slot first[e], holds lo[e] + p - first[e].
    first = np.cumsum(counts) - counts
    picked = np.repeat(np.array(los, dtype=np.int64) - first, counts)
    picked += np.arange(picked.size, dtype=np.int64)
    return picked


def _open_in_place(path, flags):
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _cut(fh) -> None:
    if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        fh.truncate()  # flushes, then cuts at the bytes written


@contextlib.contextmanager
def _output(path: str | None):
    """Binary sink for every subcommand's data: the --out file, else stdout.

    A file is overwritten in place, then cut: ext4 makes O_TRUNC wait on a forced writeback.
    """
    if path is None:
        yield sys.stdout.buffer
        sys.stdout.buffer.flush()
        return
    with open(path, "wb", opener=_open_in_place) as fh:
        try:
            yield fh
        except BaseException:
            with contextlib.suppress(OSError):  # the first error stands
                _cut(fh)
            raise
        _cut(fh)


def cmd_row(args) -> int:
    _check_order(args.n, _order_cap())
    row = generate_ordered_row(args.index, args.n, args.ordering)
    if args.verbose:
        print(f"multiplications: {predicted_cost(args.n)}", file=sys.stderr)
    pieces = _row_pieces(row, args.format)  # a refused format opens no --out file
    with _output(args.out) as fh:
        fh.writelines(pieces)
    return EXIT_OK


def cmd_batch(args) -> int:
    _check_order(args.n, _order_cap())
    # --jobs is still validated so that old command lines keep working,
    # but one vectorized pass per chunk leaves no per-row work to share.
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    scheme = _scheme(args.ordering)
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
        expected, ok = predicted_cost(n), True
        for i in (rng.randrange(1 << n) for _ in range(10)):
            # The paper's chain [1] (x) B[d1] (x) ... (x) B[dn], each product counted by kron.
            counter, chain = OpCounter(), SignVector.from_signs([1])
            for digit in dec2bin(i, n).digits:
                chain = kron(chain, BASE_MATRIX.row(digit), counter)
            ok &= chain == direct_row(i, n) and counter.multiplications == expected
            ok &= generate_row(i, n)[1].multiplications == expected
        emit("counter-law", f"C({n}) = {expected}", ok)

    for n in range(1, min(n_max, 10) + 1):
        ok = all(
            sign_changes(generate_ordered_row(k, n, OrderingScheme.SEQUENCY)) == k
            for k in range(1 << n)
        )
        emit("sequency-law", f"n={n}", ok)

    print("all checks passed" if failures == 0 else f"{failures} check(s) FAILED")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def cmd_simulate(args) -> int:
    scene = read_pgm(Path(args.image).read_bytes())
    _check_order(scene.n, _order_cap())
    scheme = _scheme(args.ordering)
    if args.indices is None:
        ordered = np.arange(1 << scene.n)
    else:
        ordered = _parse_indices(args.indices, scene.n)
    measured = simulate(scene, ordered, scheme)
    settings = " ".join(f"{key}={getattr(measured, key)}" for key in _HEADER_FIELDS)
    with _output(args.out) as fh:
        fh.write(f"# hadrow {settings}\n".encode("ascii"))
        for start in range(0, measured._indices.size, _CSV_BLOCK_ROWS):
            ks = measured._indices[start : start + _CSV_BLOCK_ROWS].tolist()
            fields = ks + ks
            fields[::2], fields[1::2] = ks, measured._values[start : start + len(ks)].tolist()
            fh.write(b"%d,%d\n" * len(ks) % tuple(fields))
    return EXIT_OK


def _parse_measurement_csv(text: str) -> tuple[dict, list[tuple[int, int]]]:
    """The line loop: header fields and (index, value) pairs, one line at a time.

    Reads every layout the CSV may take and names the first bad line.
    Header fields come only from `# hadrow` lines before the first data
    line, each key once.  An index may be any integer here; the
    measurement set checks its range.
    """
    meta: dict = {}
    entries: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            words = line[1:].split()
            if words[:1] == ["hadrow"]:
                if entries:
                    raise InputDataError(f"measurements line {lineno}: header line after data")
                for token in words[1:]:
                    key, sep, value = token.partition("=")
                    if not sep:
                        continue
                    if key in meta:
                        raise InputDataError(f"measurements line {lineno}: header repeats {key}")
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
    return meta, entries


def _plain_rows(data: bytes, start: int) -> np.ndarray | None:
    """data[start:] as a (count, 2) int64 array when it is plain `index,value` lines.

    Plain lines hold only digits, '-' and ',' before their '\\n', so
    neither whitespace, comments, nor the other breaks `str.splitlines`
    honours can occur, and `np.loadtxt` accepts exactly what `int` does
    on each field, rejecting anything beyond int64; two columns means one
    ',' per line.  None means the line loop must read the file.
    """
    # Every byte outside the plain set must lie before start, and some
    # line must follow it (loadtxt warns on empty input).
    if start == len(data) or len(data.translate(None, _PLAIN_BYTES)) != len(
        data[:start].translate(None, _PLAIN_BYTES)
    ):
        return None
    stream = io.BytesIO(data)  # shares data's buffer
    stream.seek(start)
    try:
        with warnings.catch_warnings():
            # NumPy 1.23 deprecated parsing an integer through float.  A
            # release that still does it would wrap a field past int64, but
            # warns first, and the warning sends the file to the line loop.
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(stream, dtype=np.int64, delimiter=",", comments=None, ndmin=2)
    except (ValueError, DeprecationWarning):
        return None
    return rows if rows.shape[1] == 2 else None


def _read_measurements(data: bytes) -> tuple[dict, np.ndarray | list[int], np.ndarray]:
    """Header fields, indices and int64 values of a measurement CSV's bytes.

    The usual file, comment or blank lines followed by plain data lines,
    is read in one vectorized pass: the line loop reads only the leading
    lines, and `np.loadtxt` the rest.  Any other file, and any file that
    pass fails on, goes through the line loop whole, which gives the same
    result or the same line-numbered error.
    """
    if not data.isascii():
        raise InputDataError("measurements file is not ASCII text")
    start = 0  # past the leading comment and blank lines
    while (end := data.find(b"\n", start) + 1) and data[start:end].strip()[:1] in (b"", b"#"):
        start = end
    # A leading line can still hide a data line behind a break such as
    # \x0b, which the line loop splits on; then it reads the whole file.
    meta, entries = _parse_measurement_csv(data[:start].decode("ascii"))
    rows = None if entries else _plain_rows(data, start)
    if rows is not None:
        return meta, rows[:, 0], rows[:, 1]
    meta, entries = _parse_measurement_csv(data.decode("ascii"))
    if not entries:
        raise InputDataError("measurements file holds no data lines")
    return meta, [k for k, _ in entries], np.array([y for _, y in entries], dtype=np.int64)


def _setting(key: str, flag, meta: dict):
    """One reconstruct setting: its flag, else its header value, parsed, else None."""
    if flag is not None or key not in meta:
        return flag
    try:
        return (_scheme if key == "scheme" else int)(meta[key])
    except ValueError:
        raise InputDataError(f"bad {key}={meta[key]!r} in measurements header") from None


def cmd_reconstruct(args) -> int:
    # The file's bytes are freed once parsed, before the transform's buffers exist.
    meta, indices, values = _read_measurements(Path(args.measurements).read_bytes())
    n, scheme, width, height = (_setting(key, getattr(args, key), meta) for key in _HEADER_FIELDS)
    if n is None:
        raise UsageError("order exponent unknown: no CSV header and no --n")
    _check_order(n, _order_cap())
    if width is None and height is None:
        if n % 2:
            raise UsageError("scene shape unknown: pass --width or --height (no square for odd n)")
        width = height = 1 << (n // 2)
    # A lone side decides the other; a side below 1 is left for the set to refuse.
    width = (1 << n) // max(height, 1) if width is None else width
    height = (1 << n) // max(width, 1) if height is None else height
    measured = MeasurementSet._from_arrays(indices, values, scheme or "natural", n, width, height)
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
    # Each ~1 MiB block of the raster is encoded only as the sink takes it.
    pieces = _pgm_pieces(estimate.astype(np.int64, copy=False))
    with _output(args.out) as fh:
        fh.writelines(pieces)
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
    # A caller's tracemalloc session is left running, but its peak is reset
    # and lost to the caller.  Otherwise tracing runs only around each peak.
    own_tracing = not tracemalloc.is_tracing()
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
        if own_tracing:
            tracemalloc.start()
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        generate_row(indices[0], n)
        _, peak = tracemalloc.get_traced_memory()
        if own_tracing:
            tracemalloc.stop()
        lines.append(
            f"{n},{statistics.median(times):.9f},{mults},{predicted_cost(n)},{peak - baseline}"
        )
    with _output(args.out) as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hadrow",
        description="Generate single Hadamard matrix rows on demand, verify them, "
        "and simulate single-pixel imaging.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = (
        "output path (default stdout); an existing file is overwritten in place and cut "
        "to the new length, keeping its inode, links and mode"
    )

    p = sub.add_parser("row", help="generate one row")
    p.add_argument("--index", type=int, required=True, help="ordered row index")
    p.add_argument("--n", type=int, required=True, help="order exponent; rows have 2^n entries")
    p.add_argument("--ordering", choices=_SCHEME_NAMES, default="natural")
    p.add_argument("--format", choices=_ROW_FORMATS, default="csv")
    p.add_argument("--out", default=None, help=out)
    verbose = "print the row's predicted multiplication count, 2^(n+1) - 2, to stderr"
    p.add_argument("--verbose", action="store_true", help=verbose)
    p.set_defaults(func=cmd_row)

    p = sub.add_parser("batch", help="write a HADP pattern file for many rows")
    p.add_argument("--indices", required=True, help="comma list and/or half-open a..b ranges")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ordering", choices=_SCHEME_NAMES, default="natural")
    p.add_argument("--out", default=None, help=out)
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
        "else one streamed row each; the CSV is written from the value array",
    )
    p.add_argument("--image", required=True, help="P2/P5 graymap with power-of-two sides")
    p.add_argument("--indices", default=None, help="ordered indices (default: all)")
    p.add_argument("--ordering", choices=_SCHEME_NAMES, default="natural")
    p.add_argument("--out", default=None, help="CSV " + out)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "reconstruct",
        help="invert a measurement CSV back to a PGM: w*2^w additions over the w natural "
        "index bits the measurements use, then one 2^n write into one estimate buffer, "
        "held whole; the PGM is encoded and written one ~1 MiB block of rows at a time",
    )
    p.add_argument(
        "--measurements",
        required=True,
        help="CSV of k,y_k lines; comment lines then plain k,y_k lines parse in one "
        "vectorized pass, anything else line by line",
    )
    p.add_argument("--out", default=None, help="PGM " + out)
    p.add_argument("--n", type=int, default=None, help="order exponent (overrides CSV header)")
    p.add_argument("--ordering", dest="scheme", choices=_SCHEME_NAMES, default=None)
    derived = (
        "this flag, else the CSV header, else 2^n / {}; with neither side known, "
        "a square at even n"
    )
    p.add_argument("--width", type=int, default=None, help=derived.format("height"))
    p.add_argument("--height", type=int, default=None, help=derived.format("width"))
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("bench", help="time row generation and report counts and memory; resets "
                       "the peak of a caller's tracemalloc session, which it leaves tracing")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--repeats", type=int, default=3, help="timing repeats per order (median)")
    p.add_argument("--out", default=None, help="CSV " + out)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    """Run one hadrow command; the parser is built on the first call and reused."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, _IO_ERRORS) else EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
