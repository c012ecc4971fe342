"""Fuzz tests: each input parser raises only its documented error classes.

Arbitrary bytes and near-valid inputs (valid files with bytes changed,
inserted, deleted or cut off) go to `read_pgm`, `read_patterns` and the
measurement CSV reader.  A header that claims far more data than the
input holds must fail before any work that scales with the claim.
"""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadrow import (
    PatternFormatError,
    PgmError,
    Scene,
    generate_row,
    read_patterns,
    read_pgm,
    write_patterns,
    write_pgm,
)
from hadrow.cli import InputDataError, _read_measurements
from hadrow.formats import _HEADER, MAGIC, VERSION

_PGMS = [
    write_pgm(Scene(np.arange(16), 4, 4)),
    write_pgm(Scene(np.arange(16) * 4000, 4, 4)),  # 16-bit samples
    write_pgm(Scene(np.arange(8), 4, 2), binary=False),
    b"P2\n# note\n4 2\n# more\n255\n0 1 2 3 # row end\n4 5\t6\r\n7\n",
]
_HADPS = [
    write_patterns([(k, generate_row(k, 3)[0]) for k in (0, 3, 5)], 3, "sequency"),
    write_patterns([(1, generate_row(1, 1)[0])], 1, "natural"),
    write_patterns([(k, generate_row(k, 4)[0]) for k in range(4)], 4, "dyadic"),
]
_CSVS = [
    b"# hadrow n=2 scheme=dyadic width=2 height=2\n0,10\n1,-2\n2,-4\n3,0\n",
    b"0,1\r\n\r\n# note\n1,-9223372036854775808\n2,9223372036854775807",
    b"# hadrow n=4\n3,4 # note\n5,6\n",
]


@st.composite
def _near(draw, samples):
    """One of `samples` after up to four byte flips, insertions, deletions or cuts."""
    data = bytearray(draw(st.sampled_from(samples)))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["flip", "insert", "delete", "cut"]))
        if edit == "flip" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        elif edit == "insert":
            chunk = st.binary(min_size=1, max_size=4) | st.sampled_from([b"#", b" ", b"\n"])
            data[pos:pos] = draw(chunk)
        elif edit == "delete":
            del data[pos : pos + draw(st.integers(1, 4))]
        elif edit == "cut":
            del data[pos:]
    return bytes(data)


def _inputs(samples):
    return st.binary(max_size=64) | _near(samples)


@settings(max_examples=400, deadline=None)
@given(_inputs(_PGMS))
def test_read_pgm_raises_only_its_documented_errors(data):
    try:
        read_pgm(data)
    except PgmError:
        pass
    except ValueError as exc:  # the Scene's own dimension check
        assert type(exc) is ValueError and "powers of two" in str(exc), exc


@settings(max_examples=400, deadline=None)
@given(_inputs(_HADPS))
def test_read_patterns_raises_only_pattern_format_errors(data):
    try:
        read_patterns(data)
    except PatternFormatError:
        pass


@settings(max_examples=400, deadline=None)
@given(_inputs(_CSVS))
def test_measurement_csv_raises_only_input_data_errors(data):
    try:
        _read_measurements(data)
    except InputDataError:
        pass


@pytest.mark.parametrize(
    "reader,data",
    [
        (read_patterns, _HEADER.pack(MAGIC, VERSION, 40, 0, 1 << 40, 0) + bytes(64)),
        (read_patterns, _HEADER.pack(MAGIC, VERSION, 62, 1, 1 << 40, 0) + bytes(64)),
        (read_pgm, b"P5\n65536 65536\n255\n" + bytes(64)),
        (read_pgm, b"P5\n65536 65536\n65535\n" + bytes(64)),
        (read_pgm, b"P2\n65536 65536\n255\n0 1 2 3\n"),
        (read_pgm, b"P2\n65536 65536\n255\n# note\n0 1 2 3\n"),
    ],
    ids=["hadp-2^40-rows", "hadp-2^40-rows-n62", "p5", "p5-16bit", "p2", "p2-comment"],
)
def test_claimed_size_fails_fast(reader, data):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises((PatternFormatError, PgmError)):
            reader(data)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert elapsed < 1.0
