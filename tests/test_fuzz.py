"""Fuzz tests: each input parser raises only its documented error classes.

Arbitrary bytes and near-valid inputs (valid files with bytes changed,
inserted, deleted or cut off) go to `read_pgm`, `read_patterns` and the
measurement CSV reader.  A header that claims far more data than the
input holds must fail before any work that scales with the claim.  Text
graymaps are also checked against a reference tokenizer written here.
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


def _reference_tokens(text: bytes) -> list[bytes]:
    """Whitespace-separated tokens, one byte at a time.

    A '#' opens a comment only where a token could start, and the
    comment runs up to the next newline.
    """
    tokens, token, in_comment = [], b"", False
    for byte in text:
        char = bytes([byte])
        if in_comment:
            in_comment = char != b"\n"
        elif char.isspace():
            if token:
                tokens.append(token)
            token = b""
        elif char == b"#" and not token:
            in_comment = True
        else:
            token += char
    if token:
        tokens.append(token)
    return tokens


def _reference_read(data: bytes):
    """The pixels of a P2 file of power-of-two sides, or its PgmError message."""
    tokens = _reference_tokens(data[2:])
    header, samples = tokens[:3], tokens[3:]
    if not all(field.isdigit() for field in header):
        return "non-numeric graymap header field"
    width, height, maxval = map(int, header)
    if not 0 < maxval <= 65535:
        return f"maxval must be in [1, 65535], got {maxval}"
    samples = samples[: width * height]
    if len(samples) < width * height:
        return "truncated graymap raster"
    if not all(sample.isdigit() for sample in samples):
        return "non-numeric sample in text graymap"
    values = list(map(int, samples))
    if max(values) >= 1 << 63:
        return "text graymap sample does not fit in 64 bits"
    if max(values) > maxval:
        return "sample exceeds declared maxval"
    return values


# Digits, letters, '#' and every whitespace byte, whitespace weighted up so
# that many files reach the raster.  A raster may start right after the
# maxval token, and then a digit or letter joins that token.
_P2_PIECES = [b"0", b"7", b"25", b"99999999999999999999", b"a", b"Z", b"#"]
_P2_PIECES += [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"\r\n"] * 3


@settings(max_examples=1000, deadline=None)
@given(
    st.sampled_from([(1, 1), (2, 1), (2, 2), (4, 2)]),
    st.sampled_from([b"9", b"255", b"65535"]),
    st.lists(st.sampled_from(_P2_PIECES), min_size=16, max_size=60).map(b"".join),
)
def test_read_pgm_splits_text_rasters_like_the_reference_tokenizer(sides, maxval, raster):
    data = b"P2\n%d %d\n" % sides + maxval + raster
    try:
        got = read_pgm(data).pixels.tolist()
    except PgmError as exc:
        got = str(exc)
    assert got == _reference_read(data)


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
