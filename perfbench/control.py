"""Plain-NumPy controls: each workload's job done without hadrow.

The host this benchmark was built on changes speed by 20-40% in phases
that last from seconds to minutes, for every program on it.  A control
does the same job as a workload's operation (same sizes, same files,
same output bytes) with straightforward NumPy code that imports nothing
from hadrow.  The benchmark runs each operation and then its control,
and reports hadrow's speed relative to the control: both see the same
phase, so the ratio stays put while raw rates move (see NOTES.md).

This module must not change once baselines are recorded: a faster
control would read as a slower hadrow.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

_PLUS = np.array([1, 1], dtype=np.int8)
_MINUS = np.array([1, -1], dtype=np.int8)
# HADP v1: magic, version, n, scheme code (1 = sequency), count, reserved.
HADP_HEADER = struct.Struct("<4sBBBQB")


def natural(k: int, n: int) -> int:
    """Natural index of sequency-ordered row k: bit-reversed Gray code."""
    return int(format(k ^ (k >> 1), f"0{n}b")[::-1], 2)


def signs(i: int, n: int) -> np.ndarray:
    """Natural row i as int8 +-1, a Kronecker product of base rows."""
    acc = np.ones(1, dtype=np.int8)
    for bit in range(n - 1, -1, -1):
        acc = np.kron(acc, _MINUS if (i >> bit) & 1 else _PLUS)
    return acc


def packed(row: np.ndarray) -> bytes:
    """hadrow's packing: one bit per entry, 1 for -1, most significant first."""
    return np.packbits(row == -1).tobytes()


def fwht(v: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of an int64 vector, in place."""
    half = 1
    while half < v.size:
        pairs = v.reshape(-1, 2, half)
        low = pairs[:, 0, :].copy()
        pairs[:, 0, :] += pairs[:, 1, :]
        pairs[:, 1, :] = low - pairs[:, 1, :]
        half *= 2
    return v


def pgm(pixels: np.ndarray, side: int) -> bytes:
    return f"P5\n{side} {side}\n255\n".encode("ascii") + pixels.astype(np.uint8).tobytes()


def row_stream(k: int, n: int) -> bytes:
    return packed(signs(natural(k, n), n))


def batch(spec: str, n: int, path: Path) -> tuple[bytes, np.ndarray]:
    """Write the HADP file of the rows `spec` selects, read it back, unpack every row."""
    indices = []
    for part in spec.split(","):
        lo, sep, hi = part.partition("..")
        indices.extend(range(int(lo), int(hi)) if sep else [int(lo)])
    with ThreadPoolExecutor(max_workers=2) as pool:
        rows = list(pool.map(lambda k: packed(signs(natural(k, n), n)), indices))
    data = HADP_HEADER.pack(b"HADP", 1, n, 1, len(indices), 0)
    data += b"".join(k.to_bytes(8, "little") for k in indices) + b"".join(rows)
    path.write_bytes(data)
    data = path.read_bytes()
    count = HADP_HEADER.unpack_from(data)[4]
    row_bytes = (1 << n) // 8
    start = HADP_HEADER.size + 8 * count
    frame = None
    for t in range(count):
        chunk = data[start + t * row_bytes : start + (t + 1) * row_bytes]
        frame = 1 - 2 * np.unpackbits(np.frombuffer(chunk, dtype=np.uint8)).astype(np.int8)
    return data, frame


def _header_end(data: bytes) -> int:
    """Offset of the raster in a P5 file with a three-line header."""
    return data.index(b"\n", data.index(b"\n", data.index(b"\n") + 1) + 1) + 1


def _reconstruct(text: str, n: int, side: int, out: Path) -> bytes:
    coeffs = np.zeros(1 << n, dtype=np.int64)
    for line in text.splitlines()[1:]:
        k, _, y = line.partition(",")
        coeffs[natural(int(k), n)] = int(y)
    image = pgm(np.clip(fwht(coeffs) >> n, 0, 255), side)
    out.write_bytes(image)
    return image


def roundtrip(scene: Path, csv: Path, out: Path) -> bytes:
    """Measure a square P5 scene through every sequency row, then invert."""
    data = scene.read_bytes()
    pixels = np.frombuffer(data, dtype=np.uint8, offset=_header_end(data)).astype(np.int64)
    side = int(data.split()[1])
    n = pixels.size.bit_length() - 1
    lines = [f"# hadrow n={n} scheme=sequency width={side} height={side}"]
    for k in range(1 << n):
        lines.append(f"{k},{int(signs(natural(k, n), n).astype(np.int64) @ pixels)}")
    csv.write_text("\n".join(lines) + "\n", encoding="ascii")
    return _reconstruct(csv.read_text(encoding="ascii"), n, side, out)


def reconstruct(csv: Path, n: int, side: int, out: Path) -> bytes:
    """Invert a sequency measurement CSV into a P5 image, zero-filling the rest."""
    return _reconstruct(csv.read_text(encoding="ascii"), n, side, out)
