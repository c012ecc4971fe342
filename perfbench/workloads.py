"""The four benchmark workloads.

Each workload makes its inputs from a seeded `random.Random`, so the
same seed gives the same inputs.  `prepare` builds one operation's input
(untimed), `run` is the timed operation, `control` does the same job
with plain NumPy (timed separately; see control.py), `check` compares
the output with an independent reference (untimed), `agrees` tells
whether run and control produced the same output, and `corrupt` damages
an output so the self-test can see a check fail.  `run` looks every hadrow
function up as a module attribute at call time, so the traced run's
shims see the calls.
"""

from __future__ import annotations

from pathlib import Path
from random import Random

import numpy as np

import control
from hadrow import cli, core, formats, ordering

SEQUENCY = ordering.OrderingScheme.SEQUENCY


def _flip_last_byte(data: bytes) -> bytes:
    return data[:-1] + bytes([data[-1] ^ 1])


def _corrupt_coded(out):
    code, data, *rest = out
    return (code, _flip_last_byte(data), *rest)


def _same_image(out, ctrl: bytes) -> bool:
    return out[1] == ctrl


def _pgm_header(width: int, height: int) -> bytes:
    return f"P5\n{width} {height}\n255\n".encode("ascii")


class RowStream:
    """One 2048x2048 (n=22) sequency pattern per op, at a random index."""

    name = "row-stream"
    n = 22
    rows_per_op = 1
    images_per_op = 1  # the row is one 2048x2048 pattern image

    def __init__(self, rng: Random, workdir: Path) -> None:
        self.rng = rng

    def prepare(self) -> int:
        return self.rng.randrange(1 << self.n)

    def run(self, k: int) -> bytes:
        return ordering.generate_ordered_row(k, self.n, "sequency").packed

    def control(self, k: int) -> bytes:
        return control.row_stream(k, self.n)

    def check(self, k: int, out: bytes) -> bool:
        natural = ordering.to_natural(k, self.n, SEQUENCY)
        return out == core.direct_row(natural, self.n).packed

    @staticmethod
    def agrees(out: bytes, ctrl: bytes) -> bool:
        return out == ctrl

    corrupt = staticmethod(_flip_last_byte)


def _index_spec(rng: Random, rows: int, size: int) -> tuple[str, list[int]]:
    """`--indices` text selecting exactly `rows` of `size` indices.

    The selection is a seeded mix of single indices and a..b ranges of
    varied length, as a projector's pattern list would be.
    """
    segments = rng.randrange(rows // 32, rows // 8)
    cuts = sorted(rng.sample(range(1, rows), segments - 1))
    lengths = [b - a for a, b in zip([0] + cuts, cuts + [rows])]
    spare = sorted(rng.choices(range(size - rows + 1), k=segments))
    gaps = [b - a for a, b in zip([0] + spare, spare)]
    parts, indices = [], []
    pos = 0
    for gap, length in zip(gaps, lengths):
        pos += gap
        parts.append(str(pos) if length == 1 else f"{pos}..{pos + length}")
        indices.extend(range(pos, pos + length))
        pos += length
    return ",".join(parts), indices


class BatchHadp:
    """`hadrow batch` of 1024 n=14 sequency rows with --jobs 2, read back and unpacked.

    1024 rows rather than 4096 per op, so that a run holds a dozen
    op/control pairs for the median of rel_speed.
    """

    name = "batch-hadp"
    n = 14
    rows_per_op = 1024
    images_per_op = 1024  # each row is one 128x128 pattern image

    def __init__(self, rng: Random, workdir: Path) -> None:
        self.rng = rng
        self.path = workdir / "batch.hadp"
        self.control_path = workdir / "control.hadp"

    def prepare(self) -> tuple[str, list[int]]:
        return _index_spec(self.rng, self.rows_per_op, 1 << self.n)

    def run(self, inp):
        spec, _ = inp
        argv = ["batch", "--indices", spec, "--n", str(self.n), "--ordering", "sequency",
                "--jobs", "2", "--out", str(self.path)]
        code = cli.main(argv)
        if code != 0:
            return code, b"", None, [], None
        data = self.path.read_bytes()
        header, rows = formats.read_patterns(data)
        frame = None
        for _, row in rows:
            frame = row.to_numpy()  # what a projector driver uploads per pattern
        return code, data, header, rows, frame

    def control(self, inp):
        return control.batch(inp[0], self.n, self.control_path)

    @staticmethod
    def agrees(out, ctrl) -> bool:
        return out[1] == ctrl[0] and np.array_equal(out[4], ctrl[1])

    def check(self, inp, out) -> bool:
        _, indices = inp
        code, data, header, rows, frame = out
        if code != 0:
            return False
        refs = [core.direct_row(ordering.to_natural(k, self.n, SEQUENCY), self.n).packed
                for k in indices]
        # HADP v1: magic, version, n, scheme code (1 = sequency), count, reserved.
        expected = control.HADP_HEADER.pack(b"HADP", 1, self.n, 1, len(indices), 0)
        expected += b"".join(k.to_bytes(8, "little") for k in indices) + b"".join(refs)
        last = 1 - 2 * np.unpackbits(np.frombuffer(refs[-1], dtype=np.uint8)).astype(np.int8)
        return (
            data == expected
            and (header.n, header.scheme, header.count) == (self.n, SEQUENCY, len(indices))
            and [k for k, _ in rows] == indices
            and b"".join(row.packed for _, row in rows) == b"".join(refs)
            and np.array_equal(frame, last)
        )

    corrupt = staticmethod(_corrupt_coded)


class SpiRoundtrip:
    """`hadrow simulate` of a random 32x32 scene at full sequency sampling, then `reconstruct`.

    32x32 rather than 64x64, so that a run holds dozens of op/control
    pairs for the median of rel_speed.
    """

    name = "spi-roundtrip"
    side = 32
    rows_per_op = 32 * 32  # patterns measured per image
    images_per_op = 1

    def __init__(self, rng: Random, workdir: Path) -> None:
        self.rng = rng
        self.scene = workdir / "scene.pgm"
        self.csv = workdir / "measured.csv"
        self.out = workdir / "estimate.pgm"
        self.control_csv = workdir / "control.csv"
        self.control_out = workdir / "control.pgm"

    def prepare(self) -> bytes:
        pgm = _pgm_header(self.side, self.side) + self.rng.randbytes(self.side * self.side)
        self.scene.write_bytes(pgm)
        return pgm

    def run(self, pgm: bytes):
        code = cli.main(["simulate", "--image", str(self.scene), "--ordering", "sequency",
                         "--out", str(self.csv)])
        if code == 0:
            code = cli.main(["reconstruct", "--measurements", str(self.csv),
                             "--out", str(self.out)])
        return code, self.out.read_bytes() if code == 0 else b""

    def control(self, pgm: bytes) -> bytes:
        return control.roundtrip(self.scene, self.control_csv, self.control_out)

    def check(self, pgm: bytes, out) -> bool:
        code, data = out
        return code == 0 and data == pgm

    agrees = staticmethod(_same_image)

    corrupt = staticmethod(_corrupt_coded)


class SpiReconstruct:
    """`hadrow reconstruct` of a 2048x2048 scene from 4096 sequency measurements.

    The scene is 128 plus an integer-weighted sum of a few low-sequency
    rows, so the 4096 measured coefficients hold all of its spectrum and
    the zero-filled estimate equals it byte for byte.
    """

    name = "spi-reconstruct"
    n = 22
    side = 2048
    measured = 4096
    rows_per_op = 4096  # measured patterns inverted per image
    images_per_op = 1

    def __init__(self, rng: Random, workdir: Path) -> None:
        self.rng = rng
        self.csv = workdir / "measured.csv"
        self.out = workdir / "estimate.pgm"
        self.control_out = workdir / "control.pgm"
        self.basis_k = sorted(rng.sample(range(1, self.measured), 8))
        self.basis = [
            core.direct_row(ordering.to_natural(k, self.n, SEQUENCY), self.n).to_numpy()
            for k in self.basis_k
        ]

    def prepare(self) -> bytes:
        # |weights| sum to at most 8 * 15 = 120, so pixels stay in [8, 248].
        weights = [self.rng.randint(-15, 15) for _ in self.basis]
        pixels = np.full(1 << self.n, 128, dtype=np.int16)
        for weight, row in zip(weights, self.basis):
            pixels += weight * row.astype(np.int16)
        scale = 1 << self.n
        values = dict(zip(self.basis_k, (scale * w for w in weights)))
        values[0] = scale * 128
        lines = [f"# hadrow n={self.n} scheme=sequency width={self.side} height={self.side}"]
        lines += [f"{k},{values.get(k, 0)}" for k in range(self.measured)]
        self.csv.write_text("\n".join(lines) + "\n", encoding="ascii")
        return _pgm_header(self.side, self.side) + pixels.astype(np.uint8).tobytes()

    def run(self, expected: bytes):
        code = cli.main(["reconstruct", "--measurements", str(self.csv), "--out", str(self.out)])
        return code, self.out.read_bytes() if code == 0 else b""

    def control(self, expected: bytes) -> bytes:
        return control.reconstruct(self.csv, self.n, self.side, self.control_out)

    def check(self, expected: bytes, out) -> bool:
        code, data = out
        return code == 0 and data == expected

    agrees = staticmethod(_same_image)

    corrupt = staticmethod(_corrupt_coded)


WORKLOADS = {w.name: w for w in (RowStream, BatchHadp, SpiRoundtrip, SpiReconstruct)}
