#!/usr/bin/env bash
# Checks of the installed `hadrow` command, run by CI at every version floor:
# the invariant suites, the round trips of roundtrip.sh (whose scenes later
# groups read), then one group per subcommand path, each against the
# direct-row oracle or the library.  Each group prints a header and what it
# matched; the first failing command exits nonzero.
#
#   .github/installed.sh DIR    (scratch files go to DIR)
set -euo pipefail
dir=$1
echo "== verify"
hadrow verify --n-max 10
echo "== round trips"
bash "$(dirname "$0")/roundtrip.sh" "$dir"
echo "== reconstruct streams its n = 22 raster"
# A 2048x2048 scene from 4096 sequency lines, a few nonzero: the PGM is written
# one ~1 MiB block at a time.  Tier-1's TestReconstructRaster bounds the peak
# of this same run in process; here the installed command's bytes are checked.
python3 -c 'import sys
from pathlib import Path
n, scale = 22, 1 << 22
values = {0: 128 * scale, 1: 9 * scale, 6: -15 * scale, 100: 4 * scale, 2047: -7 * scale}
lines = [f"# hadrow n={n} scheme=sequency width=2048 height=2048"]
lines += [f"{k},{values.get(k, 0)}" for k in range(4096)]
Path(sys.argv[1], "n22.csv").write_text("\n".join(lines) + "\n")' "$dir"
hadrow reconstruct --measurements "$dir/n22.csv" --out "$dir/n22.pgm"
python3 -c 'import sys
from pathlib import Path
import numpy as np
from hadrow import MAX_PIXEL, MeasurementSet, reconstruct, write_pgm
dir = Path(sys.argv[1])
values = dict(map(int, line.split(",")) for line in (dir / "n22.csv").read_text().splitlines()[1:])
measured = MeasurementSet(values.items(), "sequency", 22, 2048, 2048)
expected = write_pgm(np.clip(np.rint(reconstruct(measured)), 0, MAX_PIXEL).astype(np.int64))
assert (dir / "n22.pgm").read_bytes() == expected
print("n = 22 PGM matches the library path")' "$dir"
echo "== cli.main called 20 times in one process (one parser, nothing carried between calls)"
hadrow --help > "$dir/help.txt"
head -n 1 "$dir/help.txt" | grep -q '^usage: hadrow '
python3 -c 'import sys
from pathlib import Path
from hadrow.cli import main
dir = Path(sys.argv[1])
scene = (dir / "scene.pgm").read_bytes()
csv, out = str(dir / "repeat.csv"), dir / "repeat.pgm"
for i in range(20):
    if i == 10:
        # --width 3 against the header height 16 is refused (exit 2); the next call must not keep it.
        assert main(["reconstruct", "--measurements", csv, "--width", "3", "--out", str(out)]) == 2
    out.unlink(missing_ok=True)
    assert main(["simulate", "--image", str(dir / "scene.pgm"), "--ordering", "sequency", "--out", csv]) == 0
    assert main(["reconstruct", "--measurements", csv, "--out", str(out)]) == 0
    assert out.read_bytes() == scene, i
print("20 in-process round trips match the scene")' "$dir"
echo "== reconstruct of a malformed CSV (the line loop names the line, exit 3)"
printf '# hadrow n=2 width=2 height=2\n0,10\n3,4 # note\n' > "$dir/bad.csv"
code=0
hadrow reconstruct --measurements "$dir/bad.csv" --out "$dir/bad.pgm" 2> "$dir/bad.err" || code=$?
test "$code" -eq 3
grep -qx 'error: measurements line 3: non-integer field' "$dir/bad.err"
test ! -e "$dir/bad.pgm"
echo "== batch under every ordering (each row against the direct-row oracle)"
for ordering in natural sequency dyadic; do
  hadrow batch --indices 0..64,100,4095 --n 12 --ordering "$ordering" --out "$dir/$ordering.hadp"
  python3 -c 'import sys
from hadrow import direct_row, read_patterns, to_natural
path, ordering = sys.argv[1:]
with open(path, "rb") as fh:
    _, rows = read_patterns(fh.read())
assert [k for k, _ in rows] == [*range(64), 100, 4095], ordering
for k, row in rows:
    assert row == direct_row(to_natural(k, 12, ordering), 12), (ordering, k)
print(ordering, len(rows), "rows match")' "$dir/$ordering.hadp" "$ordering"
done
echo "== row and bench (row 6 against the direct-row oracle, bench's CSV)"
hadrow row --index 6 --n 4 > "$dir/row.csv"
python3 -c 'import sys
from hadrow import direct_row
with open(sys.argv[1], "rb") as fh:
    got = fh.read()
expected = ",".join(map(str, direct_row(6, 4).to_numpy().tolist())) + "\n"
assert got == expected.encode("ascii"), got
print("row 6 of order 16 matches direct_row")' "$dir/row.csv"
hadrow bench --n-min 4 --n-max 6 --repeats 1 > "$dir/bench.csv"
head -n 1 "$dir/bench.csv" | grep -qx 'n,seconds,multiplications,predicted,peak_bytes'
test "$(wc -l < "$dir/bench.csv")" -eq 4
# Every order's counted multiplications equal the predicted cost.
awk -F, 'NR > 1 && $3 != $4 { exit 1 }' "$dir/bench.csv"
echo "== row text under every ordering against the direct-row oracle"
# Text is rendered per 2^15-entry stripe: csv at n = 15 is one stripe, at n = 17
# four, and pbm at n = 18 cuts stripes of whole 512-pixel lines.
for case in pbm:2 pbm:4 pbm:16 pbm:18 csv:1 csv:3 csv:15 csv:16 csv:17; do
  format=${case%:*} n=${case#*:}
  index=$(( (2 << n) / 3 ))
  for ordering in natural sequency dyadic; do
    hadrow row --index "$index" --n "$n" --ordering "$ordering" --format "$format" --out "$dir/row.txt"
    python3 -c 'import sys
from hadrow import direct_row, to_natural
path, fmt, ordering, index, n = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]), int(sys.argv[5])
signs = direct_row(to_natural(index, n, ordering), n).to_numpy().tolist()
if fmt == "csv":
    expected = ",".join(map(str, signs)) + "\n"
else:
    side = 1 << (n // 2)
    lines = ("".join("1" if v == -1 else "0" for v in signs[r * side : (r + 1) * side]) for r in range(side))
    expected = f"P1\n{side} {side}\n" + "".join(line + "\n" for line in lines)
with open(path, "rb") as fh:
    got = fh.read()
assert got == expected.encode("ascii"), (fmt, ordering, index, n)
print(fmt, ordering, f"row {index} of order 2^{n} matches direct_row")' "$dir/row.txt" "$format" "$ordering" "$index" "$n"
  done
done
echo "== packed rows under every ordering, row's multiplication count, bench's peak at n = 20..22"
# n = 1 and 2 are padded rows and n = 3 is the first byte alone; n = 15..17 cross
# the kernel's switch from doubling bytes to doubling lists at 2^15 entries.
for n in 1 2 3 15 16 17 22; do
  index=$(( n == 22 ? 3000017 : n <= 3 ? (1 << n) - 1 : (1 << n) - 3 ))
  for ordering in natural sequency dyadic; do
    hadrow row --index "$index" --n "$n" --ordering "$ordering" --format packed --out "$dir/row.bin"
    python3 -c 'import sys
from hadrow import direct_row, to_natural
path, ordering, index, n = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
with open(path, "rb") as fh:
    got = fh.read()
assert got == direct_row(to_natural(index, n, ordering), n).packed, (ordering, index, n)
print(ordering, f"row {index} of order 2^{n} matches direct_row")' "$dir/row.bin" "$ordering" "$index" "$n"
  done
done
# --verbose prints the counter's closed-form charge, 2^23 - 2 at n = 22.
hadrow row --index 3000017 --n 22 --ordering sequency --format packed --verbose \
  --out "$dir/row.bin" 2> "$dir/row.err"
grep -qx 'multiplications: 8388606' "$dir/row.err"
hadrow bench --n-min 20 --n-max 22 --repeats 1 > "$dir/bench22.csv"
python3 -c 'import csv, sys
with open(sys.argv[1], newline="") as fh:
    rows = list(csv.DictReader(fh))
assert [int(r["n"]) for r in rows] == [20, 21, 22], rows
for r in rows:
    n, peak = int(r["n"]), int(r["peak_bytes"])
    assert peak - 2 * 4096 <= 1.05 * (1 << n) / 8, (n, peak)
    print(n, peak, "bytes peak,", round(8 * peak / (1 << n), 3), "bits per entry")' "$dir/bench22.csv"
echo "== batch read back"
# 1025 rows at n = 14, read back from bytes, bytearray and memoryview alike: each row
# against the direct-row oracle, each to_numpy against unpackbits of its bytes.  These
# sequency rows are constant over every 16 entries, so natural rows also run, whose two
# bytes of a 16-bit word differ: they would show the two halves of a word swapped.
for ordering in sequency natural; do
  hadrow batch --indices 0..1024,4000 --n 14 --ordering "$ordering" --out "$dir/read.hadp"
  python3 -c 'import sys
import numpy as np
from hadrow import direct_row, read_patterns, to_natural
path, ordering = sys.argv[1:]
with open(path, "rb") as fh:
    data = fh.read()
for kind in (bytes, bytearray, memoryview):
    _, rows = read_patterns(kind(data))
    assert [k for k, _ in rows] == [*range(1024), 4000], kind
    for k, row in rows:
        assert row == direct_row(to_natural(k, 14, ordering), 14), (kind, k)
        bits = np.unpackbits(np.frombuffer(row.packed, dtype=np.uint8)).astype(np.int8)
        assert np.array_equal(row.to_numpy(), 1 - 2 * bits), (kind, k)
    print(ordering, kind.__name__, len(rows), "rows match direct_row and unpackbits")' "$dir/read.hadp" "$ordering"
done
# Overlapping, repeated and empty --indices entries write the file of their union.
hadrow batch --indices 5..9,0..6,3,7..7,12 --n 14 --out "$dir/mixed.hadp"
hadrow batch --indices 0..9,12 --n 14 --out "$dir/union.hadp"
cmp "$dir/mixed.hadp" "$dir/union.hadp"
# Read-back rows are slotted: no __dict__, and a pickle round trip gives an equal row.
python3 -c 'import pickle, sys
from hadrow import read_patterns
with open(sys.argv[1], "rb") as fh:
    _, rows = read_patterns(fh.read())
assert [k for k, _ in rows] == [*range(9), 12]
for k, row in rows:
    again = pickle.loads(pickle.dumps(row))
    assert again == row and hash(again) == hash(row), k
    assert not hasattr(row, "__dict__") and not hasattr(again, "__dict__"), k
print(len(rows), "read-back rows survive pickle and carry no __dict__")' "$dir/mixed.hadp"
echo "== --out overwritten in place"
# A 3-row batch over a 1025-row file: the same inode, cut to the stdout bytes.
out="$dir/inplace.hadp"
hadrow batch --indices 0..1025 --n 14 --out "$out"
inode=$(stat -c %i "$out")
hadrow batch --indices 0..3 --n 14 --out "$out"
hadrow batch --indices 0..3 --n 14 > "$dir/inplace-stdout.hadp"
cmp "$out" "$dir/inplace-stdout.hadp"
test "$(stat -c %i "$out")" = "$inode"
# Two reconstructs into one PGM that first held the 2 MiB batch: each equals the scene.
hadrow batch --indices 0..1025 --n 14 --out "$dir/inplace.pgm"
hadrow simulate --image "$dir/scene.pgm" --ordering sequency --out "$dir/inplace.csv"
for run in 1 2; do
  hadrow reconstruct --measurements "$dir/inplace.csv" --out "$dir/inplace.pgm"
  cmp "$dir/inplace.pgm" "$dir/scene.pgm"
done
# A device is written, never cut.
hadrow batch --indices 0..1025 --n 14 --out /dev/null
