#!/usr/bin/env bash
# Round trips through the installed `hadrow` command: simulate each scene,
# reconstruct it from the measurement CSV, and compare the PGM bytes with
# the scene written as P5.  installed.sh runs it, and its later checks read
# the scenes it leaves in DIR.
#
#   .github/roundtrip.sh DIR    (scratch files go to DIR)
#
# Cases: 16x16 at full sequency sampling; 32x16 dyadic, an odd order
# (n = 9); 16x16 at partial sampling, 128 plus 5 times sequency row 5,
# whose whole spectrum lies in sequency 0..15, so reconstruct works over
# the measured index bits; 32x16 natural at 8 indices (sparse), 128 plus
# 5, -4, 3, -2, 2, -3 and 4 times natural rows 9, 18, ..., 63, so the 8
# measured rows hold its whole spectrum; 256x256, whose 65536 plain CSV
# lines take the vectorized parse; 16x16 read from a P2 file with a
# comment after maxval, a comment at each row end and CRLF line breaks.
# Then the 32x16 dyadic scene again from its CSV with the header line
# dropped: the flags give n and the scheme, and the lone --width 32
# decides the height.
# The sparse case is the only one with fewer than n indices, so the only
# one whose simulate streams each row from the row kernel; every other
# case is read off one transform of the scene.  Its indices end in all
# eight 3-bit patterns, and digits 3..5 are set in some and clear in
# others, so every first byte and both doubling branches of the kernel
# are checked.
# Reconstruct's workspace peaks at the window of measured index bits plus
# its one 2^n output buffer, at every sampling.
set -euo pipefail
dir=$1
while read -r name width height ordering flags; do
  python3 -c 'import random, sys
from pathlib import Path
from hadrow import direct_row, to_natural
dir, name, width, height = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
if name == "low":
    row = direct_row(to_natural(5, 8, "sequency"), 8).to_numpy().tolist()
    raster = bytes(128 + 5 * s for s in row)
elif name == "sparse":
    weights = {9: 5, 18: -4, 27: 3, 36: -2, 45: 2, 54: -3, 63: 4}
    terms = [[w * s for s in direct_row(k, 9).to_numpy().tolist()] for k, w in weights.items()]
    raster = bytes(128 + sum(column) for column in zip(*terms))
else:
    seed = {"scene": 1, "odd": 9, "big": 16, "text": 2}[name]
    raster = random.Random(seed).randbytes(width * height)
scene = b"P5\n%d %d\n255\n" % (width, height) + raster
if name == "text":
    rows = (raster[y * width : (y + 1) * width] for y in range(height))
    lines = (" ".join(map(str, row)) + " # row %d\r\n" % y for y, row in enumerate(rows))
    image = b"P2\r\n%d %d\r\n255 # maxval\r\n" % (width, height) + "".join(lines).encode()
else:
    image = scene
Path(dir, name + ".pgm").write_bytes(scene)
Path(dir, name + "-in.pgm").write_bytes(image)' "$dir" "$name" "$width" "$height"
  # $flags is unquoted on purpose: it holds zero or more separate arguments.
  hadrow simulate --image "$dir/$name-in.pgm" --ordering "$ordering" $flags --out "$dir/$name.csv"
  hadrow reconstruct --measurements "$dir/$name.csv" --out "$dir/$name-estimate.pgm"
  cmp "$dir/$name.pgm" "$dir/$name-estimate.pgm"
  echo "$name: $width x $height $ordering $flags round trip matches"
done <<'CASES'
scene 16 16 sequency
odd 32 16 dyadic
low 16 16 sequency --indices 0..16
sparse 32 16 natural --indices 0,9,18,27,36,45,54,63
big 256 256 sequency
text 16 16 sequency
CASES
tail -n +2 "$dir/odd.csv" > "$dir/odd-bare.csv"
hadrow reconstruct --measurements "$dir/odd-bare.csv" --n 9 --ordering dyadic --width 32 \
  --out "$dir/odd-bare-estimate.pgm"
cmp "$dir/odd.pgm" "$dir/odd-bare-estimate.pgm"
echo "odd without its header line: --n 9 --ordering dyadic --width 32 round trip matches"
