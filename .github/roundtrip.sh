#!/usr/bin/env bash
# Round trips through the installed `hadrow` command: simulate each scene,
# reconstruct it from the measurement CSV, and compare the PGM bytes.
#
#   .github/roundtrip.sh DIR    (scratch files go to DIR)
#
# Cases: 16x16 at full sequency sampling; 32x16 dyadic, whose odd order
# (n = 9) leaves the transform's result in its spare buffer; 16x16 at
# partial sampling, 128 plus 5 times sequency row 5, whose whole spectrum
# lies in sequency 0..15, so reconstruct works over the measured index
# bits; 256x256, whose 65536 plain CSV lines take the vectorized parse.
set -euo pipefail
dir=$1
while read -r name width height ordering flags; do
  python3 -c 'import random, sys
from hadrow import direct_row, to_natural
name, width, height = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
if name == "low":
    row = direct_row(to_natural(5, 8, "sequency"), 8).to_numpy().tolist()
    raster = bytes(128 + 5 * s for s in row)
else:
    raster = random.Random({"scene": 1, "odd": 9, "big": 16}[name]).randbytes(width * height)
sys.stdout.buffer.write(b"P5\n%d %d\n255\n" % (width, height) + raster)' "$name" "$width" "$height" > "$dir/$name.pgm"
  # $flags is unquoted on purpose: it holds zero or more separate arguments.
  hadrow simulate --image "$dir/$name.pgm" --ordering "$ordering" $flags --out "$dir/$name.csv"
  hadrow reconstruct --measurements "$dir/$name.csv" --out "$dir/$name-estimate.pgm"
  cmp "$dir/$name.pgm" "$dir/$name-estimate.pgm"
  echo "$name: $width x $height $ordering $flags round trip matches"
done <<'CASES'
scene 16 16 sequency
odd 32 16 dyadic
low 16 16 sequency --indices 0..16
big 256 256 sequency
CASES
