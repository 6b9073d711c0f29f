#!/bin/sh
# Seed-0 outputs of a framegate checkout, one sha256 line per file.
#
#   tools/seed0_outputs.sh SRC OUT
#
# SRC is a checkout's root (the directory that holds src/framegate); OUT is
# a new or empty directory that receives the datasets and runs. The
# sequence: gen-data (seed 0, 3,000 pairs) at side 16 and at side 32; a
# 4-epoch train with checkpoint_every = 2 on each (16x16 with the defaults,
# 32x32 with batch 256 and 2 heads); eval and traverse (pair 5, component 3)
# on both runs. The 34 sha256 lines are printed sorted by path relative to
# OUT, so the lists of two checkouts diff line for line. An SRC without
# src/framegate/__init__.py is refused: python3 would run an installed
# framegate in its place.
set -eu
if [ $# -ne 2 ]; then
    echo "usage: $0 SRC OUT" >&2
    exit 2
fi
if [ ! -f "$1/src/framegate/__init__.py" ]; then
    echo "$0: SRC $1 holds no src/framegate/__init__.py" >&2
    exit 2
fi
if [ -d "$2" ] && [ -n "$(ls -A "$2")" ]; then
    echo "$0: OUT $2 is not empty" >&2
    exit 2
fi
src=$(cd "$1" && pwd)/src
mkdir -p "$2"
out=$(cd "$2" && pwd)
fg() { PYTHONPATH="$src" python3 -m framegate "$@" > /dev/null; }

printf 'epochs = 4\ncheckpoint_every = 2\n' > "$out/small.cfg"
printf 'epochs = 4\ncheckpoint_every = 2\nbatch_size = 256\nnum_heads = 2\n' > "$out/wide.cfg"
for run in small:16 wide:32; do
    name=${run%:*}
    side=${run#*:}
    fg gen-data --out "$out/data$side" --seed 0 --count 3000 --side "$side"
    fg train --config "$out/$name.cfg" --data "$out/data$side" --out "$out/run$side"
    fg eval --checkpoint "$out/run$side/checkpoint_final.txt" --data "$out/data$side"
    fg traverse --checkpoint "$out/run$side/checkpoint_final.txt" --data "$out/data$side" \
        --pair-index 5 --component 3
done
cd "$out"
find data16 data32 run16 run32 -type f | LC_ALL=C sort | xargs sha256sum
