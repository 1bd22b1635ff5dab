#!/bin/sh
# Usage: bench/check_table6.sh <bench_table6_fpr> <expected/taint.txt>
# Table 6 must equal the `taint engines` table of the pinned
# `fits corpus --taint` answers, so the bench and the CLI cannot drift.
actual=$("$1" | awk '/^[+|]/ { print; seen = 1; next } seen { exit }')
expected=$(awk '/^taint engines/ { on = 1; next }
                on && /^[+|]/ { print; next } on { exit }' "$2")
if [ -z "$expected" ] || [ "$actual" != "$expected" ]; then
    printf 'Table 6:\n%s\ndiffers from %s:\n%s\n' \
        "$actual" "$2" "$expected" >&2
    exit 1
fi
