#!/bin/sh
# Usage: bench/check_table.sh <bench> <expected-file> [heading]
# The first table <bench> prints must equal the expected table: the
# first table of <expected-file>, or with <heading>, the first table
# after the line that starts with <heading>. Pins a paper table to
# committed answers, so a bench cannot drift from them unnoticed.
actual=$("$1" | awk '/^[+|]/ { print; seen = 1; next } seen { exit }')
expected=$(awk -v heading="$3" '
    !on && (heading == "" || index($0, heading) == 1) { on = 1 }
    on && /^[+|]/ { print; seen = 1; next }
    seen { exit }' "$2")
if [ -z "$expected" ] || [ "$actual" != "$expected" ]; then
    printf '%s prints:\n%s\ndiffers from %s:\n%s\n' \
        "$1" "$actual" "$2" "$expected" >&2
    exit 1
fi
