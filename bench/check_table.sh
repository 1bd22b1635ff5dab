#!/bin/sh
# Usage: bench/check_table.sh <bench> <expected-file> [heading]
# Every table <bench> prints must equal, in order, the tables of
# <expected-file>, or with <heading>, its tables after the line that
# starts with <heading>. Pins paper tables to committed answers, so a
# bench cannot drift from them unnoticed.
#
# Table lines start with '+' or '|'; a blank line separates tables.
tables='
    !on && (heading == "" || index($0, heading) == 1) { on = 1 }
    on && /^[+|]/ { if (!inside && count++) print ""; inside = 1; print; next }
    { inside = 0 }'
actual=$("$1" | awk -v heading="" "$tables")
expected=$(awk -v heading="$3" "$tables" "$2")
if [ -z "$expected" ] || [ "$actual" != "$expected" ]; then
    printf '%s prints:\n%s\ndiffers from %s:\n%s\n' \
        "$1" "$actual" "$2" "$expected" >&2
    exit 1
fi
