#!/bin/sh
# Integration test of the `fits` CLI: generate, inspect, rank, taint,
# disassemble, and score one image end to end. Invoked by ctest with
# the path to the fits binary as $1.
set -e

FITS="$1"
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
IMG="$DIR/cli_test.fwimg"

"$FITS" gen "$IMG" --vendor Tenda --seed 77 > "$DIR/gen.out"
grep -q "wrote" "$DIR/gen.out"
test -s "$IMG"
test -s "$IMG.truth"

"$FITS" info "$IMG" > "$DIR/info.out"
grep -q "network binary" "$DIR/info.out"
grep -q "libc.so" "$DIR/info.out"

"$FITS" rank "$IMG" --top 3 > "$DIR/rank.out"
grep -q "#1" "$DIR/rank.out"

# The rank-1 entry should be the ground-truth ITS for this seed.
ITS=$(grep '^its' "$IMG.truth" | awk '{print $2}')
grep -q "$ITS" "$DIR/rank.out"

"$FITS" taint "$IMG" --engine sta --its "$ITS" > "$DIR/taint.out"
grep -q "alerts" "$DIR/taint.out"

# A repeated --its address is one ITS: the same source count and the
# same alerts as naming it once (only the milliseconds may differ).
"$FITS" taint "$IMG" --engine sta --its "$ITS" --its "$ITS" \
    > "$DIR/taint_twice.out"
sed 's/ in [0-9.]* ms / in ms /' "$DIR/taint.out" > "$DIR/taint.once"
sed 's/ in [0-9.]* ms / in ms /' "$DIR/taint_twice.out" > "$DIR/taint.twice"
cmp -s "$DIR/taint.once" "$DIR/taint.twice" || {
    echo "a repeated --its address changed the taint report" >&2
    diff "$DIR/taint.once" "$DIR/taint.twice" >&2
    exit 1
}

"$FITS" disasm "$IMG" "$ITS" > "$DIR/disasm.out"
grep -q "function" "$DIR/disasm.out"
grep -q "GET(r0)" "$DIR/disasm.out"

"$FITS" score "$IMG" > "$DIR/score.out"
grep -q "top-3 hit" "$DIR/score.out"

# `fits score` analyzes the image once: its STA run reuses the ranking's
# analysis, so reaching definitions run only inside pipeline/ucse.
FITS_METRICS="$DIR/score.json" "$FITS" score "$IMG" > /dev/null
grep -q '"pipeline/ucse/kernel.reachdef"' "$DIR/score.json"
if grep -q '"kernel.reachdef"' "$DIR/score.json"; then
    echo "fits score re-analyzed the image outside the pipeline" >&2
    exit 1
fi

# A sidecar address that does not parse fails `fits score` (exit 1)
# with a message naming the line, never a silent 0.
cp "$IMG" "$DIR/bad.fwimg"
sed 's/^its .*/its zz/' "$IMG.truth" > "$DIR/bad.fwimg.truth"
rc=0
"$FITS" score "$DIR/bad.fwimg" > /dev/null 2> "$DIR/bad.err" || rc=$?
test "$rc" -eq 1 && grep -q ":2: bad address: its zz" "$DIR/bad.err" || {
    echo "expected exit 1 naming the bad sidecar address, got $rc" >&2
    exit 1
}

# Numeric arguments parse strictly: anything but a whole unsigned
# number is a usage error (exit 2), never a silent 0.
expect_usage() {
    rc=0
    "$@" > /dev/null 2> "$DIR/usage.err" || rc=$?
    if [ "$rc" -ne 2 ] || ! grep -q "usage:" "$DIR/usage.err"; then
        echo "expected a usage error (exit 2) from: $*; got $rc" >&2
        exit 1
    fi
}
expect_usage "$FITS" taint "$IMG" --its zz
expect_usage "$FITS" taint "$IMG" --its 0x10zz
expect_usage "$FITS" rank "$IMG" --top abc
expect_usage "$FITS" rank "$IMG" --top -1
expect_usage "$FITS" corpus --jobs four
expect_usage "$FITS" gen "$DIR/badseed.fwimg" --seed 7x
test ! -e "$DIR/badseed.fwimg"
expect_usage "$FITS" disasm "$IMG" 0xzz
expect_usage "$FITS" disasm "$IMG" 12abc
expect_usage "$FITS" disasm "$DIR/missing.fwimg" zz

# An --its address must be a function entry of the network binary.
rc=0
"$FITS" taint "$IMG" --its 0xdeadbeef > /dev/null \
    2> "$DIR/noits.err" || rc=$?
test "$rc" -eq 1 || {
    echo "expected exit 1 for an --its address with no function, got $rc" >&2
    exit 1
}
grep -q "no function at 0xdeadbeef" "$DIR/noits.err"

# Parallel corpus evaluation honors FITS_JOBS and reports totals.
FITS_JOBS=2 "$FITS" corpus > "$DIR/corpus.out"
grep -q "2 worker threads" "$DIR/corpus.out"
grep -q "Overall" "$DIR/corpus.out"
grep -q "wall clock" "$DIR/corpus.out"
grep -q "failed samples:" "$DIR/corpus.out"
# With no cache directory the pipeline does no cache work at all.
grep -qx "cache: 0 hits / 0 misses, tier=off" "$DIR/corpus.out"

# The answers are pinned, not only compared across configurations: the
# report body (after the two header lines, up to `wall clock:`) equals
# the committed expected text for the inference and the taint tables.
EXPECTED="$(dirname "$0")/../corpusbench/expected"
expect_body() {
    tail -n +3 "$1" | sed '/^wall clock:/,$d' > "$1.body"
    cmp "$EXPECTED/$2" "$1.body" || {
        echo "$1 differs from corpusbench/expected/$2:" >&2
        diff "$EXPECTED/$2" "$1.body" >&2 || true
        exit 1
    }
}
expect_body "$DIR/corpus.out" inference.txt
FITS_JOBS=2 "$FITS" corpus --taint > "$DIR/corpus_taint.out" 2> /dev/null
expect_body "$DIR/corpus_taint.out" taint.txt

# A cache directory via FITS_CACHE_DIR makes the second invocation
# warm; --no-cache ignores it. Result tables are identical in all
# three configurations.
FITS_JOBS=2 FITS_CACHE_DIR="$DIR/cache" "$FITS" corpus --no-cache \
    > "$DIR/corpus_nocache.out"
grep -q "tier=off$" "$DIR/corpus_nocache.out"
test ! -e "$DIR/cache"
FITS_JOBS=2 FITS_CACHE_DIR="$DIR/cache" "$FITS" corpus \
    > "$DIR/corpus_cold.out"
grep -q "^cache: 0 hits / .* tier=disk$" "$DIR/corpus_cold.out"
ls "$DIR/cache"/*.fcb > /dev/null
FITS_JOBS=2 FITS_CACHE_DIR="$DIR/cache" "$FITS" corpus \
    > "$DIR/corpus_warm.out"
grep -q "^cache: [1-9][0-9]* hits / [0-9]* misses, tier=disk$" \
    "$DIR/corpus_warm.out"
grep -v "wall clock\|^cache:" "$DIR/corpus.out" > "$DIR/corpus.ref"
for out in corpus_nocache corpus_cold corpus_warm; do
    grep -v "wall clock\|^cache:" "$DIR/$out.out" > "$DIR/$out.cmp"
    cmp "$DIR/corpus.ref" "$DIR/$out.cmp" || {
        echo "corpus output differs under cache config $out" >&2
        exit 1
    }
done

# --dir evaluates on-disk images; --metrics-out writes a JSON snapshot
# with the instrumented pipeline stages and taint counters.
mkdir "$DIR/corpus"
cp "$IMG" "$DIR/corpus/"
"$FITS" corpus --dir "$DIR/corpus" --taint --jobs 2 \
    --metrics-out "$DIR/metrics.json" > "$DIR/corpus_dir.out"
test -s "$DIR/metrics.json"
# The header names the workers that run: one image starts one worker.
grep -q "^evaluating 1 samples with 1 worker threads" \
    "$DIR/corpus_dir.out" || {
    echo "one-image corpus header does not say 1 worker thread" >&2
    exit 1
}
for key in pipeline/unpack pipeline/select pipeline/lift \
           pipeline/ucse pipeline/bfv pipeline/infer \
           taint/karonte taint/sta \
           taint.karonte.phase_a_steps taint.sta.fixpoint_steps \
           corpus.samples corpus.worker.0.samples; do
    grep -q "\"$key\"" "$DIR/metrics.json" || {
        echo "metrics.json is missing $key" >&2
        exit 1
    }
done

# An entry whose status cannot be read (a symlink loop) is skipped like
# a dangling link; the listing never aborts.
mkdir "$DIR/loopcorpus"
cp "$IMG" "$DIR/loopcorpus/"
ln -s b.fwimg "$DIR/loopcorpus/a.fwimg"
ln -s a.fwimg "$DIR/loopcorpus/b.fwimg"
rc=0
"$FITS" corpus --dir "$DIR/loopcorpus" --jobs 1 > "$DIR/loop.out" \
    2> "$DIR/loop.err" || rc=$?
test "$rc" -eq 0 && grep -q "^evaluating 1 samples" "$DIR/loop.out" || {
    echo "expected exit 0 over 1 sample past a symlink loop, got $rc" >&2
    exit 1
}

# A corpus where every sample fails must exit non-zero and say so.
mkdir "$DIR/badcorpus"
echo "not a firmware image" > "$DIR/badcorpus/garbage.fwimg"
if "$FITS" corpus --dir "$DIR/badcorpus" > "$DIR/allfail.out" \
        2> "$DIR/allfail.err"; then
    echo "expected failure when every sample fails" >&2
    exit 1
fi
grep -q "failed samples: 1/1" "$DIR/allfail.out"
grep -q "garbage.fwimg" "$DIR/allfail.err"

# Error paths exit non-zero with a per-path diagnostic.
if "$FITS" info /nonexistent.fwimg 2> "$DIR/missing.err"; then
    echo "expected failure on a missing file" >&2
    exit 1
fi
grep -q "no such file" "$DIR/missing.err"
if "$FITS" info "$DIR" 2> "$DIR/isdir.err"; then
    echo "expected failure on a directory argument" >&2
    exit 1
fi
grep -q "is a directory" "$DIR/isdir.err"
if "$FITS" corpus --dir /no/such/dir 2> "$DIR/baddir.err"; then
    echo "expected failure on a missing corpus dir" >&2
    exit 1
fi
grep -q "no such directory" "$DIR/baddir.err"
if "$FITS" bogus-command x 2> /dev/null; then
    echo "expected usage failure" >&2
    exit 1
fi

# An unknown vendor is a usage error (exit 2), and nothing is written.
rc=0
"$FITS" gen "$DIR/bogus.fwimg" --vendor Bogus > /dev/null \
    2> "$DIR/badvendor.err" || rc=$?
test "$rc" -eq 2 || {
    echo "expected exit 2 for an unknown vendor, got $rc" >&2
    exit 1
}
grep -q "usage:" "$DIR/badvendor.err"
test ! -e "$DIR/bogus.fwimg"

# Corrupted on-disk images fail with a typed unpack error — never a
# crash: a truncated copy and a bit-flipped copy of a valid image.
head -c 100 "$IMG" > "$DIR/trunc.fwimg"
if "$FITS" info "$DIR/trunc.fwimg" 2> "$DIR/trunc.err"; then
    echo "expected failure on a truncated image" >&2
    exit 1
fi
grep -q "unpack failed" "$DIR/trunc.err"
cp "$IMG" "$DIR/flipped.fwimg"
printf '\377' | dd of="$DIR/flipped.fwimg" bs=1 seek=200 \
    conv=notrunc 2> /dev/null
if "$FITS" info "$DIR/flipped.fwimg" 2> "$DIR/flipped.err"; then
    echo "expected failure on a bit-flipped image" >&2
    exit 1
fi
grep -q "unpack failed" "$DIR/flipped.err"
mkdir "$DIR/corrupt"
cp "$DIR/trunc.fwimg" "$DIR/flipped.fwimg" "$DIR/corrupt/"
if "$FITS" corpus --dir "$DIR/corrupt" > "$DIR/corrupt.out" \
        2> /dev/null; then
    echo "expected failure on an all-corrupt corpus" >&2
    exit 1
fi
grep -q "failed samples: 2/2" "$DIR/corrupt.out"

# `fits faults` is not a command.
expect_usage "$FITS" faults

# A stage budget too large for the clock (or not a number at all)
# never expires: inf and nan mean "no deadline", so the output,
# cache line included, matches an unbudgeted run; 1e300 saturates.
"$FITS" corpus --dir "$DIR/corpus" --jobs 1 | grep -v "wall clock" \
    > "$DIR/unbudgeted.out"
for ms in inf nan; do
    FITS_STAGE_TIMEOUT_MS=$ms "$FITS" corpus --dir "$DIR/corpus" \
        --jobs 1 | grep -v "wall clock" > "$DIR/budget_$ms.out"
    cmp "$DIR/unbudgeted.out" "$DIR/budget_$ms.out" || {
        echo "FITS_STAGE_TIMEOUT_MS=$ms changed the corpus output" >&2
        exit 1
    }
done
FITS_STAGE_TIMEOUT_MS=1e300 "$FITS" corpus --dir "$DIR/corpus" \
    --jobs 1 > "$DIR/budget_huge.out"
if grep -q "degraded samples" "$DIR/budget_huge.out"; then
    echo "FITS_STAGE_TIMEOUT_MS=1e300 degraded a sample" >&2
    exit 1
fi

# An immediately-expiring stage budget degrades instead of failing.
FITS_STAGE_TIMEOUT_MS=0.001 "$FITS" corpus --dir "$DIR/corpus" \
    --jobs 1 > "$DIR/degraded.out" 2> "$DIR/degraded.err"
grep -q "degraded samples: 1/1" "$DIR/degraded.out"
grep -q "sample degraded" "$DIR/degraded.err"

echo "cli ok"
