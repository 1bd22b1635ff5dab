#!/bin/sh
# Build the test suite under AddressSanitizer (+ UBSan, via the
# FITS_SANITIZE=address toolchain flags) and run the full suite. Any
# heap error, overflow, or leak fails the run.
#
# Usage: tools/check_asan.sh [build-dir]   (default: build-asan)
set -e

. "$(dirname "$0")/lib.sh"
BUILD=${1:-"$FITS_ROOT/build-asan"}

fits_sanitized_tests "$BUILD" address

ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" FITS_JOBS=4 \
    "$BUILD/tests/fits_tests"

# Second pass: the real malformed-input tests (truncated, bit-flipped
# and hand-broken containers, mutated payloads behind a valid checksum,
# a library-less image, malformed IR text, an unwritable cache
# directory) specifically probe the decoder bounds checks that ASan is
# best at catching.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" FITS_JOBS=4 \
    "$BUILD/tests/fits_tests" \
    --gtest_filter='Corruption.*:Robustness.*:Parse.RejectsGarbage:CacheTest.UnwritableDiskDirSkipsEntry:Fbin.RejectsEveryTruncation:Fbin.SurvivesRandomByteFlips'

echo "asan: no memory errors detected"
