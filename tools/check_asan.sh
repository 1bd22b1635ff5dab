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
# a library-less image, corrupt behavior bundles and cache entries, an
# unwritable cache directory) specifically probe the ByteReader bounds
# checks that ASan is best at catching; the DBSCAN suites hash and
# compare raw row bytes (NaN, signed-zero and ragged rows among them);
# and the byte-path kernels do word loads, tail loops and their own
# capacity management (XXH64, the ByteWriter cursor, the SWAR payload
# codec).
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" FITS_JOBS=4 \
    "$BUILD/tests/fits_tests" \
    --gtest_filter='Corruption.*:Robustness.*:CacheTest.UnwritableDiskDirSkipsEntry:CacheTest.DecodeRejectsCorruptPayloads:CacheTest.CorruptDiskEntriesDegradeToMisses:Fbin.RejectsEveryTruncation:Fbin.SurvivesRandomByteFlips:Dbscan.*:Hash64.*:ByteBuf.*:Fwimg.*'

echo "asan: no memory errors detected"
