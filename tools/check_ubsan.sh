#!/bin/sh
# Build the test suite under UndefinedBehaviorSanitizer and run the
# suites most likely to hit UB on adversarial input: the corruption /
# truncation fuzzers, the other real malformed-input tests, and the
# binary and firmware container decoders; the deadline tests, whose
# huge and non-finite budgets once overflowed the clock; the cache
# suite, whose disk codec decodes untrusted bytes; plus the
# taint-engine suites and the golden corpus digest, which drive both
# engines' cell-key and call-site index arithmetic over the whole
# corpus. Any UB report aborts the run (-fno-sanitize-recover=all).
#
# Usage: tools/check_ubsan.sh [build-dir]   (default: build-ubsan)
set -e

. "$(dirname "$0")/lib.sh"
BUILD=${1:-"$FITS_ROOT/build-ubsan"}

fits_sanitized_tests "$BUILD" undefined

UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" FITS_JOBS=4 \
    "$BUILD/tests/fits_tests" \
    --gtest_filter='Deadline.*:Corruption.*:Robustness.*:Parse.RejectsGarbage:CacheTest.*:Fbin.*:ByteBuf.*:Fwimg.*:Taint*:GoldenCorpus.*'

echo "ubsan: no undefined behavior detected"
