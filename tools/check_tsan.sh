#!/bin/sh
# Build the test suite under ThreadSanitizer and run the concurrency
# tests with several workers. Any data race fails the run (TSan exits
# non-zero via halt_on_error handling of its report count).
#
# Usage: tools/check_tsan.sh [build-dir]   (default: build-tsan)
set -e

. "$(dirname "$0")/lib.sh"
BUILD=${1:-"$FITS_ROOT/build-tsan"}

fits_sanitized_tests "$BUILD" thread

# Exercise the parallel machinery specifically: the corpus runner
# fan-out and its jobs resolution, the logger, and the metrics registry
# (concurrent instrument updates + snapshots).
TSAN_OPTIONS="halt_on_error=1" FITS_JOBS=4 "$BUILD/tests/fits_tests" \
    --gtest_filter='ResolveJobs.*:CorpusRunner.*:BehaviorAnalyzer.*:Logger.*:Obs*'

# The blob cache is shared state under the fan-out: its configured
# directory and stat counters, and the entry files themselves, which
# parallel workers read, write and rename onto one another (duplicate
# samples store one key at once).
TSAN_OPTIONS="halt_on_error=1" FITS_JOBS=4 "$BUILD/tests/fits_tests" \
    --gtest_filter='CacheTest.*'

echo "tsan: no data races detected"
