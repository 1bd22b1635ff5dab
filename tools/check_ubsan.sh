#!/bin/sh
# Build the test suite under UndefinedBehaviorSanitizer and run the
# suites most likely to hit UB on adversarial input: the corruption /
# truncation fuzzers, the other real malformed-input tests, and the
# binary and firmware container decoders; the deadline tests, whose
# huge and non-finite budgets once overflowed the clock; the cache
# suite, whose disk codec decodes untrusted bytes; plus the
# taint-engine suites and the golden corpus digest, which drive both
# engines' cell-key and call-site index arithmetic over the whole
# corpus; and the reaching-definitions suites, whose corpus oracle and
# random-function sweep drive the mask kernel's register, temporary and
# memory-cell indexing; the DBSCAN suites, which hash raw row
# bytes and index classes by them; and the byte-path kernels' suites
# (XXH64, the ByteWriter cursor, the SWAR payload codec), which shift,
# load words and run tail loops; and the inference suites and the
# block-inference oracle, which index row-major feature blocks by
# `row * width`; and the UCSE suites (the analysis-kernel oracle, the
# invariant sweep, the explorer and FunctionAnalysis unit tests), since
# the explorer indexes per-block visit counts and its flat frame stack
# by hand and the corpus oracle explores every corpus function; and the
# ML-kit suites (vector, distance, scaling and PCA), whose block
# transforms index rows and PCA components by `row * width`. Any UB
# report aborts the run (-fno-sanitize-recover=all).
#
# Usage: tools/check_ubsan.sh [build-dir]   (default: build-ubsan)
set -e

. "$(dirname "$0")/lib.sh"
BUILD=${1:-"$FITS_ROOT/build-ubsan"}

fits_sanitized_tests "$BUILD" undefined

UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" FITS_JOBS=4 \
    "$BUILD/tests/fits_tests" \
    --gtest_filter='Deadline.*:Hash64.*:Corruption.*:Robustness.*:CacheTest.*:Fbin.*:ByteBuf.*:Fwimg.*:Taint*:GoldenCorpus.*:ReachDef*:Dbscan.*:Infer.*:InferOracle.*:AnalysisKernelOracle.*:Seeds/InvariantSweep.*:Ucse.*:FunctionAnalysis.*:VectorOps.*:Distance.*:Scaling.*:Pca.*'

echo "ubsan: no undefined behavior detected"
