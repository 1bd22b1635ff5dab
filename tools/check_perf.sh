#!/bin/sh
# Performance regression check: run the micro-benchmarks and the
# Figure-4 time/overhead bench, write their BENCH_*.json records, and
# compare the headline numbers against the committed baselines in
# bench/baseline/. Regressions WARN — they never fail the build, because
# wall-clock numbers are machine-dependent; the point is a visible
# diff next to the functional checks, plus fresh baselines to commit
# when a change is intentional. Under GitHub Actions each regression
# additionally emits a `::warning::` annotation so it surfaces on the
# PR without failing it. The script exits non-zero only when the
# harness itself fails (benchmarks do not build, run, or record).
#
# Usage: tools/check_perf.sh [build-dir] [out-dir]
#   build-dir  default: build        (must already be configured)
#   out-dir    default: <build-dir>/perf   (new BENCH_*.json land here)
set -e

. "$(dirname "$0")/lib.sh"
BUILD=$(fits_abspath "${1:-"$FITS_ROOT/build"}")
OUT=$(fits_abspath "${2:-"$BUILD/perf"}")

fits_build "$BUILD" bench_micro bench_fig4_time_overhead
mkdir -p "$OUT"

# Old google-benchmark: --benchmark_min_time takes plain seconds.
(cd "$OUT" && FITS_BENCH_DIR="$OUT" \
    "$BUILD/bench/bench_micro" --benchmark_min_time=0.2)
(cd "$OUT" && FITS_BENCH_DIR="$OUT" "$BUILD/bench/bench_fig4_time_overhead")

# Warn-only comparison of every shared numeric field, baseline vs new.
python3 - "$FITS_ROOT/bench/baseline" "$OUT" <<'EOF'
import json, os, sys

baseline, out = sys.argv[1], sys.argv[2]
tolerance = 0.15  # warn beyond +/-15%
warned = False
missing_record = False
for name in ("BENCH_micro.json", "BENCH_fig4_time_overhead.json"):
    base_path = os.path.join(baseline, name)
    new_path = os.path.join(out, name)
    if not os.path.exists(new_path):
        print(f"perf: {name}: no new record produced", file=sys.stderr)
        missing_record = True
        continue
    if not os.path.exists(base_path):
        print(f"perf: {name}: no committed baseline; copy "
              f"{new_path} to {baseline}/ to create one")
        continue
    base = json.load(open(base_path))["fields"]
    new = json.load(open(new_path))["fields"]
    for key in sorted(set(base) & set(new)):
        b, n = base[key], new[key]
        if not isinstance(b, (int, float)) or not isinstance(n, (int, float)):
            continue
        if b == 0:
            continue
        delta = (n - b) / abs(b)
        marker = ""
        if key.endswith("_ms") and delta > tolerance:
            marker = "  <-- WARNING: slower than baseline"
            warned = True
            # Machine-readable GitHub Actions annotation: shows up on
            # the PR checks page without failing the job.
            print(f"::warning title=perf regression::"
                  f"{name[6:-5]}.{key}: baseline {b:g} -> {n:g} "
                  f"({delta:+.1%})")
        print(f"perf: {name[6:-5]}.{key}: baseline {b:g} -> {n:g} "
              f"({delta:+.1%}){marker}")
print("perf: comparison is advisory only (warn, never fail)"
      if warned else "perf: within baseline tolerance")
# A missing record means the harness itself broke: that DOES fail.
sys.exit(1 if missing_record else 0)
EOF

echo "perf: records written to $OUT"
