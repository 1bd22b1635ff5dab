#!/usr/bin/env python3
"""Corpus benchmark of FITS: `fits corpus` end to end, and layer by layer.

Run from the repository root:

    python3 corpusbench/run.py --workload corpus-cold --seed 0 \\
        --seconds 20 --trace 0

Each invocation builds `fits` and the traced driver `corpus_trace` from
the repository's sources into .bench_build/corpusbench (incrementally),
then measures one workload:

  corpus-cold   fits corpus --jobs J, with a fresh empty FITS_CACHE_DIR
                for every run
  corpus-warm   fits corpus --jobs J, on a FITS_CACHE_DIR that an untimed
                priming run filled
  corpus-taint  fits corpus --jobs J --taint, with no cache directory

J is 4, or the CPU count where that is lower. Seed 0 is the built-in
59-sample corpus. Any other seed re-seeds the 59 standard specs; the
runs get them as .fwimg files through --dir.

--trace 0  Closed loop with one client: a run is one `fits corpus`
           process that evaluates the whole corpus and exits, and the
           next run starts when it has exited. Runs repeat for --seconds
           (at least MIN_RUNS); each end-to-end metric is the median over
           the runs, read from outside the process.
--trace 1  The per-layer metrics of one traced `corpus_trace` run, plus
           the untraced runs its two ratios need. The spans are written
           to .bench_build/corpusbench-work/spans-<workload>-<seed>.json.

Every run's report text (the tables and the `failed samples` line) is
checked: for seed 0 against corpusbench/expected/, for other seeds
against the first run of the invocation. The last line of stdout is the
JSON result; progress and diagnostics go to stderr.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "corpusbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "corpusbench-work")
FITS = os.path.join(BUILD_DIR, "fits")
TRACE = os.path.join(BUILD_DIR, "corpus_trace")

JOBS = min(4, len(os.sched_getaffinity(0)))
MIN_RUNS = 5
PARALLEL_RUNS = 3  # untraced runs behind eval.parallel_efficiency
RUN_TIMEOUT_S = 100
LOOP_LIMIT_S = 120  # keeps one invocation well inside 180 s
WARM_MIN_HITS = 55  # 59 samples, 4 of which fail before they are cached

# workload -> (corpus_trace workload, extra `fits corpus` flags,
#              expected report text for seed 0)
WORKLOADS = {
    "corpus-cold": ("cold", [], "inference.txt"),
    "corpus-warm": ("warm", [], "inference.txt"),
    "corpus-taint": ("taint", ["--taint"], "taint.txt"),
}

# Self times of the non-replay spans; with trace.other_ms they add up to
# trace.wall_ms.
STAGE_METRICS = [
    "synth.generate_ms", "firmware.unpack_ms", "firmware.select_ms",
    "analysis.lift_ms", "analysis.ucse_ms", "core.bfv_ms", "core.infer_ms",
    "cache.blob_read_ms", "cache.blob_write_ms", "taint.sta_ms",
    "taint.karonte_ms", "eval.self_ms", "trace.other_ms",
]


def log(message):
    print(message, file=sys.stderr, flush=True)


def die(message):
    log(f"corpusbench: {message}")
    sys.exit(2)


def child_env(cache_dir=None):
    """The caller's environment without FITS_* knobs (jobs, faults, stage
    budgets, metrics, cache directory), plus the run's cache directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FITS_")}
    if cache_dir:
        env["FITS_CACHE_DIR"] = cache_dir
    return env


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR] +
                       generator, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(JOBS)],
                   stdout=sys.stderr, check=True)


def corpus_dir(seed):
    """None for the built-in corpus, else a freshly written directory of
    .fwimg files."""
    if seed == 0:
        return None
    path = os.path.join(WORK_DIR, f"corpus-{seed}")
    fresh_dir(path)
    subprocess.run([TRACE, "write", "--seed", str(seed), "--out", path],
                   stdout=sys.stderr, check=True, timeout=RUN_TIMEOUT_S)
    return path


def report_text(out):
    """The deterministic body of `fits corpus` output: everything between
    the two header lines and the `wall clock` line."""
    body = []
    for line in out.splitlines(keepends=True)[2:]:
        if line.startswith("wall clock:"):
            break
        body.append(line)
    return "".join(body)


class AnswerCheck:
    """Compares report texts with the expected one; without an expected
    text, the first text seen becomes it."""

    def __init__(self, expected):
        self.expected = expected
        self.reported = False

    def ok(self, text):
        if self.expected is None:
            self.expected = text
        if text == self.expected:
            return True
        if not self.reported:
            self.reported = True
            log("corpusbench: report text differs from the expected:\n" +
                text)
        return False


def run_corpus(extra, corpus, cache_dir, jobs=JOBS):
    """One `fits corpus` process, measured from outside."""
    cmd = [FITS, "corpus", "--jobs", str(jobs)] + extra
    if corpus:
        cmd += ["--dir", corpus]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL,
                            env=child_env(cache_dir), cwd=WORK_DIR)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    # The CLI flushes "evaluating N samples..." once the corpus is built
    # or loaded, before the analysis starts.
    header = proc.stdout.readline()
    setup = time.perf_counter() - start
    rest = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()

    out = (header + rest).decode(errors="replace")
    failed = re.search(r"^failed samples: (\d+)/(\d+)$", out, re.M)
    hits = re.search(r"^cache: (\d+) hits", out, re.M)
    ok = (proc.returncode == 0 and failed is not None and
          header.startswith(b"evaluating "))
    samples = int(failed.group(2)) if failed else 59
    return {
        "ok": ok,
        "text": report_text(out),
        "hits": int(hits.group(1)) if hits else 0,
        "wall_s": wall,
        "setup_s": setup,
        "samples_per_s": samples / max(wall - setup, 1e-9),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        # A crash or a non-zero exit counts as every sample failed.
        "failed_ratio": int(failed.group(1)) / samples if ok else 1.0,
    }


def run_is_correct(run, check, min_hits=0):
    return run["ok"] and check.ok(run["text"]) and run["hits"] >= min_hits


def prime(extra, corpus, cache_dir, check):
    """The untimed run that fills a warm cache directory."""
    fresh_dir(cache_dir)
    return run_is_correct(run_corpus(extra, corpus, cache_dir), check)


def end_to_end(workload, seconds, corpus, check, spec):
    kind, extra, _ = WORKLOADS[workload]
    cache_dir = os.path.join(WORK_DIR, f"cache-{workload}")
    min_hits = WARM_MIN_HITS if kind == "warm" else 0
    correct = prime(extra, corpus, cache_dir, check) if kind == "warm" \
        else True

    runs, failed = [], 0
    start = time.perf_counter()
    while len(runs) < MIN_RUNS or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > LOOP_LIMIT_S:
            break
        if kind == "cold":
            fresh_dir(cache_dir)
        run = run_corpus(extra, corpus, None if kind == "taint" else cache_dir)
        failed += 0 if run_is_correct(run, check, min_hits) else 1
        runs.append(run)
    shutil.rmtree(cache_dir, ignore_errors=True)
    log(f"corpusbench: {len(runs)} runs of {workload}")

    metrics = {
        m["name"]: {"value": statistics.median(r[m["name"]] for r in runs),
                    "unit": m["unit"]}
        for m in spec
    }
    return {"correct": correct and failed == 0, "attempted": len(runs),
            "failed": failed, "metrics": metrics}


def traced(workload, seconds, seed, corpus, check, spec):
    kind, extra, _ = WORKLOADS[workload]
    cache_dir = os.path.join(WORK_DIR, f"cache-{workload}")
    min_hits = WARM_MIN_HITS if kind == "warm" else 0
    disk = None if kind == "taint" else cache_dir
    attempted, failed = 0, 0

    def untraced(jobs):
        nonlocal attempted, failed
        if kind == "cold":
            fresh_dir(cache_dir)
        run = run_corpus(extra, corpus, disk, jobs)
        attempted += 1
        failed += 0 if run_is_correct(run, check, min_hits) else 1
        return run

    if kind == "warm" and not prime(extra, corpus, cache_dir, check):
        failed += 1
    parallel = [untraced(JOBS) for _ in range(PARALLEL_RUNS)]
    serial = untraced(1)

    if kind == "cold":
        fresh_dir(cache_dir)
    spans = os.path.join(WORK_DIR, f"spans-{workload}-{seed}.json")
    proc = subprocess.run(
        [TRACE, "trace", "--workload", kind, "--seed", str(seed),
         "--seconds", str(seconds / 2), "--cache-dir", cache_dir,
         "--spans", spans],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=child_env(),
        cwd=WORK_DIR, timeout=RUN_TIMEOUT_S)
    shutil.rmtree(cache_dir, ignore_errors=True)
    attempted += 1
    head, _, last = proc.stdout.decode().rstrip("\n").rpartition("\n")
    layers = json.loads(last) if proc.returncode == 0 else {}
    stages = sum(layers.get(name, 0.0) for name in STAGE_METRICS)
    wall = layers.get("trace.wall_ms", 0.0)
    if not (proc.returncode == 0 and check.ok(head + "\n") and
            layers["trace.other_ms"] >= 0 and
            abs(stages - wall) <= 1e-6 * wall):
        failed += 1
    log(f"corpusbench: {int(layers.get('trace.passes', 0))} traced passes; "
        f"spans in {spans}")

    busy_s = statistics.median(r["wall_s"] - r["setup_s"] for r in parallel)
    layers["eval.parallel_efficiency"] = (
        layers.get("eval.sample_sum_ms", 0.0) / (JOBS * busy_s * 1000.0))
    layers["trace.overhead_ratio"] = wall / (serial["wall_s"] * 1000.0)
    metrics = {m["name"]: {"value": layers.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in spec}
    return {"correct": failed == 0 and all(m["name"] in layers for m in spec),
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        die("--seed must be a non-negative integer")

    for required in ("src/CMakeLists.txt", "tools/fits_cli.cc",
                     "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            die(f"{required} is missing: run from a full FITS checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    try:
        build()
        os.makedirs(WORK_DIR, exist_ok=True)
        corpus = corpus_dir(args.seed)
    except (OSError, subprocess.SubprocessError) as e:
        die(f"set-up failed: {e}")

    expected = None
    if args.seed == 0:
        name = WORKLOADS[args.workload][2]
        with open(os.path.join(BENCH_DIR, "expected", name)) as f:
            expected = f.read()
    check = AnswerCheck(expected)
    if args.trace:
        result = traced(args.workload, args.seconds, args.seed, corpus,
                        check, benchmark["per_layer"])
    else:
        result = end_to_end(args.workload, args.seconds, corpus, check,
                            benchmark["end_to_end"])
    if check.expected is not None:
        digest = hashlib.sha256(check.expected.encode()).hexdigest()
        log(f"corpusbench: report text sha256 {digest}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
