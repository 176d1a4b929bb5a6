#!/usr/bin/env python3
"""Host benchmark of the HybridDNN reproduction.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (which compiles ../src) into
.bench_build/perfbench, runs one workload, checks its outputs and prints, as
the last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end_to_end metrics of
BENCHMARK.json, --trace 1 the per_layer metrics (and writes a Chrome
trace_event file under .bench_build/traces). See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "hdnn_perfbench")


def run_quiet(cmd, timeout):
    """Runs a build step; on failure shows its output on stderr and exits."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        sys.stderr.write("build step failed: %s\n" % " ".join(cmd))
        sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], 300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs], 840)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def same_value(a, b):
    if a is None or b is None:
        return False
    return a == b or abs(a - b) <= 1e-9 * max(abs(a), abs(b))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error("unknown workload %s" % args.workload)
    expected = load_json(os.path.join(HERE, "expected.json"))
    build()

    out_dir = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(out_dir, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    result_path = os.path.join(out_dir, tag + ".json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--result", result_path]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, tag + ".json")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=170)
    except subprocess.TimeoutExpired:
        sys.stderr.write("workload %s timed out\n" % args.workload)
        sys.exit(3)
    if proc.returncode != 0 or not os.path.exists(result_path):
        sys.stderr.write("workload %s exited with %d\n" %
                         (args.workload, proc.returncode))
        sys.exit(3)
    result = load_json(result_path)

    attempted = int(result["attempted"])
    failed = int(result["failed"])
    errors = list(result["errors"])

    # Modeled values recorded in expected.json must repeat exactly; each
    # comparison counts as one more checked operation.
    for name, want in expected.get(args.workload, {}).items():
        got = result["deterministic"].get(name)
        attempted += 1
        if not same_value(got, want):
            failed += 1
            errors.append("%s = %r, expected %r" % (name, got, want))

    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    produced = result["metrics"]
    for m in group:
        name = m["name"]
        if name in produced:
            value, unit = produced[name]["value"], produced[name]["unit"]
            if unit != m["unit"] or value is None:
                errors.append("metric %s: bad value %r %s" % (name, value, unit))
                value = 0.0
        elif args.trace:
            value = 0.0  # layer not exercised by this workload
        else:
            errors.append("metric %s missing" % name)
            value = 0.0
        metrics[name] = {"value": value, "unit": m["unit"]}

    for e in errors:
        sys.stderr.write("FAIL: %s\n" % e)
    correct = failed == 0 and not errors and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
