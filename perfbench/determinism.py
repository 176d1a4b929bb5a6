#!/usr/bin/env python3
"""Checks that the benchmark's modeled metrics repeat exactly at a seed.

    python3 perfbench/determinism.py --seed A --fresh-seed B [--seconds S]

Runs every workload twice at seed A with --trace 1 and requires each
deterministic per-layer metric (simulated cycles and module busy counts,
fleet outcome counts, modeled GOPS, estimator error, DSE candidate and
instruction counts) to be identical. Then runs seed B once and prints each
workload's Execute stage shares next to seed A's, to show which layer
dominates does not depend on the seed. Exits non-zero on any mismatch or
failed run.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETERMINISTIC_PREFIXES = ("sim.cycles", "sim.ldi_busy", "sim.ldw_busy",
                          "sim.comp_busy", "sim.save_busy", "sim.port_busy",
                          "sim.dram_words", "fleet.ok", "fleet.shed",
                          "fleet.failed", "fleet.retries",
                          "fleet.hedges_wasted", "fleet.replans",
                          "model_gops", "est_err_pct", "estimator.err_pct.",
                          "fleet_goodput_qps", "dse.candidates",
                          "dse.memo_hit_frac", "compiler.instructions")


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not report["correct"]:
        sys.exit("%s seed %d failed" % (workload, seed))
    return {k: v["value"] for k, v in report["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--fresh-seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=4)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    ok = True
    for w in workloads:
        first = run(w, args.seed, args.seconds)
        second = run(w, args.seed, args.seconds)
        fresh = run(w, args.fresh_seed, args.seconds)
        names = [k for k in first if k.startswith(DETERMINISTIC_PREFIXES)
                 and (first[k] or second[k])]
        diffs = [k for k in names if first[k] != second[k]]
        ok = ok and not diffs
        print("%-16s %d deterministic metrics at seed %d: %s" %
              (w, len(names), args.seed,
               "identical" if not diffs else "DIFFER: " + ", ".join(diffs)))
        shares = sorted(k for k in first if k.startswith("execute_share_pct."))
        for k in shares:
            if first[k] or fresh[k]:
                print("    %-40s seed %d %6.1f%%   seed %d %6.1f%%" %
                      (k, args.seed, first[k], args.fresh_seed, fresh[k]))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
