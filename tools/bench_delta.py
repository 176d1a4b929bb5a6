#!/usr/bin/env python3
"""Compact before/after throughput table from collected BENCH_*.json files.

Usage: bench_delta.py BASELINE_DIR CURRENT_DIR [GLOB...]

Reads every bench JSON matching the globs from CURRENT_DIR, pairs each
throughput metric with the same metric in BASELINE_DIR (the previous CI
run's artifacts, if cached), and prints one aligned items/s table per file.
Schema-agnostic: any array of objects is treated as rows (labelled by its
"name" field or its workers/batch/platform/model fields), and any numeric
field whose key names a rate (items_per_s, *gops, speedup) becomes a column
entry. Rows present in only one run are still printed: new metrics get "-"
baselines, removed metrics get "-" current values, so renamed or retired
benches surface in the table instead of vanishing. Files without a baseline
print current values with "-" deltas, so the step never fails on a cold
cache. Exits non-zero only when a bench JSON exists but cannot be parsed.
Stdlib only.
"""

import glob
import json
import os
import sys

RATE_KEYS = (
    "items_per_s",
    "host_items_per_s",
    "sim_gops",
    "gops",
    "aggregate_effective_gops",
    "speedup",
    "speedup_4v1",
    "host_speedup_4v1",
    "gops_1_worker",
    "gops_4_workers",
    # serving front door (BENCH_serve_latency.json)
    "achieved_qps",
    "achieved_qps_1w",
    "achieved_qps_4w",
    "scaling_4v1",
    "p50_ms",
    "p99_ms",
    "p999_ms",
    "mean_batch",
    "shed_rate",
    # quantization accuracy (BENCH_quant_error.json) — end-to-end only;
    # per-layer metrics use non-rate key names so they stay out of the table
    "e2e_sqnr_db",
    "sqnr_gain_db",
    "e2e_rmse",
    "e2e_max_abs",
    # fleet portfolio vs naive (BENCH_fleet.json): per-shard capacity and
    # efficiency rows plus the heterogeneous-advantage headline
    "planned_qps",
    "measured_qps",
    "offered_qps",
    "utilization",
    "energy_joules",
    "qps_per_joule",
    "naive_qps",
    "portfolio_qps",
    "qps_ratio",
    "naive_qps_per_joule",
    "portfolio_qps_per_joule",
    "qps_per_joule_ratio",
    # chaos / self-healing fleet (BENCH_fleet_chaos.json): per-scenario
    # goodput plus the crash-recovery headline. corrupted_served_with_crc
    # is an invariant, not a trend — any non-zero value is flagged BAD.
    "goodput_qps",
    "tail_goodput_qps",
    "recovery_ratio",
    "baseline_tail_goodput_qps",
    "crash_tail_goodput_qps",
    "failed",
    "retries",
    "corrupted_detected",
    "corrupted_served",
    "corrupted_detected_with_crc",
    "corrupted_served_with_crc",
    "corrupted_served_without_crc",
)

# Latency percentiles, shed rate and quantization error improve when they go
# DOWN; everything else in RATE_KEYS improves when it goes up. Informational
# rows carry no verdict: mean_batch, the offered (input) rate, shard
# utilization (high = good packing OR saturation) and absolute energy (it
# conflates horizon with draw — the qps_per_joule rows carry the verdict).
LOWER_BETTER = {"p50_ms", "p99_ms", "p999_ms", "shed_rate",
                "e2e_rmse", "e2e_max_abs", "failed", "corrupted_served"}
NEUTRAL = {"mean_batch", "offered_qps", "utilization", "energy_joules",
           # chaos bookkeeping: these scale with what the plan injects
           # (retries/detections) or are scenario inputs, so their movement
           # carries no verdict — goodput and recovery_ratio do.
           "retries", "corrupted_detected", "corrupted_detected_with_crc",
           "corrupted_served_without_crc"}
# Invariants rather than trends: any non-zero current value is a failure of
# the bench's own bars and is flagged BAD even without a baseline. The
# chaos bench already exits non-zero on violation; the table makes it
# visible in the delta report too.
MUST_BE_ZERO = {"corrupted_served_with_crc"}


def trend(key, before, after):
    """Direction-aware verdict for the delta column."""
    if not before or after is None:
        return ""
    ratio = after / before
    if 0.95 <= ratio <= 1.05:
        return "~"
    improved = ratio < 1 if key in LOWER_BETTER else ratio > 1
    if key in NEUTRAL:
        return "~"
    return "better" if improved else "WORSE"


def row_label(obj):
    if "name" in obj:
        return str(obj["name"])
    parts = []
    for key in ("platform", "model", "pattern", "workers", "batch",
                "offered_ratio", "max_batch", "max_queue_delay_ms"):
        if key in obj:
            short = {"workers": "w", "batch": "b", "offered_ratio": "x",
                     "max_batch": "mb", "max_queue_delay_ms": "d"}.get(key)
            parts.append(f"{short}{obj[key]}" if short else str(obj[key]))
    return "/".join(parts) or "(row)"


def extract(node, prefix, out):
    """Flattens `node` into {metric_path: value} for every rate field."""
    if isinstance(node, dict):
        label = None
        if any(isinstance(v, (dict, list)) for v in node.values()):
            for key, value in node.items():
                extract(value, f"{prefix}{key}." if prefix else f"{key}.", out)
        for key, value in node.items():
            if key in RATE_KEYS and isinstance(value, (int, float)):
                if label is None:
                    label = row_label(node)
                out[f"{prefix}{label}.{key}"] = float(value)
    elif isinstance(node, list):
        for item in node:
            extract(item, prefix, out)


def load_metrics(path, errors):
    """Returns {metric: value} for `path`; records parse failures in `errors`."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"  (unreadable: {err})")
        errors.append(f"{path}: {err}")
        return {}
    metrics = {}
    extract(doc, "", metrics)
    return metrics


def main(argv):
    if len(argv) < 3:
        print(__doc__)
        return 2
    base_dir, cur_dir = argv[1], argv[2]
    patterns = argv[3:] or ["BENCH_*.json"]
    # The union of both runs' files: a bench that disappeared from the
    # current run still gets a table (all "-" current values).
    files = sorted({os.path.basename(p)
                    for pat in patterns
                    for d in (cur_dir, base_dir)
                    for p in glob.glob(os.path.join(d, pat))})
    if not files:
        print("bench_delta: no bench JSON found")
        return 0

    errors = []
    width = 52
    for name in files:
        print(f"\n== {name} ==")
        cur_path = os.path.join(cur_dir, name)
        current = load_metrics(cur_path, errors) if os.path.exists(cur_path) \
            else {}
        base_path = os.path.join(base_dir, name)
        base_missing = not os.path.exists(base_path)
        baseline = {} if base_missing else load_metrics(base_path, errors)
        if not os.path.exists(cur_path):
            print("  (missing from the current run)")
        if base_missing:
            print("  (baseline gone — first run or cold cache)")
        elif not baseline:
            print("  (no cached baseline — first run or cold cache)")
        print(f"  {'metric':<{width}} {'before':>12} {'after':>12} "
              f"{'delta':>8} {'trend':>7}")
        for key in sorted(set(current) | set(baseline)):
            after = current.get(key)
            before = baseline.get(key)
            after_s = "-" if after is None else f"{after:.3f}"
            trend_s = ""
            if before is None:
                before_s = "gone" if base_missing else "-"
                delta_s = "-"
            else:
                before_s = f"{before:.3f}"
                if after is None:
                    delta_s = "gone"
                elif before:
                    delta_s = f"{after / before:.2f}x"
                    trend_s = trend(key.rsplit(".", 1)[-1], before, after)
                else:
                    delta_s = "-" if after == 0 else "new"
            if key.rsplit(".", 1)[-1] in MUST_BE_ZERO and after:
                trend_s = "BAD"
            label = key if len(key) <= width else "…" + key[-(width - 1):]
            print(f"  {label:<{width}} {before_s:>12} {after_s:>12} "
                  f"{delta_s:>8} {trend_s:>7}")
    if errors:
        print(f"\nbench_delta: {len(errors)} unparseable bench file(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
