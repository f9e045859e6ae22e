#!/usr/bin/env python3
"""Perf regression gate over BENCH_*.json files.

Compares freshly generated bench reports against the committed snapshots in
bench/baselines/ and fails (exit 1) when a gated metric regresses by more
than the threshold:

  * throughput metrics — lower is a regression. Gated by naming
    convention: every metric whose key ends in `_mtps` (millions of tuples
    or rows per second), `_mprobes` (millions of probes per second), or
    `_mops` (millions of point-answer ops per second: Count /
    AnswerExists / AnswerAggregate calls) is
    throughput-gated, which covers the drain headlines
    (drain_single_mtps, drain_batched_mtps) and the per-kernel SIMD rows
    (scalar_mtps / dispatch_mtps / *_mprobes) without further
    registration. When a record
    carries a `dispatch_level` and it differs between baseline and current
    run (e.g. the baseline was measured with AVX2 but the run is pinned by
    CQC_FORCE_SCALAR or on lesser hardware), the `dispatch_*` metrics are
    reported but not gated — only the level-independent `scalar_*` twins
    are comparable across dispatch levels;
  * delay percentiles (single_delay_us_p95, batched_delay_us_p95) — higher
    is a regression. Absolute changes under 25us are ignored: measured
    run-to-run variance of these wall-clock percentiles on a shared runner
    is ~2x at the 15-30us scale, while a real delay regression (a heavy
    pair evaluated eagerly, a batch stall) shows up as 100us+. The gate is
    therefore a backstop against order-of-magnitude delay blowups; the
    fine-grained signal is the deterministic worst_delay_ops counter in
    the same reports;
  * request-latency p99s — every metric whose key ends in `_p99_us`
    (BENCH_server's closed/open-loop tail latencies) is latency-gated:
    higher is a regression, but only past BOTH a 3x ratio and a 2.5ms
    absolute change. Wire round-trip tails on a shared runner carry
    scheduler noise of +-50% at the few-ms scale (a p99 over a short
    window is roughly the second-worst sample), so unlike the throughput
    gates this one is purely a backstop against real tail blowups — a
    stalled drain, a loop-thread convoy — which show up as 10x+, not
    tens of percent. A p99 is additionally gated only when both records
    report `requests` >= 200: below that a p99 is just the worst couple
    of samples (an open-loop probe at 50 qps over a short window has a
    few dozen), and its run-to-run swing is order-statistics noise, not
    a regression signal — such records are reported but never gated.
    `_kqps` joins the throughput suffixes (lower is a regression) for
    the same reports.

Records are matched by (experiment, structure). Metrics present in the
baseline but missing from the current run (or vice versa) are reported but
only missing *records* fail the gate — a renamed structure must update the
snapshot deliberately.

Usage:
  python3 tools/bench_compare.py --baseline bench/baselines --current build \
      [--threshold 0.15] [--bench micro --bench full_enumeration]
"""

import argparse
import json
import os
import sys

THROUGHPUT_SUFFIXES = ("_mtps", "_mprobes", "_mops", "_kqps")
DELAY_KEYS = ("single_delay_us_p95", "batched_delay_us_p95")
DELAY_ABS_FLOOR_US = 25.0
LATENCY_SUFFIX = "_p99_us"
LATENCY_RATIO_LIMIT = 3.0
LATENCY_ABS_FLOOR_US = 2500.0
LATENCY_MIN_SAMPLES = 200


def throughput_keys(rec):
    """Gated throughput metrics of a record, by suffix convention."""
    return sorted(k for k in rec
                  if any(k.endswith(s) for s in THROUGHPUT_SUFFIXES))


def latency_keys(rec):
    """Gated tail-latency metrics of a record, by suffix convention."""
    return sorted(k for k in rec if k.endswith(LATENCY_SUFFIX))


def load(path):
    with open(path) as f:
        return json.load(f)


def record_key(rec):
    return (rec.get("experiment", "?"), rec.get("structure", "?"))


def compare_bench(name, baseline, current, threshold):
    base_recs = {record_key(r): r for r in baseline.get("records", [])}
    cur_recs = {record_key(r): r for r in current.get("records", [])}
    failures, lines = [], []

    for key, base in sorted(base_recs.items()):
        cur = cur_recs.get(key)
        if cur is None:
            failures.append(f"{name} {key}: record missing from current run")
            continue
        level_mismatch = base.get("dispatch_level") != cur.get("dispatch_level")
        for metric in throughput_keys(base):
            if level_mismatch and metric.startswith("dispatch_"):
                lines.append(f"  {name:<18} {key[1]:<44} {metric:<22} "
                             f"not gated (dispatch level "
                             f"{base.get('dispatch_level')} -> "
                             f"{cur.get('dispatch_level')})")
                continue
            if metric not in cur:
                failures.append(f"{name} {key} {metric}: missing from current run")
                continue
            b, c = float(base[metric]), float(cur[metric])
            if b <= 0:
                continue
            ratio = c / b
            status = "ok"
            if ratio < 1.0 - threshold:
                status = "REGRESSION"
                failures.append(
                    f"{name} {key} {metric}: {b:.2f} -> {c:.2f} "
                    f"({(1 - ratio) * 100:.1f}% slower, limit {threshold * 100:.0f}%)"
                )
            lines.append(f"  {name:<18} {key[1]:<44} {metric:<22} "
                         f"{b:9.2f} -> {c:9.2f}  {status}")
        samples = min(int(base.get("requests", 0)), int(cur.get("requests", 0)))
        for metric in latency_keys(base):
            if metric not in cur:
                failures.append(f"{name} {key} {metric}: missing from current run")
                continue
            if samples < LATENCY_MIN_SAMPLES:
                lines.append(f"  {name:<18} {key[1]:<44} {metric:<22} "
                             f"not gated (p99 over {samples} samples)")
                continue
            b, c = float(base[metric]), float(cur[metric])
            if b <= 0:
                continue
            ratio = c / b
            status = "ok"
            if ratio > LATENCY_RATIO_LIMIT and c - b > LATENCY_ABS_FLOOR_US:
                status = "REGRESSION"
                failures.append(
                    f"{name} {key} {metric}: {b:.2f}us -> {c:.2f}us "
                    f"({ratio:.1f}x worse, limit {LATENCY_RATIO_LIMIT:.0f}x)"
                )
            lines.append(f"  {name:<18} {key[1]:<44} {metric:<22} "
                         f"{b:9.2f} -> {c:9.2f}  {status}")
        for metric in DELAY_KEYS:
            if metric not in base or metric not in cur:
                continue
            b, c = float(base[metric]), float(cur[metric])
            if b <= 0:
                continue
            ratio = c / b
            status = "ok"
            if ratio > 1.0 + threshold and c - b > DELAY_ABS_FLOOR_US:
                status = "REGRESSION"
                failures.append(
                    f"{name} {key} {metric}: {b:.2f}us -> {c:.2f}us "
                    f"({(ratio - 1) * 100:.1f}% worse, limit {threshold * 100:.0f}%)"
                )
            lines.append(f"  {name:<18} {key[1]:<44} {metric:<22} "
                         f"{b:9.2f} -> {c:9.2f}  {status}")
    return failures, lines


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", default="bench/baselines",
                    help="directory with committed BENCH_*.json snapshots")
    ap.add_argument("--current", default="build",
                    help="directory with freshly generated BENCH_*.json")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="allowed relative regression (default 0.15)")
    ap.add_argument("--bench", action="append", default=None,
                    help="bench name(s) to gate (default: every baseline)")
    args = ap.parse_args()

    names = args.bench
    if not names:
        names = [f[len("BENCH_"):-len(".json")]
                 for f in sorted(os.listdir(args.baseline))
                 if f.startswith("BENCH_") and f.endswith(".json")]
    if not names:
        print(f"no baselines under {args.baseline}", file=sys.stderr)
        return 1

    all_failures = []
    print(f"bench gate: threshold {args.threshold * 100:.0f}%, "
          f"baselines from {args.baseline}")
    for name in names:
        base_path = os.path.join(args.baseline, f"BENCH_{name}.json")
        cur_path = os.path.join(args.current, f"BENCH_{name}.json")
        if not os.path.exists(base_path):
            all_failures.append(f"{name}: no baseline at {base_path}")
            continue
        if not os.path.exists(cur_path):
            all_failures.append(f"{name}: no current report at {cur_path}")
            continue
        failures, lines = compare_bench(name, load(base_path), load(cur_path),
                                        args.threshold)
        print("\n".join(lines))
        all_failures.extend(failures)

    if all_failures:
        print("\nFAIL: perf gate", file=sys.stderr)
        for f in all_failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nPASS: no gated metric regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
