#!/usr/bin/env python3
"""Perf smoke: diff a bench JSON run against the committed baseline.

Understands two input shapes:

  - google-benchmark JSON (bench_micro_ops): per-benchmark real_time ns/op;
  - the repo's own json_records artifacts (bench_table2_runtime,
    bench_table5_buffers, ...): ``{"bench", "git_sha", "records": [...]}``.
    Each record's string-valued fields (section, bench, rule, li_shi, ...)
    are joined into the benchmark name, every numeric field ending in
    "seconds" becomes one timing entry, and records flagged aborted are
    skipped -- so the DP hot paths the tables time (per-net 2P/4P solves,
    the Li-Shi b-axis) gate CI exactly like the micro-ops do.

Prints a table of ratios and emits a GitHub Actions `::warning::` annotation
for every benchmark slower than --max-ratio times its baseline. Only names
present in both files can be compared: a benchmark of the current run that
the baseline lacks is reported as an ungated `::warning::` (commit its
baseline entry to gate it), and a baseline benchmark the run lacks as a
missing one; both are counted in the summary line.

With --fail-ratio set, the smoke *gates*: any benchmark slower than
fail-ratio times its baseline emits a `::error::` annotation and the script
exits 1 (CI fails the job). So does a baseline benchmark the run lacks, and
a file with no timing entries at all: a renamed record field or `seconds`
key must not turn the gate off silently. Without --fail-ratio the script
always exits 0 on well-formed input -- the historical warn-only behavior,
where both cases only warn. The two thresholds
compose: warn early at --max-ratio, fail hard at --fail-ratio (set the
fail threshold above the warn one and above the hardware noise floor; the
suite enforces bit-identity, this enforces that the bit-identical code also
stays fast).

Usage:
  perf_smoke_diff.py CURRENT.json [--baseline bench/baselines/...json]
                     [--max-ratio 1.5] [--fail-ratio 2.0]
"""

import argparse
import json
import sys


def load_times(path):
    """name -> time in ns for every benchmark entry in either format."""
    with open(path) as f:
        doc = json.load(f)
    times = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
        if scale is None or "real_time" not in b:
            continue
        times[b["name"]] = b["real_time"] * scale
    # Numeric fields that identify a sweep point rather than measure it;
    # they join the name so e.g. b=8 and b=64 records stay distinct.
    axis_keys = ("b", "job", "threads")
    for r in doc.get("records", []):
        if r.get("aborted"):
            continue
        parts = [
            v for k, v in r.items() if isinstance(v, str) and k != "detail"
        ]
        parts += [
            f"{k}{r[k]:g}" for k in axis_keys if isinstance(r.get(k), (int, float))
        ]
        name = ":".join(parts)
        for key, value in r.items():
            if not key.endswith("seconds"):
                continue
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            times[f"{name}/{key}"] = value * 1e9
    return times


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("current")
    ap.add_argument(
        "--baseline", default="bench/baselines/BENCH_micro_ops_baseline.json"
    )
    ap.add_argument(
        "--max-ratio",
        type=float,
        default=1.5,
        help="warn when current/baseline exceeds this",
    )
    ap.add_argument(
        "--fail-ratio",
        type=float,
        default=None,
        help="exit 1 when current/baseline exceeds this (default: warn only)",
    )
    args = ap.parse_args()
    if args.fail_ratio is not None and args.fail_ratio < args.max_ratio:
        print(f"::error::perf smoke: --fail-ratio {args.fail_ratio} below "
              f"--max-ratio {args.max_ratio}")
        return 2

    gating = args.fail_ratio is not None
    level = "error" if gating else "warning"
    base = load_times(args.baseline)
    cur = load_times(args.current)
    if not base or not cur:
        print(f"::{level}::perf smoke: empty benchmark set "
              f"(baseline={len(base)}, current={len(cur)}) -- nothing to "
              f"compare")
        return 1 if gating else 0

    shared = sorted(set(base) & set(cur))
    missing = sorted(set(base) - set(cur))
    ungated = sorted(set(cur) - set(base))
    slow = []
    failed = []
    width = max((len(n) for n in shared), default=10)
    print(f"{'benchmark':<{width}}  {'base ns':>10}  {'cur ns':>10}  ratio")
    for name in shared:
        ratio = cur[name] / base[name] if base[name] > 0 else float("inf")
        flag = "  <-- slow" if ratio > args.max_ratio else ""
        print(f"{name:<{width}}  {base[name]:>10.1f}  {cur[name]:>10.1f}  "
              f"{ratio:>5.2f}{flag}")
        if gating and ratio > args.fail_ratio:
            failed.append((name, ratio))
        elif ratio > args.max_ratio:
            slow.append((name, ratio))

    for name, ratio in slow:
        print(f"::warning::perf smoke: {name} is {ratio:.2f}x its baseline "
              f"(limit {args.max_ratio}x)")
    for name, ratio in failed:
        print(f"::error::perf smoke: {name} is {ratio:.2f}x its baseline "
              f"(fail limit {args.fail_ratio}x)")
    for name in missing:
        print(f"::{level}::perf smoke: baseline benchmark {name} missing "
              f"from current run")
    for name in ungated:
        print(f"::warning::perf smoke: {name} has no baseline entry "
              f"(ungated)")
    print(f"perf smoke: {len(shared)} compared, {len(slow)} above "
          f"{args.max_ratio}x, {len(failed)} above fail limit, "
          f"{len(missing)} missing, {len(ungated)} ungated")
    return 1 if failed or (gating and missing) else 0


if __name__ == "__main__":
    sys.exit(main())
