#!/usr/bin/env python3
"""Perf-regression gate over the committed bench baselines.

Compares bench_results/*.csv produced by the current build against the
checked-in baselines in bench_results/baselines/*.csv and fails when

  - a throughput metric (wall qps, achieved qps, qps per dollar) drops by
    more than its tolerance, or
  - a modeled-cost metric (modeled/kernel/interconnect ms, $/hr) rises by
    more than its tolerance.

Wall-clock throughput gets a wide 25% band (shared CI runners are noisy);
modeled costs come off the deterministic simulator and get tight bands.

A before/after table is appended to $GITHUB_STEP_SUMMARY when set (plain
stdout otherwise). Refresh the baselines after an intentional perf change
with:

    python3 ci/bench_gate.py --refresh   # then commit bench_results/baselines
"""

import argparse
import csv
import os
import shutil
import sys

RESULTS_DIR = "bench_results"
BASELINE_DIR = os.path.join(RESULTS_DIR, "baselines")

# Per-file gate config. `key`: columns identifying a row (an occurrence
# counter is appended, so duplicate keys still pair up). `metrics`: column ->
# (direction, relative tolerance[, always_ok]); "lower" fails when value <
# base*(1-tol), "upper" fails when value > base*(1+tol). The optional third
# element is an absolute value at which the metric always passes regardless
# of the relative band — used for tail latencies, where the baseline can
# land on a lucky run but any value under the SLA is fine. `rows`: predicate
# choosing which rows participate.
GATES = {
    "serve_throughput.csv": {
        "key": ["mode", "backend", "device", "shards", "batch", "devices"],
        "rows": lambda r: r["mode"] in ("direct", "batcher", "multidev", "fleet"),
        "metrics": {
            "qps": ("lower", 0.25),
            "modeled_ms": ("upper", 0.10),
            "kernel_ms": ("upper", 0.10),
            "interconnect_ms": ("upper", 0.10),
            "dollars_per_hr": ("upper", 0.01),
            "qps_per_dollar": ("lower", 0.01),
        },
        # Wall-clock qps only exists for rows that actually ran queries;
        # fleet rows are pure cost-model output, so their qps column is the
        # modeled fleet capacity and far too stable to need the wide band.
        "skip_metric": lambda r, m: (
            (m == "qps" and r["mode"] == "fleet")
            or (m != "qps" and r["mode"] in ("direct", "batcher")
                and r["backend"] == "cpu")
        ),
    },
    "orchestrate_refresh.csv": {
        "key": ["delta_rate_per_s", "cadence_ms", "tier_mode", "cycle"],
        "rows": lambda r: True,
        # delta_to_promote_ms is the point of the incremental tier: the
        # whole snapshot→train→gate→promote cycle must stay far under the
        # full-ALS cycle (~80-110 ms in these cells). The wide relative band
        # absorbs runner noise; the absolute floor means any value under
        # 50 ms passes outright, while an incremental cycle that silently
        # fell back to full-tier cost blows through both. Only rows that
        # ran the incremental tier gate — full and consolidation cycles are
        # the comparison baseline, not the regression surface.
        "metrics": {
            "delta_to_promote_ms": ("upper", 1.00, 50.0),
        },
        "skip_metric": lambda r, m: r["tier"] != "incremental",
    },
    "serve_netload.csv": {
        "key": ["mode", "conns", "offered_qps"],
        "rows": lambda r: True,
        # e2e_p99_ms is the client-measured accept→reply tail through the
        # sharded front-end; it only gates the shaped sweeps (bursty/diurnal
        # run at a fixed offered load, so their tail is comparable across
        # runs). Tail latency on a shared runner is noisy — one scheduler
        # stall mid-burst moves p99 by tens of ms — so the relative band is
        # wide and anything under 75 ms passes outright; a front-end
        # regression at 1k connections (the old rebuild-the-pollfd-vector
        # loop) shows up as hundreds of ms, well past both.
        "metrics": {
            "achieved_qps": ("lower", 0.25),
            "e2e_p99_ms": ("upper", 1.00, 75.0),
        },
        "skip_metric": lambda r, m: (
            # The overload row's "achieved" qps is the shed-dominated drain
            # rate of an unthrottled dump, not a throughput SLO.
            (m == "achieved_qps" and r["mode"] == "overload")
            or (m == "e2e_p99_ms" and r["mode"] not in ("bursty", "diurnal"))
        ),
    },
    # Fig. 7/8 ablations: KernelOptions price only the simulated kernel, so
    # each modeled_s cell comes off the deterministic cost model and may not
    # rise. Wall-clock columns are informational and not gated.
    "figure7_registers.csv": {
        "key": ["dataset", "config", "iteration"],
        "rows": lambda r: True,
        "metrics": {
            "modeled_s": ("upper", 0.01),
        },
        "skip_metric": lambda r, m: False,
    },
    "figure8_texture.csv": {
        "key": ["dataset", "config", "iteration"],
        "rows": lambda r: True,
        "metrics": {
            "modeled_s": ("upper", 0.01),
        },
        "skip_metric": lambda r, m: False,
    },
}


def load_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def keyed(rows, cfg):
    out = {}
    counts = {}
    for row in rows:
        if not cfg["rows"](row):
            continue
        base = tuple(row[c] for c in cfg["key"])
        n = counts.get(base, 0)
        counts[base] = n + 1
        out[base + (n,)] = row
    return out


def refresh():
    os.makedirs(BASELINE_DIR, exist_ok=True)
    copied = []
    for name in GATES:
        src = os.path.join(RESULTS_DIR, name)
        if not os.path.exists(src):
            sys.exit(f"bench_gate: cannot refresh, {src} missing — run the "
                     "Release benches first")
        shutil.copy(src, os.path.join(BASELINE_DIR, name))
        copied.append(name)
    print(f"bench_gate: baselines refreshed ({', '.join(copied)}); "
          f"commit {BASELINE_DIR}/")


def check():
    failures = []
    lines = ["## Bench perf gate", "",
             "| file | row | metric | baseline | current | Δ | limit | ok |",
             "|---|---|---|---|---|---|---|---|"]
    for name, cfg in GATES.items():
        cur_path = os.path.join(RESULTS_DIR, name)
        base_path = os.path.join(BASELINE_DIR, name)
        if not os.path.exists(base_path):
            failures.append(f"{name}: no baseline at {base_path}")
            continue
        if not os.path.exists(cur_path):
            failures.append(f"{name}: bench output missing at {cur_path}")
            continue
        base_rows = keyed(load_rows(base_path), cfg)
        cur_rows = keyed(load_rows(cur_path), cfg)
        for key, base_row in base_rows.items():
            cur_row = cur_rows.get(key)
            label = "/".join(str(k) for k in key[:-1])
            if cur_row is None:
                failures.append(f"{name}: row {label} missing from current "
                                "results")
                continue
            for metric, spec in cfg["metrics"].items():
                direction, tol = spec[0], spec[1]
                always_ok = spec[2] if len(spec) > 2 else None
                if cfg["skip_metric"](base_row, metric):
                    continue
                base_v = float(base_row[metric])
                cur_v = float(cur_row[metric])
                if direction == "lower":
                    limit = base_v * (1.0 - tol)
                    ok = cur_v >= limit
                else:
                    limit = base_v * (1.0 + tol)
                    if always_ok is not None:
                        limit = max(limit, always_ok)
                    ok = cur_v <= limit
                delta = (cur_v / base_v - 1.0) * 100.0 if base_v else 0.0
                lines.append(
                    f"| {name} | {label} | {metric} | {base_v:.4g} "
                    f"| {cur_v:.4g} | {delta:+.1f}% | "
                    f"{'≥' if direction == 'lower' else '≤'} {limit:.4g} "
                    f"| {'✅' if ok else '❌'} |")
                if not ok:
                    failures.append(
                        f"{name}: {label} {metric} {cur_v:.4g} vs baseline "
                        f"{base_v:.4g} ({delta:+.1f}%, tolerance "
                        f"{'-' if direction == 'lower' else '+'}{tol:.0%})")
    if failures:
        lines += ["", "**Failures:**", ""]
        lines += [f"- {f}" for f in failures]
    report = "\n".join(lines) + "\n"
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as f:
            f.write(report)
    print(report)
    if failures:
        print(f"bench_gate: FAILED ({len(failures)} regression(s))",
              file=sys.stderr)
        sys.exit(1)
    print("bench_gate: OK")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--refresh", action="store_true",
                        help="copy current bench CSVs into the baseline "
                             "directory instead of gating")
    args = parser.parse_args()
    if args.refresh:
        refresh()
    else:
        check()


if __name__ == "__main__":
    main()
