#!/usr/bin/env python3
"""benchgate.py — unified bench runner and perf-regression gate.

Runs every bench binary N times with ``--json``, aggregates each metric
across repeats (median / p10 / p90 / relative standard deviation),
re-runs benches whose wall-clock RSD exceeds the noise threshold, and
writes one consolidated report (default ``BENCH_local.tmp.json`` at the
repo root, gitignored; pass ``--out BENCH_PR<n>.json`` to write a
snapshot meant for committing).  The gate then compares wall-clock
medians against the newest committed ``BENCH_*.json`` baseline and
exits non-zero when any bench slowed down by more than ``--threshold``
(fractional, default 0.10 = 10%).  A missing or
unreadable baseline is a clear diagnostic and exit 2 — never a stack
trace — unless ``--update-baseline`` says this run *establishes* the
baseline.

Beyond wall clock, the gate also enforces *counter budgets*: metrics in
``COUNTER_GATES`` (the profiler's ``dsp.allocs_per_burst`` and
``dsp.bytes_per_burst``) compare median-to-median with their own — by
default zero — tolerance, so a change that starts allocating on the
per-burst hot path fails even when the wall clock hides it in noise.
Add or relax budgets per run with ``--counter-gate NAME[:FRAC]``.

``--trend`` walks every committed ``BENCH_*.json`` oldest-to-newest and
prints the wall-clock and gated-counter trajectory as a table (the
worked example lives in EXPERIMENTS.md).

Usage:
  tools/benchgate.py [--build-dir build] [--profile smoke|full]
                     [--repeats 3] [--threshold 0.10] [--out FILE]
                     [--baseline FILE] [--filter REGEX]
                     [--counter-gate NAME[:FRAC]] [--trend]
                     [--update-baseline] [--compare-only] [--selftest]

Exit codes: 0 ok / regression blessed, 1 regression or runner failure,
2 usage error (including no usable baseline without --update-baseline).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import statistics
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMA_VERSION = 1
# Scratch reports end in .tmp.json: gitignored, and never taken as a
# baseline, so a bare run cannot overwrite a committed snapshot.
DEFAULT_OUT = REPO_ROOT / "BENCH_local.tmp.json"

# Per-bench manifest: binary name (under <build>/bench/), plus the argv
# tail for the smoke and full profiles.  Google-benchmark binaries take
# --benchmark_min_time (a plain double for the vendored gbench).
MANIFEST = [
    # name                  smoke args            full args
    ("fig04_collision_spectrum", [], []),
    ("eq7_counting_probability", ["2000"], ["200000"]),
    ("fig08_decoding_averaging", [], []),
    ("fig11_counting_accuracy", ["3"], ["120"]),
    ("fig12_traffic_monitoring", [], []),
    ("fig13_localization_accuracy", ["1"], ["30"]),
    ("fig14_multipath_profile", ["1"], ["100"]),
    ("fig15_speed_accuracy", ["1"], ["10"]),
    ("fig16_identification_time", ["1"], ["10"]),
    ("power_budget", [], []),
    ("mac_csma_ablation", [], []),
    ("decoder_ablation", ["2"], ["10"]),
    ("backend_ingest_durable", ["500"], ["5000"]),
    ("fleet_scrape", ["16", "10"], ["64", "50"]),
    ("expo_serve", ["256", "16"], ["1000", "32"]),
    ("dsp_micro", ["--benchmark_min_time=0.01"], ["--benchmark_min_time=0.1"]),
    ("sfft_vs_fft", ["--benchmark_min_time=0.01"], ["--benchmark_min_time=0.1"]),
]

GATED_METRIC = "bench.wall_seconds"

# Counter budgets: metric -> max fractional increase vs baseline. The
# per-burst allocation figures come from the hot-path profiler's counting
# operator-new hooks (src/obs/prof_alloc.cpp); zero tolerance means the
# decode pipeline may never gain a heap allocation per burst.
COUNTER_GATES = {
    "dsp.allocs_per_burst": 0.0,
    "dsp.bytes_per_burst": 0.0,
}

# Absolute slack for zero-tolerance gates so float jitter in a genuinely
# unchanged metric (e.g. 108.0 vs 108.00000001) never trips them.
COUNTER_EPSILON = 1e-9


def flatten_report(report):
    """Flatten one bench --json report into {metric_name: value}.

    Pulls the bench-results registry (gauges + counters), the process
    registry prefixed with ``proc:``, and the span-latency quantiles as
    ``q:<hist>:<p>``.
    """
    metrics = {}
    bench = report.get("bench", {})
    for kind in ("gauges", "counters"):
        for name, value in bench.get(kind, {}).items():
            metrics[name] = float(value)
    proc = report.get("process", {})
    for kind in ("gauges", "counters"):
        for name, value in proc.get(kind, {}).items():
            metrics["proc:" + name] = float(value)
    for hist, quants in report.get("quantiles", {}).items():
        for p, value in quants.items():
            metrics["q:" + hist + ":" + p] = float(value)
    return metrics


def aggregate(samples):
    """Median / p10 / p90 / RSD over one metric's repeat samples."""
    xs = sorted(samples)
    n = len(xs)

    def pct(q):
        if n == 1:
            return xs[0]
        rank = q / 100.0 * (n - 1)
        lo = int(rank)
        hi = min(lo + 1, n - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)

    mean = statistics.fmean(xs)
    sd = statistics.stdev(xs) if n > 1 else 0.0
    return {
        "median": pct(50),
        "p10": pct(10),
        "p90": pct(90),
        "rsd": sd / mean if mean != 0 else 0.0,
        "n": n,
    }


def run_bench(build_dir, name, args, repeats, noise_rsd, max_extra, echo=print):
    """Run one bench ``repeats`` times (plus noise re-runs); aggregate."""
    binary = build_dir / "bench" / ("bench_" + name)
    if not binary.exists():
        raise RuntimeError(f"missing bench binary: {binary}")
    samples = {}  # metric -> [value per run]
    runs_done = 0
    while True:
        with tempfile.NamedTemporaryFile(
            suffix=".json", prefix="benchgate.", delete=False
        ) as tmp:
            tmp_path = pathlib.Path(tmp.name)
        try:
            proc = subprocess.run(
                [str(binary), *args, "--json", str(tmp_path)],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=1800,
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"{binary.name} exited {proc.returncode}: "
                    + proc.stderr.decode(errors="replace")[-400:]
                )
            report = json.loads(tmp_path.read_text())
        finally:
            tmp_path.unlink(missing_ok=True)
        for metric, value in flatten_report(report).items():
            samples.setdefault(metric, []).append(value)
        runs_done += 1
        if runs_done < repeats:
            continue
        wall = samples.get(GATED_METRIC, [0.0])
        noisy = aggregate(wall)["rsd"] > noise_rsd
        if noisy and runs_done < repeats + max_extra:
            echo(f"    {name}: wall RSD {aggregate(wall)['rsd']:.2f} > "
                 f"{noise_rsd:.2f}, re-running ({runs_done + 1})")
            continue
        break
    return {metric: aggregate(vals) for metric, vals in samples.items()}


def find_baseline(out_path, explicit):
    """Newest BENCH_*.json at the repo root other than the output file."""
    if explicit is not None:
        return explicit if explicit.exists() else None
    candidates = [
        p
        for p in sorted(REPO_ROOT.glob("BENCH_*.json"))
        if p.resolve() != out_path.resolve()
        and not p.name.endswith(".tmp.json")  # scratch outputs, not baselines
    ]
    if not candidates:
        return None
    return max(candidates, key=baseline_rank)


def pr_number(path):
    """The n of BENCH_PR<n>.json, or -1 for any other name.

    Snapshots are ordered by it, not by name: BENCH_PR13 is newer than
    BENCH_PR9, which plain string order gets wrong.
    """
    match = re.fullmatch(r"BENCH_PR(\d+)\.json", path.name)
    return int(match.group(1)) if match else -1


def baseline_rank(path):
    """Sort key for baselines: mtime, then PR number (fresh checkouts
    stamp every file alike), then name."""
    return (path.stat().st_mtime, pr_number(path), path.name)


def compare(current, baseline, threshold, echo=print):
    """Gate current vs baseline on wall-clock medians. Returns regressions."""
    regressions = []
    if baseline.get("profile") != current.get("profile"):
        echo(
            f"  baseline profile {baseline.get('profile')!r} != current "
            f"{current.get('profile')!r}; skipping gate (warn only)"
        )
        return regressions
    base_benches = baseline.get("benches", {})
    for name, data in current.get("benches", {}).items():
        base = base_benches.get(name)
        if base is None:
            echo(f"  {name}: new bench (no baseline entry)")
            continue
        cur_wall = data.get("metrics", {}).get(GATED_METRIC, {}).get("median")
        old_wall = base.get("metrics", {}).get(GATED_METRIC, {}).get("median")
        if cur_wall is None or old_wall is None or old_wall <= 0:
            continue
        ratio = cur_wall / old_wall
        tag = "ok"
        if ratio > 1.0 + threshold:
            tag = "REGRESSION"
            regressions.append((name, old_wall, cur_wall, ratio))
        elif ratio < 1.0 - threshold:
            tag = "improved"
        echo(
            f"  {name}: wall {old_wall:.3f}s -> {cur_wall:.3f}s "
            f"({(ratio - 1.0) * 100:+.1f}%) {tag}"
        )
    return regressions


def gate_counters(current, baseline, gates, echo=print):
    """Enforce counter budgets metric-by-metric. Returns violations.

    A violation is ``(bench, metric, old, cur)``. Benches or metrics
    absent on either side are skipped (a bench that never recorded a
    profiled burst has nothing to budget).
    """
    violations = []
    base_benches = baseline.get("benches", {})
    for name, data in current.get("benches", {}).items():
        base = base_benches.get(name)
        if base is None:
            continue
        for metric, tolerance in sorted(gates.items()):
            cur = data.get("metrics", {}).get(metric, {}).get("median")
            old = base.get("metrics", {}).get(metric, {}).get("median")
            if cur is None or old is None:
                continue
            limit = old * (1.0 + tolerance) + COUNTER_EPSILON
            if cur > limit:
                violations.append((name, metric, old, cur))
                echo(f"  {name}: {metric} {old:.1f} -> {cur:.1f} "
                     f"BUDGET EXCEEDED (max +{tolerance * 100:.0f}%)")
            else:
                echo(f"  {name}: {metric} {old:.1f} -> {cur:.1f} ok")
    return violations


def trend(echo=print):
    """Print the wall-clock + gated-counter trajectory across baselines."""
    reports = []
    for path in sorted(REPO_ROOT.glob("BENCH_*.json"),
                       key=lambda p: (pr_number(p), p.name)):
        if path.name.endswith(".tmp.json"):
            continue
        try:
            reports.append((path.name, json.loads(path.read_text())))
        except (OSError, ValueError) as err:
            echo(f"  skipping unreadable {path.name}: {err}")
    if not reports:
        echo("no BENCH_*.json baselines found")
        return 1

    bench_names = sorted(
        {b for _, rep in reports for b in rep.get("benches", {})}
    )

    def cell(rep, bench, metric):
        value = (rep.get("benches", {}).get(bench, {}).get("metrics", {})
                 .get(metric, {}).get("median"))
        return "-" if value is None else f"{value:.3f}"

    header = ["bench"] + [name for name, _ in reports]
    echo("wall-clock medians (seconds):")
    echo("  " + " | ".join(header))
    echo("  " + " | ".join("---" for _ in header))
    for bench in bench_names:
        row = [bench] + [cell(rep, bench, GATED_METRIC) for _, rep in reports]
        echo("  " + " | ".join(row))

    for metric in sorted(COUNTER_GATES):
        rows = [
            bench for bench in bench_names
            if any(cell(rep, bench, metric) != "-" for _, rep in reports)
        ]
        if not rows:
            continue
        echo(f"\n{metric} medians:")
        echo("  " + " | ".join(header))
        echo("  " + " | ".join("---" for _ in header))
        for bench in rows:
            row = [bench] + [cell(rep, bench, metric) for _, rep in reports]
            echo("  " + " | ".join(row))
    return 0


def selftest():
    """Exercise the stats + gate math on canned data, no binaries needed."""
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    agg = aggregate([3.0, 1.0, 2.0])
    check(agg["median"] == 2.0, "median of 1,2,3")
    check(agg["p10"] == 1.2 and abs(agg["p90"] - 2.8) < 1e-12, "p10/p90 interp")
    check(agg["n"] == 3, "sample count")
    check(abs(agg["rsd"] - 0.5) < 1e-12, "rsd = stdev/mean = 1/2")
    single = aggregate([4.0])
    check(
        single["median"] == single["p10"] == single["p90"] == 4.0
        and single["rsd"] == 0.0,
        "single-sample aggregate",
    )

    flat = flatten_report(
        {
            "bench": {"gauges": {"bench.wall_seconds": 1.5}, "counters": {"c": 2}},
            "process": {"gauges": {"g": 7}, "counters": {}},
            "quantiles": {"daemon.window_sec": {"p50": 0.1}},
        }
    )
    check(flat["bench.wall_seconds"] == 1.5, "flatten bench gauge")
    check(flat["c"] == 2.0, "flatten bench counter")
    check(flat["proc:g"] == 7.0, "flatten process gauge prefixed")
    check(flat["q:daemon.window_sec:p50"] == 0.1, "flatten quantile")

    def report_with_wall(wall):
        return {
            "schema": SCHEMA_VERSION,
            "profile": "smoke",
            "benches": {
                "fig11": {"metrics": {GATED_METRIC: {"median": wall}}},
                "fig12": {"metrics": {GATED_METRIC: {"median": 1.0}}},
            },
        }

    sink = lambda *_: None
    # 20% slower than baseline must trip a 10% gate.
    regs = compare(report_with_wall(1.2), report_with_wall(1.0), 0.10, sink)
    check(
        len(regs) == 1 and regs[0][0] == "fig11",
        "20% slowdown trips the 10% gate",
    )
    # 5% slower must pass.
    check(
        compare(report_with_wall(1.05), report_with_wall(1.0), 0.10, sink) == [],
        "5% slowdown passes the 10% gate",
    )
    # Profile mismatch warns and skips.
    mismatched = report_with_wall(1.0)
    mismatched["profile"] = "full"
    check(
        compare(report_with_wall(5.0), mismatched, 0.10, sink) == [],
        "profile mismatch skips the gate",
    )

    # Counter budgets: a doctored alloc regression must trip the
    # zero-tolerance gate even with an unchanged wall clock.
    def report_with_allocs(allocs, bytes_=4096.0):
        return {
            "schema": SCHEMA_VERSION,
            "profile": "smoke",
            "benches": {
                "decoder_ablation": {
                    "metrics": {
                        GATED_METRIC: {"median": 1.0},
                        "dsp.allocs_per_burst": {"median": allocs},
                        "dsp.bytes_per_burst": {"median": bytes_},
                    }
                },
            },
        }

    doctored = gate_counters(
        report_with_allocs(109.0), report_with_allocs(108.0),
        COUNTER_GATES, sink,
    )
    check(
        len(doctored) == 1 and doctored[0][1] == "dsp.allocs_per_burst",
        "one extra alloc per burst trips the zero-tolerance gate",
    )
    check(
        gate_counters(report_with_allocs(108.0), report_with_allocs(108.0),
                      COUNTER_GATES, sink) == [],
        "unchanged allocs pass",
    )
    check(
        gate_counters(report_with_allocs(108.0 + 1e-12),
                      report_with_allocs(108.0), COUNTER_GATES, sink) == [],
        "float jitter below epsilon passes",
    )
    check(
        gate_counters(report_with_allocs(108.0, bytes_=5000.0),
                      report_with_allocs(108.0, bytes_=4096.0),
                      {"dsp.bytes_per_burst": 0.25}, sink) == [],
        "relaxed fractional tolerance admits a bounded increase",
    )
    check(
        gate_counters(report_with_wall(1.0), report_with_allocs(108.0),
                      COUNTER_GATES, sink) == [],
        "benches without the metric are skipped",
    )

    # Missing-baseline contract, end to end through main(): a clear exit-2
    # diagnostic, never a stack trace — unless --update-baseline blesses
    # this run as the first baseline.
    with tempfile.TemporaryDirectory() as tmp:
        report_path = pathlib.Path(tmp) / "BENCH_SELFTEST.json"
        report_path.write_text(json.dumps(report_with_wall(1.0)))
        missing = pathlib.Path(tmp) / "BENCH_NOPE.json"
        base = ["--compare-only", "--out", str(report_path)]
        check(
            main(base + ["--baseline", str(missing)]) == 2,
            "missing baseline is a usage error",
        )
        check(
            main(base + ["--baseline", str(missing), "--update-baseline"]) == 0,
            "--update-baseline establishes the first baseline",
        )
        corrupt = pathlib.Path(tmp) / "BENCH_CORRUPT.json"
        corrupt.write_text("{not json")
        check(
            main(base + ["--baseline", str(corrupt)]) == 2,
            "corrupt baseline is a usage error, not a stack trace",
        )

        # End to end: an alloc regression alone fails the run with exit 1.
        cur_path = pathlib.Path(tmp) / "BENCH_ALLOCS.json"
        cur_path.write_text(json.dumps(report_with_allocs(109.0)))
        base_path = pathlib.Path(tmp) / "BENCH_BASEALLOC.json"
        base_path.write_text(json.dumps(report_with_allocs(108.0)))
        alloc_args = ["--compare-only", "--out", str(cur_path),
                      "--baseline", str(base_path)]
        check(
            main(alloc_args) == 1,
            "alloc regression fails the gate end to end",
        )
        check(
            main(alloc_args + ["--counter-gate",
                               "dsp.allocs_per_burst:0.05"]) == 0,
            "--counter-gate relaxation admits the same delta",
        )
        check(
            main(alloc_args + ["--counter-gate", "bogus:x"]) == 2,
            "malformed --counter-gate is a usage error",
        )

    # Equal mtimes (a fresh checkout): the highest PR number wins.
    with tempfile.TemporaryDirectory() as tmp:
        stamped = []
        for name in ("BENCH_PR9.json", "BENCH_PR13.json", "BENCH_PR10.json"):
            path = pathlib.Path(tmp) / name
            path.write_text("{}")
            os.utime(path, (1_000_000_000, 1_000_000_000))
            stamped.append(path)
        check(
            max(stamped, key=baseline_rank).name == "BENCH_PR13.json",
            "equal mtimes rank BENCH_PR13 above BENCH_PR9",
        )

    # A bare run writes a scratch report: never a committed BENCH_*.json,
    # and never a file find_baseline() could later take as the baseline.
    default_out = build_parser().parse_args([]).out
    committed = {
        p.resolve() for p in REPO_ROOT.glob("BENCH_*.json")
        if not p.name.endswith(".tmp.json")
    }
    check(
        default_out.name.endswith(".tmp.json")
        and default_out.resolve() not in committed,
        "default --out is a gitignored scratch report, not a baseline",
    )

    if failures:
        for f in failures:
            print("selftest FAIL:", f)
        return 1
    print("benchgate selftest ok (%d checks)" % 25)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", type=pathlib.Path,
                        default=REPO_ROOT / "build")
    parser.add_argument("--profile", choices=("smoke", "full"), default="smoke")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="fractional wall-clock slowdown that fails the "
                             "gate (default 0.10)")
    parser.add_argument("--noise-rsd", type=float, default=0.15,
                        help="wall-clock RSD above which a bench is re-run")
    parser.add_argument("--max-extra-runs", type=int, default=2)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--baseline", type=pathlib.Path, default=None,
                        help="explicit baseline file (default: newest other "
                             "BENCH_*.json at the repo root)")
    parser.add_argument("--filter", default=None,
                        help="regex; only run matching bench names")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write the report and exit 0 even on regression")
    parser.add_argument("--compare-only", action="store_true",
                        help="skip running; compare --out against baseline")
    parser.add_argument("--counter-gate", action="append", default=[],
                        metavar="NAME[:FRAC]",
                        help="add or override a counter budget (fractional "
                             "tolerance, default 0 = may never increase)")
    parser.add_argument("--trend", action="store_true",
                        help="print the trajectory across all committed "
                             "BENCH_*.json baselines and exit")
    parser.add_argument("--selftest", action="store_true")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)

    if args.selftest:
        return selftest()
    if args.trend:
        return trend()

    counter_gates = dict(COUNTER_GATES)
    for spec in args.counter_gate:
        name, _, frac = spec.partition(":")
        try:
            counter_gates[name] = float(frac) if frac else 0.0
        except ValueError:
            print(f"benchgate: bad --counter-gate {spec!r}", file=sys.stderr)
            return 2

    if not args.compare_only:
        name_re = re.compile(args.filter) if args.filter else None
        benches = {}
        started = time.time()
        for name, smoke_args, full_args in MANIFEST:
            if name_re is not None and not name_re.search(name):
                continue
            argv_tail = smoke_args if args.profile == "smoke" else full_args
            print(f"  running {name} x{args.repeats} ({args.profile})")
            try:
                metrics = run_bench(
                    args.build_dir, name, argv_tail, args.repeats,
                    args.noise_rsd, args.max_extra_runs,
                )
            except (RuntimeError, subprocess.TimeoutExpired,
                    json.JSONDecodeError) as err:
                print(f"benchgate: {name} failed: {err}", file=sys.stderr)
                return 1
            benches[name] = {"args": argv_tail, "metrics": metrics}
        report = {
            "schema": SCHEMA_VERSION,
            "profile": args.profile,
            "repeats": args.repeats,
            "elapsed_sec": round(time.time() - started, 3),
            "benches": benches,
        }
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out} ({len(benches)} benches)")
    else:
        if not args.out.exists():
            print(f"benchgate: --compare-only but {args.out} missing",
                  file=sys.stderr)
            return 2
        report = json.loads(args.out.read_text())

    baseline_path = find_baseline(args.out, args.baseline)
    if baseline_path is None:
        if args.update_baseline:
            print(f"no baseline BENCH_*.json found; "
                  f"{args.out.name} establishes the baseline")
            return 0
        where = (f"--baseline {args.baseline}" if args.baseline is not None
                 else f"BENCH_*.json at {REPO_ROOT}")
        print(f"benchgate: no baseline found ({where}).\n"
              "  Pass --update-baseline to establish this run as the first\n"
              "  baseline, or --baseline FILE to compare against an explicit "
              "report.", file=sys.stderr)
        return 2
    print(f"comparing against baseline {baseline_path.name} "
          f"(threshold {args.threshold * 100:.0f}%)")
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, ValueError) as err:
        print(f"benchgate: baseline {baseline_path} is unreadable: {err}\n"
              "  Re-bless with --update-baseline or point --baseline at a "
              "valid report.", file=sys.stderr)
        return 2
    regressions = compare(report, baseline, args.threshold)
    violations = gate_counters(report, baseline, counter_gates)
    failed = bool(regressions) or bool(violations)
    if failed and not args.update_baseline:
        if regressions:
            print(f"benchgate: {len(regressions)} wall-clock regression(s) "
                  f"beyond {args.threshold * 100:.0f}%", file=sys.stderr)
        if violations:
            print(f"benchgate: {len(violations)} counter budget "
                  f"violation(s)", file=sys.stderr)
        return 1
    if failed:
        print("regressions present but --update-baseline given; blessing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
