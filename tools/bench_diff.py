#!/usr/bin/env python3
"""Diff two BENCH_PERF.json snapshots produced by bench/perf_suite.

Compares the benchmark throughput rates (``*_per_sec``) and the metrics
counters of a *before* and an *after* snapshot, prints a delta table, and
exits non-zero when any benchmark regressed by more than the allowed
threshold — which is what lets CI run it as a perf-smoke gate:

    build/bench/perf_suite BEFORE.json
    ... apply change, rebuild ...
    build/bench/perf_suite AFTER.json
    tools/bench_diff.py BEFORE.json AFTER.json --max-regression 20

``--require-speedup NAME:FACTOR`` additionally fails unless the named
benchmark got at least FACTOR times faster — used to assert headline
improvements (e.g. ``--require-speedup allocate_steady:2.0``).

``--require-zero NAME:METRIC`` fails unless benchmark NAME in the *after*
snapshot carries METRIC with the exact value 0 — used to gate hard
correctness properties that a bench reports as a counter, e.g.
``--require-zero fault_drill_switchover:steady_outage_rate`` (survivable
placements must ride out a backup-covered single failure with zero
steady-epoch outage).

The allocs_per_call field, when present on both sides, is a hard gate:
any increase fails regardless of the threshold (the zero-allocation
steady state is a correctness property, not a throughput number).

Latency histograms (every ``metrics.histograms`` entry whose name ends in
``_latency_us``) are diffed at p50/p99 for the eye — informational only,
never a failure condition: tail latency at bench scale is too noisy to
gate on, and adding a gate here would change the tool's exit-code
contract.

``--list`` prints the benchmark and latency-histogram names a snapshot
carries (useful for picking --require-speedup targets) and exits 0.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def rate_of(bench):
    """The benchmark's throughput field (whatever key ends in _per_sec)."""
    for key, value in bench.items():
        if key.endswith("_per_sec"):
            return key, value
    return None, None


def fmt_rate(value):
    return f"{value:,.0f}" if value is not None else "-"


def latency_histograms(snapshot):
    """name -> histogram dict for the *_latency_us metrics histograms."""
    histograms = snapshot.get("metrics", {}).get("histograms", {})
    return {
        name: h
        for name, h in histograms.items()
        if name.endswith("_latency_us")
    }


def list_snapshot(path, snapshot):
    print(f"{path}:")
    benches = snapshot.get("benchmarks", [])
    for bench in benches:
        key, rate = rate_of(bench)
        rate_note = f"  {key}={fmt_rate(rate)}" if key else ""
        print(f"  bench      {bench['name']}{rate_note}")
    for name, h in sorted(latency_histograms(snapshot).items()):
        print(
            f"  histogram  {name}  count={h.get('count', 0)}  "
            f"p50={h.get('p50', 0):.1f}us  p99={h.get('p99', 0):.1f}us"
        )
    if not benches:
        print("  (no benchmarks)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", help="baseline BENCH_PERF.json")
    parser.add_argument(
        "after",
        nargs="?",
        help="candidate BENCH_PERF.json (optional with --list)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=10.0,
        metavar="PCT",
        help="fail if any benchmark slows down by more than PCT%% "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--require-speedup",
        action="append",
        default=[],
        metavar="NAME:FACTOR",
        help="fail unless benchmark NAME is at least FACTOR times faster",
    )
    parser.add_argument(
        "--require-zero",
        action="append",
        default=[],
        metavar="NAME:METRIC",
        help="fail unless benchmark NAME's METRIC is exactly 0 in the "
        "after snapshot",
    )
    parser.add_argument(
        "--show-metrics",
        action="store_true",
        help="also print the counter diff (always checked for allocs)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the benchmarks and latency histograms in the snapshot(s) "
        "and exit",
    )
    args = parser.parse_args()

    if args.list:
        list_snapshot(args.before, load(args.before))
        if args.after:
            list_snapshot(args.after, load(args.after))
        return 0
    if args.after is None:
        parser.error("after snapshot is required unless --list is given")

    before = load(args.before)
    after = load(args.after)
    before_benches = {b["name"]: b for b in before.get("benchmarks", [])}
    after_benches = {b["name"]: b for b in after.get("benchmarks", [])}

    # Snapshots are only apples-to-apples when they measured the same
    # scenario configuration (fabric, workload, seed, epsilon).  A config
    # hash mismatch is a warning, not a failure, for the same reason as
    # the host-shape mismatch below.
    b_scn = before.get("scenario")
    a_scn = after.get("scenario")
    if (
        b_scn
        and a_scn
        and b_scn.get("config_hash") != a_scn.get("config_hash")
    ):
        print(
            "WARNING: scenario config differs between snapshots "
            f"(before: {b_scn.get('name', '?')}"
            f"@{b_scn.get('config_hash', '?')}, "
            f"after: {a_scn.get('name', '?')}"
            f"@{a_scn.get('config_hash', '?')}); "
            "deltas may reflect the workload, not the change",
            file=sys.stderr,
        )

    # Thread-scaling numbers (the sweep and admission speedups) are only
    # comparable between hosts of the same shape (cpus, NUMA nodes).  A
    # shape mismatch is a warning, not a failure: diffing across hosts is
    # sometimes exactly what the user wants to do.
    b_topo = before.get("topology")
    a_topo = after.get("topology")
    if b_topo and a_topo and b_topo != a_topo:
        print(
            "WARNING: topology differs between snapshots "
            f"(before: {b_topo.get('summary', '?')}, "
            f"after: {a_topo.get('summary', '?')}); "
            "thread-scaling deltas may reflect the hardware, "
            "not the change",
            file=sys.stderr,
        )

    required = {}
    for spec in args.require_speedup:
        name, _, factor = spec.partition(":")
        if not factor:
            parser.error(f"--require-speedup needs NAME:FACTOR, got {spec!r}")
        required[name] = float(factor)

    failures = []
    rows = []
    for name in before_benches.keys() | after_benches.keys():
        b = before_benches.get(name)
        a = after_benches.get(name)
        if b is None or a is None:
            rows.append((name, rate_of(b or {})[1], rate_of(a or {})[1], None))
            continue
        _, b_rate = rate_of(b)
        _, a_rate = rate_of(a)
        if not b_rate or a_rate is None:
            continue
        speedup = a_rate / b_rate
        rows.append((name, b_rate, a_rate, speedup))
        if speedup < 1.0 - args.max_regression / 100.0:
            failures.append(
                f"{name}: {(1.0 - speedup) * 100.0:.1f}% slower "
                f"(allowed {args.max_regression:.1f}%)"
            )
        if name in required and speedup < required[name]:
            failures.append(
                f"{name}: speedup {speedup:.2f}x below required "
                f"{required[name]:.2f}x"
            )
        b_allocs = b.get("allocs_per_call")
        a_allocs = a.get("allocs_per_call")
        if b_allocs is not None and a_allocs is not None and a_allocs > b_allocs:
            failures.append(
                f"{name}: allocs_per_call grew {b_allocs} -> {a_allocs}"
            )
    for name in required:
        if name not in before_benches or name not in after_benches:
            failures.append(f"{name}: required benchmark missing from snapshot")

    for spec in args.require_zero:
        name, _, metric = spec.partition(":")
        if not metric:
            parser.error(f"--require-zero needs NAME:METRIC, got {spec!r}")
        bench = after_benches.get(name)
        if bench is None:
            failures.append(
                f"{name}: required benchmark missing from after snapshot"
            )
        elif metric not in bench:
            failures.append(f"{name}: metric {metric!r} missing")
        elif bench[metric] != 0:
            failures.append(f"{name}.{metric} = {bench[metric]} (required 0)")

    width = max((len(r[0]) for r in rows), default=4)
    print(f"{'benchmark':<{width}}  {'before/s':>14}  {'after/s':>14}  delta")
    for name, b_rate, a_rate, speedup in sorted(rows):
        if speedup:
            delta = f"{(speedup - 1.0) * 100.0:+.1f}%"
        elif name not in before_benches:
            delta = "(added)"
        elif name not in after_benches:
            delta = "(removed)"
        else:
            delta = "(missing)"
        print(
            f"{name:<{width}}  {fmt_rate(b_rate):>14}  {fmt_rate(a_rate):>14}  "
            f"{delta}"
        )

    b_hists = latency_histograms(before)
    a_hists = latency_histograms(after)
    shared_hists = sorted(b_hists.keys() & a_hists.keys())
    if shared_hists:
        hwidth = max(len(n) for n in shared_hists)
        print(
            f"\n{'latency histogram':<{hwidth}}  "
            f"{'p50 before':>10}  {'p50 after':>10}  "
            f"{'p99 before':>10}  {'p99 after':>10}"
        )
        for name in shared_hists:
            b_h, a_h = b_hists[name], a_hists[name]
            print(
                f"{name:<{hwidth}}  "
                f"{b_h.get('p50', 0):>9.1f}u  {a_h.get('p50', 0):>9.1f}u  "
                f"{b_h.get('p99', 0):>9.1f}u  {a_h.get('p99', 0):>9.1f}u"
            )

    if args.show_metrics:
        # Keys present on only one side (e.g. a counter family introduced by
        # the candidate build, like fault/*) are reported, never a KeyError:
        # a new metric must not break the CI perf gate on its first run.
        b_counters = before.get("metrics", {}).get("counters", {})
        a_counters = after.get("metrics", {}).get("counters", {})
        names = sorted(b_counters.keys() | a_counters.keys())
        if names:
            cwidth = max(len(n) for n in names)
            print(f"\n{'counter':<{cwidth}}  {'before':>14}  {'after':>14}")
            for name in names:
                if name not in b_counters:
                    note = "  (added)"
                elif name not in a_counters:
                    note = "  (removed)"
                else:
                    note = ""
                print(
                    f"{name:<{cwidth}}  {b_counters.get(name, '-'):>14}  "
                    f"{a_counters.get(name, '-'):>14}{note}"
                )

    if failures:
        print("\nREGRESSIONS:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nOK: no regression beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
