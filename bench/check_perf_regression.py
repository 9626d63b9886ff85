#!/usr/bin/env python3
"""Compare a fresh bench_micro_perf JSON run against BENCH_hotpath.json.

Fails (exit 1) when any shared benchmark is slower than the committed
reference by more than --threshold after machine-speed calibration.

Calibration: absolute nanoseconds are not comparable across machines, so
both runs are normalized by a yardstick benchmark (default BM_Xoshiro: a
pure-register RNG kernel whose cost tracks single-core speed and nothing
this repo optimizes). What is compared is therefore "cycles of yardstick
work per simulator step", which survives CPU-model changes.

Flakiness caveat: shared CI runners still jitter by tens of percent
(frequency scaling, noisy neighbors, cache topology). The default 1.5x
threshold is deliberately loose so this check only catches *gross*
regressions — an accidental per-cycle allocation, string hash, or O(VCs)
walk on the hot path. Treat a failure as a strong signal and a pass as
weak evidence; use bench_micro_perf --benchmark_repetitions locally for
real measurements.

    python3 bench/check_perf_regression.py --self-test

runs the checker on built-in inputs (a healthy run, a missing pair
benchmark, a pair below its floor, a calibrated row over the threshold).
"""

import argparse
import contextlib
import io
import json
import sys


def load_times(path):
    with open(path) as f:
        data = json.load(f)
    if "benchmarks" not in data:
        raise SystemExit(f"{path}: not a google-benchmark JSON file")
    times = {}
    for bench in data["benchmarks"]:
        if isinstance(bench, dict) and "real_time" in bench:
            if "aggregate_name" not in bench:
                # With --benchmark_repetitions the same name repeats; keep
                # the fastest repetition — the standard noise-robust
                # estimator, since interference only ever adds time.
                name = bench["name"].split("/repeats:")[0]
                t = float(bench["real_time"])
                times[name] = min(times.get(name, t), t)
    return times


def load_reference(path):
    with open(path) as f:
        data = json.load(f)
    times = {name: row["after"]["real_time_ns"] for name, row in data["benchmarks"].items()}
    return times, data.get("pair_gates", [])


def check_pair_gates(fresh, gates):
    """Same-machine speedup floors: both sides of each pair come from the
    *fresh* run, so no calibration is involved and the check is immune to
    machine-speed differences — only the ratio matters. Guards, among
    others, the active-set scheduler: if parking breaks (the scheduler
    silently steps everything) or skipping becomes as expensive as
    stepping, the pair collapses toward 1x and this fails. A gate with a
    side missing from the fresh run fails too: a renamed benchmark or a
    narrowed --benchmark_filter must not turn a gate off."""
    failures = []
    for gate in gates:
        fast, slow = gate["fast"], gate["slow"]
        missing = [name for name in (slow, fast) if name not in fresh]
        if missing:
            print(f"  FAIL {slow} / {fast}: {', '.join(missing)} missing from fresh run")
            failures.append(f"{slow}/{fast}")
            continue
        speedup = fresh[slow] / fresh[fast]
        verdict = "FAIL" if speedup < gate["min_speedup"] else "ok"
        print(f"  {verdict:4s} {slow} / {fast}: {speedup:.1f}x "
              f"(floor {gate['min_speedup']:.0f}x)")
        if speedup < gate["min_speedup"]:
            failures.append(f"{slow}/{fast}")
    return failures


def check(fresh, reference, pair_gates, threshold, calibrate):
    """Prints a verdict per calibrated row and per pair gate; returns the
    exit code (0 when everything passes)."""
    # A reference may be gate-only (empty "benchmarks", e.g. BENCH_lifetime.json):
    # every check is then a same-machine pair ratio, so no calibration yardstick
    # and no absolute-time comparisons are involved.
    scale = 1.0
    if calibrate and reference:
        if calibrate not in fresh or calibrate not in reference:
            raise SystemExit(f"calibration benchmark {calibrate!r} missing from a file")
        scale = fresh[calibrate] / reference[calibrate]
        print(f"machine calibration via {calibrate}: {scale:.3f}x reference speed")

    failures = []
    shared = sorted(set(fresh) & set(reference) - {calibrate})
    if not shared and not pair_gates:
        raise SystemExit("no shared benchmarks between fresh run and reference")
    for name in shared:
        ratio = fresh[name] / (reference[name] * scale)
        verdict = "FAIL" if ratio > threshold else "ok"
        print(f"  {verdict:4s} {name:32s} {fresh[name]:12.1f} ns   {ratio:5.2f}x of reference")
        if ratio > threshold:
            failures.append(name)

    pair_failures = []
    if pair_gates:
        print("\nspeedup gates (same-machine pair ratios):")
        pair_failures = check_pair_gates(fresh, pair_gates)

    if failures or pair_failures:
        if failures:
            print(f"\nperf smoke FAILED: {len(failures)} benchmark(s) regressed past "
                  f"{threshold}x: {', '.join(failures)}")
        if pair_failures:
            print(f"\nperf smoke FAILED: {len(pair_failures)} pair gate(s) missing a side or "
                  f"below their speedup floor: {', '.join(pair_failures)}")
        return 1
    print(f"\nperf smoke passed: {len(shared)} benchmarks within {threshold}x of reference"
          + (f", {len(pair_gates)} pair gates above their floors" if pair_gates else ""))
    return 0


def self_test():
    # The fresh machine runs the yardstick at half speed, so every healthy
    # row passes only through calibration.
    reference = {"BM_Xoshiro": 2.0, "BM_Step": 100.0}
    gates = [{"fast": "BM_Run_Active", "slow": "BM_Run_Stepped", "min_speedup": 5}]
    healthy = {"BM_Xoshiro": 4.0, "BM_Step": 220.0, "BM_Run_Active": 1.0, "BM_Run_Stepped": 10.0}
    cases = [
        # (description, fresh run, expected exit code, expected text)
        ("healthy run", healthy, 0, "perf smoke passed"),
        ("missing pair benchmark",
         {name: t for name, t in healthy.items() if name != "BM_Run_Active"}, 1,
         "BM_Run_Active missing from fresh run"),
        ("pair below its floor", dict(healthy, BM_Run_Stepped=4.0), 1,
         "FAIL BM_Run_Stepped / BM_Run_Active: 4.0x"),
        ("calibrated row over the threshold", dict(healthy, BM_Step=320.0), 1,
         "1 benchmark(s) regressed past 1.5x: BM_Step"),
    ]
    for name, fresh, want_code, want_text in cases:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = check(fresh, reference, gates, threshold=1.5, calibrate="BM_Xoshiro")
        if code != want_code or want_text not in sink.getvalue():
            print(f"self-test FAILED: {name} (exit {code}, wanted {want_code})\n"
                  f"{sink.getvalue()}")
            return 1
    print(f"check_perf_regression.py self-test: {len(cases)} cases passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", nargs="?",
                        help="JSON from bench_micro_perf --benchmark_format=json")
    parser.add_argument("--reference", default="BENCH_hotpath.json")
    parser.add_argument("--threshold", type=float, default=1.5,
                        help="max allowed calibrated slowdown (default 1.5)")
    parser.add_argument("--calibrate", default="BM_Xoshiro",
                        help="yardstick benchmark for machine-speed normalization "
                             "('' disables and compares raw nanoseconds)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.fresh is None:
        parser.error("the fresh benchmark JSON is required")

    fresh = load_times(args.fresh)
    reference, pair_gates = load_reference(args.reference)
    return check(fresh, reference, pair_gates, args.threshold, args.calibrate)


if __name__ == "__main__":
    sys.exit(main())
