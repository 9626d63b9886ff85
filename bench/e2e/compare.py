#!/usr/bin/env python3
"""Compare end-to-end benchmark results of a parent and a change commit.

    python3 bench/e2e/compare.py [--claim METRIC@WORKLOAD] P1 C1 P2 C2 ...
    python3 bench/e2e/compare.py --self-test

Files alternate parent, change, parent, change: one pair per run, with the
side that ran first alternating between pairs. A file holds the output of
bench/e2e/run.py or of nbtinoc_e2e (one workload or all of them).

  * --claim: the change wins when it beats the parent in at least 9/10 of
    the pairs (ties count for neither) and the medians differ by more than
    the parent's interquartile range.
  * Every end-to-end metric of BENCHMARK.json, on every workload: the
    change's median may be worse than the parent's by at most the metric's
    bound. When the parent's own spread exceeds the bound the row is
    "unresolved", unless every change run beats every parent run.
  * result_digest: any change between the commits is flagged (expected only
    from a change to the model), and so is a digest that differs between
    runs of one commit.

Exit code 0 when nothing regressed and the claim, if any, holds.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCH = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def parse_result(text):
    """Per-workload records {workload: {"metrics": {name: value}, "digest", "failed"}}."""
    records = {}
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        doc = json.loads(line)
        docs = doc["workloads"].values() if "workloads" in doc else [doc]
        for d in docs:
            if not isinstance(d, dict) or "workload" not in d:
                continue
            records[d["workload"]] = {
                "metrics": {k: v["value"] for k, v in d["metrics"].items()},
                "digest": d.get("result_digest", ""),
                "failed": d.get("ops_failed", 0),
            }
    if not records:
        raise ValueError("no benchmark document found")
    return records


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def pair_rule(parent, change, direction):
    """choosing-metrics section 8: wins in >= 9/10 of pairs and a median gap wider than the parent IQR."""
    wins = sum(1 for p, c in zip(parent, change) if better(c, p, direction))
    gap = abs(statistics.median(change) - statistics.median(parent))
    met = wins >= 0.9 * len(parent) and gap > iqr(parent) and better(
        statistics.median(change), statistics.median(parent), direction)
    return met, wins


def bound_verdict(parent, change, direction, bound):
    mp, mc = statistics.median(parent), statistics.median(change)
    worse = (mc - mp) / mp if direction == "lower" else (mp - mc) / mp
    spread = iqr(parent) / mp
    if all(better(c, p, direction) for c in change for p in parent):
        return "better", worse, spread
    if spread > bound:
        return "unresolved", worse, spread
    return ("REGRESSED" if worse > bound else "ok"), worse, spread


def compare(bench, files, claim=None, out=sys.stdout):
    """Returns True when nothing regressed and the claim (if any) is met."""
    if len(files) < 2 or len(files) % 2 != 0:
        raise ValueError("need an even number of files: parent, change, parent, change, ...")
    parents, changes = files[0::2], files[1::2]
    directions = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    ok = True
    workloads = [w["name"] for w in bench["workloads"] if all(w["name"] in f for f in files)]

    for w in workloads:
        dp = {f[w]["digest"] for f in parents}
        dc = {f[w]["digest"] for f in changes}
        if len(dp) > 1 or len(dc) > 1:
            print("%s: result_digest differs between runs of one commit" % w, file=out)
            ok = False
        elif dp != dc:
            print("%s: result_digest changed %s -> %s (expected only from a model change)"
                  % (w, dp.pop(), dc.pop()), file=out)
        fp = sum(f[w]["failed"] for f in parents)
        fc = sum(f[w]["failed"] for f in changes)
        if fc > fp:
            print("%s: failed ops rose from %d to %d" % (w, fp, fc), file=out)
            ok = False

    print("%-16s %-14s %12s %12s %8s %8s  %s"
          % ("workload", "metric", "parent", "change", "worse", "spread", "verdict"), file=out)
    for m in bench["end_to_end"]:
        for w in workloads:
            p = [f[w]["metrics"][m["name"]] for f in parents]
            c = [f[w]["metrics"][m["name"]] for f in changes]
            verdict, worse, spread = bound_verdict(p, c, m["better"], m["bound"])
            ok = ok and verdict != "REGRESSED"
            print("%-16s %-14s %12.6g %12.6g %+7.1f%% %7.1f%%  %s (bound %.0f%%)"
                  % (w, m["name"], statistics.median(p), statistics.median(c), 100 * worse,
                     100 * spread, verdict, 100 * m["bound"]), file=out)

    if claim:
        metric, _, w = claim.partition("@")
        p = [f[w]["metrics"][metric] for f in parents]
        c = [f[w]["metrics"][metric] for f in changes]
        direction = directions.get(metric, "higher" if metric.endswith("_per_s") else "lower")
        met, wins = pair_rule(p, c, direction)
        print("claim %s on %s: change wins %d/%d pairs, medians %.6g -> %.6g, parent IQR %.3g: %s"
              % (metric, w, wins, len(p), statistics.median(p), statistics.median(c), iqr(p),
                 "met" if met else "NOT met"), file=out)
        ok = ok and met
    return ok


def self_test():
    import io
    bench = {
        "workloads": [{"name": "a"}, {"name": "b"}],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}],
        "per_layer": [],
    }

    def doc(workload, wall, digest="d0", failed=0):
        return json.dumps({"workload": workload, "metrics": {"wall_s": {"value": wall, "unit": "s"}},
                           "result_digest": digest, "ops_failed": failed})

    def files(parent_a, change_a, parent_b, change_b, change_digest="d0"):
        out = []
        for pa, ca, pb, cb in zip(parent_a, change_a, parent_b, change_b):
            out.append(parse_result(doc("a", pa) + "\n" + doc("b", pb)))
            out.append(parse_result("noise\n" + doc("a", ca, change_digest) + "\n" +
                                    doc("b", cb, change_digest)))
        return out

    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.01, 1.00, 0.99, 1.00]
    faster = [v * 0.8 for v in steady]
    slower = [v * 1.2 for v in steady]
    noisy = [1.0, 1.3, 0.8, 1.2, 0.9, 1.25, 0.85, 1.3, 0.7, 1.1]
    sink = io.StringIO()
    cases = [
        # (description, files, claim, expected result, expected text)
        ("clear win", files(steady, faster, steady, steady), "wall_s@a", True, "met"),
        ("no win", files(steady, steady, steady, steady), "wall_s@a", False, "NOT met"),
        ("regression", files(steady, steady, steady, slower), None, False, "REGRESSED"),
        ("noisy parent", files(noisy, noisy, steady, steady), None, True, "unresolved"),
        ("digest flag", files(steady, steady, steady, steady, "d1"), None, True, "d0 -> d1"),
        ("within bound", files(steady, [v * 1.05 for v in steady], steady, steady), None, True,
         "ok"),
    ]
    for name, fs, claim, expected, text in cases:
        sink = io.StringIO()
        got = compare(bench, fs, claim, sink)
        if got != expected or text not in sink.getvalue():
            print("self-test FAILED: %s\n%s" % (name, sink.getvalue()))
            return 1
    print("compare.py self-test: %d cases passed" % len(cases))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="*")
    parser.add_argument("--bench", default=DEFAULT_BENCH)
    parser.add_argument("--claim", help="METRIC@WORKLOAD the change claims to improve")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    with open(args.bench) as f:
        bench = json.load(f)
    files = []
    for path in args.files:
        with open(path) as f:
            files.append(parse_result(f.read()))
    try:
        return 0 if compare(bench, files, args.claim) else 1
    except (ValueError, KeyError) as e:
        print("compare.py: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
