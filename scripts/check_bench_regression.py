#!/usr/bin/env python3
"""Gate the bench trajectory: compare a fresh quick-bench JSON to a baseline.

Usage: check_bench_regression.py BASELINE.json CURRENT.json [--threshold 0.10]
           [--forbid-missing] [--expect-moved KEY[,KEY...]]

Both files hold the merged quick-bench counters (see the quick-bench CI job:
{"solve_all": {...}, "parallel_dp": {...}, "enumeration": {...}}). All
counters are deterministic — state counts, shard counts and balance ratios,
table bytes, evictions — never wall-clock, so the comparison is meaningful on
any runner. A gated key whose relative change exceeds the threshold in either
direction fails the gate: these numbers only move when the algorithms change,
and such a change must be explained by re-baselining, not slip through.

Keys present in only one file (e.g. a bench added after the baseline) are
reported but by default never fail the gate, so the trajectory can grow.
--forbid-missing tightens that for same-generation comparisons (committed
BENCH_prN.json vs the BENCH_prN.json this run produced): there the key sets
must match exactly, so a silently dropped or renamed counter fails too.

--expect-moved names the counters a change deliberately moves (flattened
dotted keys, e.g. solve_all.dp_traversals). A listed key is exempt from the
threshold and from --forbid-missing, but it must differ from the baseline (a
key present in only one file counts as moved): a listed key that did not
move, or that neither file has, fails the gate, so the list cannot go stale.
Every other key keeps its gate.
"""

import argparse
import json
import sys

# Configuration echoes (instance shape, seeds) — identity, not performance.
METADATA_KEYS = {"bench", "vertices", "treewidth", "seed", "num_fds",
                 "num_attributes"}


def flatten(prefix, node, out):
    if isinstance(node, dict):
        for key, value in node.items():
            flatten(f"{prefix}.{key}" if prefix else key, value, out)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out[prefix] = node


def fail_usage(message):
    """Input problems (missing/malformed files) exit 2 — distinct from the
    gate's exit 1 — so CI logs separate 'your invocation is broken' from
    'your counters regressed'."""
    print(f"check_bench_regression: error: {message}", file=sys.stderr)
    sys.exit(2)


def load_counters(path, role):
    """Reads and flattens one counters file, exiting with an actionable
    message (not a traceback) when it is missing or malformed."""
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as error:
        fail_usage(f"cannot read {role} {path!r}: {error.strerror or error}. "
                   f"Run the quick benches with --json (see the quick-bench "
                   f"CI job) to produce it, or fix the path.")
    except json.JSONDecodeError as error:
        fail_usage(f"{role} {path!r} is not valid JSON: {error}. Regenerate "
                   f"it with the quick benches' --json flag; do not edit the "
                   f"counters by hand.")
    if not isinstance(data, dict):
        fail_usage(f"{role} {path!r} must hold a JSON object of merged bench "
                   f"sections, got {type(data).__name__}.")
    out = {}
    flatten("", data, out)
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max allowed relative change (default 0.10)")
    parser.add_argument("--forbid-missing", action="store_true",
                        help="fail on keys present in only one file")
    parser.add_argument("--expect-moved", default="", metavar="KEY[,KEY...]",
                        help="keys that must differ from the baseline; "
                             "exempt from the threshold")
    args = parser.parse_args()

    baseline = load_counters(args.baseline, "baseline")
    current = load_counters(args.current, "current")
    expect_moved = {key for key in args.expect_moved.split(",") if key}

    failures = []
    for key in sorted(expect_moved - (baseline.keys() | current.keys())):
        failures.append(key)
        print(f"{key:<48} {'(in neither file)':>39}  << FAIL")
    print(f"{'counter':<48} {'baseline':>14} {'current':>14} {'change':>9}")
    for key in sorted(baseline.keys() | current.keys()):
        if key.rsplit(".", 1)[-1] in METADATA_KEYS:
            continue
        if key not in baseline or key not in current:
            where = "baseline" if key in baseline else "current"
            marker = ""
            if key in expect_moved:
                marker = "  (expected)"
            elif args.forbid_missing:
                failures.append(key)
                marker = "  << FAIL"
            print(f"{key:<48} {'(only in ' + where + ')':>39}{marker}")
            continue
        old, new = baseline[key], current[key]
        if old == new:
            change = 0.0
        elif old == 0:
            change = float("inf")
        else:
            change = abs(new - old) / abs(old)
        marker = ""
        if key in expect_moved:
            if old == new:
                failures.append(key)
                marker = "  << FAIL (expected to move)"
            else:
                marker = "  (expected)"
        elif change > args.threshold:
            failures.append(key)
            marker = "  << FAIL"
        shown = "inf" if change == float("inf") else f"{change:+8.1%}"
        print(f"{key:<48} {old:>14} {new:>14} {shown:>9}{marker}")

    if failures:
        print(f"\nFAIL: {len(failures)} counter(s) moved more than "
              f"{args.threshold:.0%}, or were expected to move and did not, "
              f"vs {args.baseline}: {', '.join(failures)}")
        print("If the change is intentional, regenerate the committed "
              "baseline JSON in the same PR and explain the delta; drop keys "
              "from --expect-moved that no longer move.")
        return 1
    print(f"\nOK: all shared counters within {args.threshold:.0%} of "
          f"{args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
