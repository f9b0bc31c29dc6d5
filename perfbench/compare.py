#!/usr/bin/env python3
"""Summarise and compare perfbench result files.

    python3 perfbench/compare.py RESULT... [--against RESULT...]

Each RESULT is a result file written by perfbench/run.py or a directory
of them (default location: .bench_build/results). Without --against,
prints for every workload and trace mode the median and quartiles of
each end-to-end metric over the runs, with the run count, plus the
tracing overhead (traced minus untraced median) where both modes are
present. With --against, compares the two sets metric by metric.

Refuses (exit 2) when the runs' provenance differs: different build,
compiler, core count, CPU, SIMD selection, temp-dir filesystem,
benchmark code or run length; or code versions mixed within one side.
"""
import argparse
import glob
import json
import os
import sys

import provenance
import stats


def load(paths):
    records = []
    for path in paths:
        files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
        for name in files:
            if os.path.basename(name).startswith("trace-"):
                continue
            with open(name) as handle:
                records.append(json.load(handle))
    return records


def group(records):
    """(workload, trace) -> metric -> list of values."""
    groups = {}
    for record in records:
        metrics = groups.setdefault((record["workload"], record["trace"]), {})
        for name, value in record["end_to_end"].items():
            metrics.setdefault(name, []).append(value)
    return groups


def describe(values):
    q1, median, q3 = stats.quartiles(values)
    return median, q1, q3


def summary_lines(records):
    groups = group(records)
    lines = []
    for (workload, trace), metrics in sorted(groups.items()):
        lines.append("%s (trace %d)" % (workload, trace))
        for name, values in metrics.items():
            median, q1, q3 = describe(values)
            lines.append("  %-18s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.1f%%  runs=%d"
                         % (name, median, q1, q3, 100.0 * stats.spread(values), len(values)))
        untraced = groups.get((workload, 0)) if trace == 1 else None
        if untraced:
            lines.append("  tracing overhead (traced - untraced median):")
            for name, values in metrics.items():
                if name in untraced:
                    base = stats.quartiles(untraced[name])[1]
                    delta = stats.quartiles(values)[1] - base
                    lines.append("    %-18s %+12.6g (%+.1f%%)"
                                 % (name, delta, 100.0 * delta / base if base else 0.0))
    return lines


def compare_lines(side_a, side_b):
    a, b = group(side_a), group(side_b)
    lines = []
    for key in sorted(set(a) & set(b)):
        lines.append("%s (trace %d)" % key)
        for name in a[key]:
            if name not in b[key]:
                continue
            ma, qa1, qa3 = describe(a[key][name])
            mb, qb1, qb3 = describe(b[key][name])
            change = 100.0 * (mb - ma) / ma if ma else 0.0
            lines.append("  %-18s A %12.6g [%g, %g] n=%d   B %12.6g [%g, %g] n=%d   %+6.1f%%"
                         % (name, ma, qa1, qa3, len(a[key][name]),
                            mb, qb1, qb3, len(b[key][name]), change))
    return lines


def main():
    parser = argparse.ArgumentParser(description="Summarise or compare perfbench results.")
    parser.add_argument("results", nargs="+")
    parser.add_argument("--against", nargs="+")
    args = parser.parse_args()
    side_a = load(args.results)
    side_b = load(args.against) if args.against else []
    if not side_a or (args.against and not side_b):
        print("compare: no result files found", file=sys.stderr)
        return 2
    reason = provenance.comparable([r["provenance"] for r in side_a],
                                   [r["provenance"] for r in side_b or side_a])
    if reason:
        print("compare: refusing to compare: " + reason, file=sys.stderr)
        return 2
    lines = compare_lines(side_a, side_b) if side_b else summary_lines(side_a)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
