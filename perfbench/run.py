#!/usr/bin/env python3
"""perfbench: the ADA-HEALTH benchmark, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_quarter|service_mixed|paper_batch|cohort_stream|all
                             [--seed N] [--seconds S] [--trace 0|1]

Builds the library, ada_server, ada_router and the in-process harness
ada_perf from this checkout's sources (Release, into $CARGO_TARGET_DIR
or .bench_build), runs the workload for --seconds seconds, checks every
output against its correctness gate, and prints a table of every metric
with its unit and sample count. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}; the metrics
are the end-to-end ones, or with --trace 1 the per-layer ones.

Each run also writes a result file (with provenance) under
<build dir>/results/, and a traced run writes its spans there too;
perfbench/compare.py summarises and compares result files.

Exit codes: 0 all gates held; 1 a correctness gate failed (the JSON
line is still printed); 2 the sources or a tool are missing; 3 the run
itself broke (no JSON line).
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import provenance
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGETS = ("ada_perf", "ada_server", "ada_router")
SOURCES = ("src/CMakeLists.txt", "tools/ada_server_main.cc", "tools/ada_router_main.cc")


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build(out_dir, nproc):
    missing = [s for s in SOURCES if not os.path.isfile(os.path.join(ROOT, s))]
    if missing:
        fail(2, "repository sources missing (%s); run from a full checkout"
             % ", ".join(missing))
    if not shutil.which("cmake"):
        fail(2, "cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", str(nproc), "--target"] + list(TARGETS))
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail(2, "build failed: " + " ".join(step))


def metric_block(names, values):
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _) in names.items()}


def print_table(name, result, trace):
    print("== %s: attempted %d, failed %d%s" % (
        name, result.attempted, result.failed,
        "" if not result.errors else " -- " + "; ".join(result.errors[:5])))
    rows = [(n, result.e2e[n], u, result.samples.get(n))
            for n, (u, _) in workloads.END_TO_END.items()]
    rows += [(n, e["value"], e["unit"], e["n"]) for n, e in sorted(result.extra.items())]
    if trace:
        rows += [(n, result.layers[n], u, None) for n, (u, _) in workloads.PER_LAYER.items()]
    for metric, value, unit, n in rows:
        shown = "n/a" if value is None else "%.6g" % value
        print("  %-34s %14s %-6s %s" % (metric, shown, unit, "" if n is None else "n=%d" % n))


def run_one(name, args, out_dir, nproc):
    work_dir = os.path.join(out_dir, "work", "%s-%d" % (name, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        ctx = workloads.Ctx(out_dir, work_dir, args.seed, args.seconds, args.trace, nproc)
        result = workloads.WORKLOADS[name](ctx)
        prov = provenance.collect(ROOT, out_dir, work_dir, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for metric in workloads.END_TO_END:
        if not result.e2e.get(metric):
            result.gate(False, "metric %s was not measured" % metric)
    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d-%d" % (name, args.seed, args.trace, int(time.time() * 1000))
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": prov, "attempted": result.attempted,
              "failed": result.failed, "errors": result.errors,
              "end_to_end": result.e2e, "per_layer": result.layers,
              "extra": result.extra, "samples": result.samples, "raw": result.raw}
    if args.trace:
        self_times = ctx.spans.self_times()
        record["self_time_s"] = {k: {"total": t, "spans": n}
                                 for k, (t, n) in sorted(self_times.items())}
        with open(os.path.join(results_dir, "trace-" + stem + ".json"), "w") as handle:
            json.dump({"workload": name, "seed": args.seed, "spans": ctx.spans.items}, handle)
    with open(os.path.join(results_dir, stem + ".json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print_table(name, result, args.trace)
    if args.trace:
        print("  self time per span (s):")
        for span_name, entry in record["self_time_s"].items():
            print("    %-30s %12.6f  spans=%d" % (span_name, entry["total"], entry["spans"]))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so every started process is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))

    nproc = len(os.sched_getaffinity(0))
    out_dir = build_dir()
    build(out_dir, nproc)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    metrics_names = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            result = run_one(name, args, out_dir, nproc)
            correct = correct and result.failed == 0
            attempted += result.attempted
            failed += result.failed
            values = result.layers if args.trace else result.e2e
            block = metric_block(metrics_names, values)
            if len(names) > 1:
                block = {name + "." + k: v for k, v in block.items()}
            metrics.update(block)
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as error:
        fail(3, "run failed: %r" % (error,))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
