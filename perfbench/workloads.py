"""The perfbench workloads.

Each workload function takes a Ctx and returns a Result: the end-to-end
metrics (always), the per-layer metrics (measured in every run; printed
in the JSON line only with --trace 1), the operations attempted and
failed, the correctness-gate outcome, and the spans of a traced run.
METRICS.md gives the meaning of every metric on every workload.
"""
import json
import os
import random
import statistics
import subprocess
import threading
import time

import schedule
import stats
from service import Conn, ServiceError, Topology, dumps

# name -> (unit, better). The JSON line carries exactly these; the
# order is the order BENCHMARK.json lists them in.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "session_s": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "cold_job_p50_ms": ("ms", "lower"),
    "cold_job_p90_ms": ("ms", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

STAGES = (("characterize", "stage.characterize_s"),
          ("transform", "stage.transform_select_s"),
          ("partial_mining", "stage.partial_mining_s"),
          ("optimizer", "stage.optimizer_s"),
          ("knowledge", "stage.knowledge_s"),
          ("pattern_mining", "stage.pattern_mining_s"),
          ("ranking", "stage.ranking_s"),
          ("kdb_store", "stage.kdb_store_s"))

PER_LAYER = dict(
    [(name, ("s", "lower")) for _, name in STAGES] + [
        ("stage.residual_s", ("s", "lower")),
        ("ml.cv_fit_cpu_s", ("s", "lower")),
        ("ml.cv_fit_calls", ("count", "lower")),
        ("ml.cv_predict_cpu_s", ("s", "lower")),
        ("cluster.kmeans_s", ("s", "lower")),
        ("cluster.kmeans_runs", ("count", "lower")),
        ("cluster.kmeans_iterations", ("count", "lower")),
        ("cluster.skipped_distance_checks", ("count", "higher")),
        ("cpu_util", ("ratio", "higher")),
        ("dataset.generate_s", ("s", "lower")),
        ("svc.parse_us", ("us", "lower")),
        ("svc.build_job_ms", ("ms", "lower")),
        ("svc.fingerprint_ms", ("ms", "lower")),
        ("svc.session_run_ms_p50", ("ms", "lower")),
        ("svc.session_run_ms_p90", ("ms", "lower")),
        ("cache.hit_ratio", ("ratio", "higher")),
        ("sched.sessions_per_cold_submit", ("ratio", "lower")),
        ("router.forwarded_per_request", ("ratio", "lower")),
        ("repl.shipped_per_commit", ("ratio", "higher")),
        ("repl.dropped", ("count", "lower")),
    ])

# Workload tuning. Sizes are fixed; only the seed varies between runs,
# so the work per run is steady while the data is not the same.
SETUP_REPS = 3
PAPER_PATIENTS = 6380                   # The paper's cohort.
# paper_quarter: the same cohort shape with a quarter of the patients.
# Its matrices stay small enough for cache, and a run holds ~14 sessions.
# On a shared host, paper-scale sessions drifted 0.20-0.30 (ten-run
# spread) with the neighbours' load; see METRICS.md, "Steadiness".
QUARTER_PATIENTS = PAPER_PATIENTS // 4
CONNECTIONS = 4
# Cold / working-set cohort sizes: 200-800 patients, 11 sizes. A few
# small cohorts cannot be analysed with the default 10-fold CV (every K
# leaves a cluster smaller than the fold count); the service must then
# answer with the same error as a direct run. See METRICS.md.
GRID = tuple(range(200, 801, 60))
MIX = ("hit",) * 15 + ("cold",) * 4 + ("csv",)  # One block of 20 ops.
CSV_PATIENTS = 1500
RESULT_WAIT_MS = 60000


class Ctx:
    def __init__(self, bin_dir, work_dir, seed, seconds, trace, nproc):
        self.bin_dir = bin_dir
        self.work_dir = work_dir
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.nproc = nproc
        self.spans = Spans()

    def ada_perf(self, command, *args, payload=None, timeout=170):
        """Runs one ada_perf subcommand; returns its JSON output."""
        out_path = os.path.join(self.work_dir, command + ".out.json")
        argv = [os.path.join(self.bin_dir, "ada_perf"), command, "--out", out_path]
        if payload is not None:
            in_path = os.path.join(self.work_dir, command + ".in.json")
            with open(in_path, "w") as handle:
                json.dump(payload, handle)
            argv += ["--in", in_path]
        argv += [str(a) for a in args]
        done = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=timeout)
        if done.returncode != 0:
            raise RuntimeError("ada_perf %s failed: %s" % (command, done.stderr.decode()[-2000:]))
        with open(out_path) as handle:
            return json.load(handle)


class Spans:
    """In-memory spans: name, start, end, parent, request id. Spans are
    recorded after the timed window, from the timestamps taken in it."""

    def __init__(self):
        self.items = []

    def add(self, name, start, end, parent=None, request=None):
        self.items.append({"id": len(self.items), "name": name, "start": start,
                           "end": end, "parent": parent, "request": request})
        return len(self.items) - 1

    def self_times(self):
        """name -> (total self seconds, span count). A span's self time is
        its duration minus the part of it its children cover."""
        children = {}
        for span in self.items:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        totals = {}
        for span in self.items:
            covered, cursor = 0.0, span["start"]
            for child in sorted(children.get(span["id"], []), key=lambda c: c["start"]):
                lo, hi = max(child["start"], cursor), min(child["end"], span["end"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            total, count = totals.get(span["name"], (0.0, 0))
            totals[span["name"]] = (total + (span["end"] - span["start"] - covered), count + 1)
        return totals


class Result:
    def __init__(self):
        self.e2e = {}          # END_TO_END name -> value
        self.layers = {}       # PER_LAYER name -> value
        self.extra = {}        # Workload-specific named metrics -> {value, unit, n}
        self.samples = {}      # Metric name -> sample count
        self.raw = {}          # Raw samples behind the metrics, for the result file
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def gate(self, ok, message):
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)


def median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def session_layers(result, sessions, registry_total):
    """Stage, ml and cluster layers as means per session."""
    n = max(1, len(sessions))
    for stage, name in STAGES:
        result.layers[name] = _mean([s["stages"].get(stage, 0.0) for s in sessions])
    result.layers["stage.residual_s"] = _mean(
        [s["wall_s"] - sum(s["stages"].values()) for s in sessions])
    result.layers["ml.cv_fit_cpu_s"] = registry_total["cv_fit_s"] / n
    result.layers["ml.cv_fit_calls"] = registry_total["cv_fit_calls"] / n
    result.layers["ml.cv_predict_cpu_s"] = registry_total["cv_predict_s"] / n
    result.layers["cluster.kmeans_s"] = registry_total["kmeans_s"] / n
    result.layers["cluster.kmeans_runs"] = registry_total["kmeans_runs"] / n
    result.layers["cluster.kmeans_iterations"] = registry_total["kmeans_iterations"] / n
    result.layers["cluster.skipped_distance_checks"] = \
        registry_total["skipped_distance_checks"] / n


def sum_registry(entries):
    total = {}
    for entry in entries:
        for key, value in entry.items():
            total[key] = total.get(key, 0) + value
    return total


def session_spans(ctx, session, origin, request):
    """A session span with its stages laid back to back from their
    measured durations (the session reports durations, not start times)."""
    start = origin + session["start_s"]
    sid = ctx.spans.add("session", start, start + session["wall_s"], None, request)
    cursor = start
    for stage, _ in STAGES:
        seconds = session["stages"].get(stage)
        if seconds is not None:
            ctx.spans.add("stage." + stage, cursor, cursor + seconds, sid, request)
            cursor += seconds
    return sid


def no_service_layers(result):
    """paper_batch runs no service: its service-counter layers are 0."""
    for name in ("cache.hit_ratio", "sched.sessions_per_cold_submit",
                 "router.forwarded_per_request", "repl.shipped_per_commit",
                 "repl.dropped"):
        result.layers[name] = 0.0


def ms(values):
    return [1000.0 * v for v in values]


def set_latencies(result, prefix, values_ms):
    s = stats.summary(values_ms)
    result.e2e[prefix + "_p50_ms"] = s["p50"]
    result.e2e[prefix + "_p90_ms"] = s["p90"]
    result.samples[prefix + "_p50_ms"] = result.samples[prefix + "_p90_ms"] = s["n"]


def add_extra(result, name, value, unit, n=None):
    result.extra[name] = {"value": value, "unit": unit, "n": n}


# ---------------------------------------------------------------------
# paper_batch


def paper_batch(ctx, patients=PAPER_PATIENTS):
    result = Result()
    origin = time.monotonic()
    out = ctx.ada_perf("paper", "--seed", ctx.seed, "--seconds", ctx.seconds,
                       "--patients", patients)
    sessions = out["sessions"]
    walls = [s["wall_s"] for s in sessions]
    result.attempted = len(sessions)
    for s in sessions:
        result.gate(s["ok"] and "error" not in s, "session: %s" % s.get("error"))

    result.e2e["setup_s"] = median(out["setup_s"])
    result.samples["setup_s"] = len(out["setup_s"])
    result.e2e["session_s"] = median(walls)
    result.samples["session_s"] = len(walls)
    result.e2e["jobs_per_s"] = len(sessions) / out["window_s"]
    result.samples["jobs_per_s"] = len(sessions)
    set_latencies(result, "cold_job", ms(walls))
    set_latencies(result, "op", ms(walls))
    result.e2e["peak_rss_mb"] = out["peak_rss_mb"]
    result.raw = {"setup_s": out["setup_s"], "session_wall_s": walls}

    session_layers(result, sessions, sum_registry(s["registry"] for s in sessions))
    result.layers["cpu_util"] = out["cpu_s"] / (out["window_s"] * ctx.nproc)
    result.layers["dataset.generate_s"] = median(out["setup_s"])
    admission = out["admission"]
    result.layers["svc.parse_us"] = 1e6 * median([a["parse_s"] for a in admission])
    result.layers["svc.build_job_ms"] = 1e3 * median([a["build_job_s"] for a in admission])
    result.layers["svc.fingerprint_ms"] = 1e3 * median([a["fingerprint_s"] for a in admission])
    run = stats.summary(ms(walls))
    result.layers["svc.session_run_ms_p50"] = run["p50"]
    result.layers["svc.session_run_ms_p90"] = run["p90"]
    no_service_layers(result)
    add_extra(result, "failed_frac", result.failed / max(1, result.attempted), "ratio",
              result.attempted)
    if ctx.trace:
        for i, s in enumerate(sessions):
            session_spans(ctx, s, origin, "session-%d" % i)
    return result


# ---------------------------------------------------------------------
# Service workloads: shared pieces


def timed_setup(ctx, reps, build):
    """Runs `build(dir)` (which returns a started Topology plus state)
    `reps` times, each in a fresh directory; keeps the last. Returns
    (topology, state, seconds)."""
    seconds, kept = [], None
    for rep in range(reps):
        start = time.monotonic()
        rep_dir = os.path.join(ctx.work_dir, "setup%d" % rep)
        os.makedirs(rep_dir)
        topology, state = build(rep_dir)
        seconds.append(time.monotonic() - start)
        if rep + 1 < reps:
            topology.stop()
        else:
            kept = (topology, state)
    return kept[0], kept[1], seconds


def submit_and_wait(conn, line):
    """submit, then result; returns (submit response, result response,
    submit-sent, submit-acked, result-received) in monotonic seconds."""
    t0 = time.monotonic()
    submitted = conn.call_line(line)
    t1 = time.monotonic()
    if not submitted.get("ok"):
        return submitted, None, t0, t1, t1
    done = conn.call({"verb": "result", "job_id": submitted["job_id"],
                      "wait_millis": RESULT_WAIT_MS})
    return submitted, done, t0, t1, time.monotonic()


def job_error(submitted, done):
    """What went wrong with a submit/result exchange, for the report."""
    response = done or submitted
    return "%s %s %s" % (response.get("state"), response.get("error"),
                         response.get("status_message"))


def job_ok(submitted, done):
    return (submitted.get("ok") and done is not None and done.get("ok")
            and done.get("state") == "done")


def job_answered(submitted, done):
    """The service answered the job: with a report, or with the error
    its session failed with (checked against a direct run later)."""
    return job_ok(submitted, done) or (
        submitted.get("ok") and done is not None and done.get("ok")
        and done.get("state") == "failed" and "status_code" in done)


class Answers:
    """What the service answered per request line: its fingerprint and
    its reports or session errors, for the direct-run gate."""

    def __init__(self):
        self.by_line = {}
        self.lock = threading.Lock()

    def add(self, result, line, submitted, done):
        with self.lock:
            entry = self.by_line.setdefault(line, {"fingerprint": submitted["fingerprint"],
                                                   "answers": set()})
            result.gate(entry["fingerprint"] == submitted["fingerprint"],
                        "one request line got two fingerprints")
            if done["state"] == "done":
                entry["answers"].add(("report", done["report"]))
            else:
                entry["answers"].add(("rejection", done["status_code"], done["status_message"]))

    def jobs(self, result):
        """verify-jobs entries; gates that each line got one answer."""
        jobs = []
        for line, entry in self.by_line.items():
            result.gate(len(entry["answers"]) == 1,
                        "one request line got %d different answers" % len(entry["answers"]))
            job = {"line": line, "fingerprint": entry["fingerprint"], "reports": []}
            for answer in sorted(entry["answers"]):
                if answer[0] == "report":
                    job["reports"].append(answer[1])
                else:
                    job["rejection"] = {"status_code": answer[1], "status_message": answer[2]}
            jobs.append(job)
        return jobs


def stats_delta(before, after, path):
    def get(tree):
        for key in path:
            tree = tree.get(key, {}) if isinstance(tree, dict) else {}
        return tree if isinstance(tree, (int, float)) else 0
    return get(after) - get(before)


def service_layers(result, ctx, stats0, stats1, cpu_s, window_s, cold_submits, requests):
    def totals(*path):
        return stats_delta(stats0, stats1, ("totals",) + path)
    hits, misses = totals("cache", "hits"), totals("cache", "misses")
    sessions = totals("sessions_executed")
    result.layers["cache.hit_ratio"] = hits / max(1, hits + misses)
    result.layers["sched.sessions_per_cold_submit"] = sessions / max(1, cold_submits)
    result.layers["router.forwarded_per_request"] = \
        stats_delta(stats0, stats1, ("router", "forwarded")) / max(1, requests)
    result.layers["repl.shipped_per_commit"] = \
        totals("replication", "shipped") / max(1, sessions)
    result.layers["repl.dropped"] = totals("replication", "dropped")
    result.layers["cpu_util"] = cpu_s / (window_s * ctx.nproc)


def ping_us(port, count=200):
    conn = Conn(port)
    try:
        samples = []
        for _ in range(count):
            t0 = time.monotonic()
            conn.call({"verb": "ping"})
            samples.append(1e6 * (time.monotonic() - t0))
        return samples
    finally:
        conn.close()


def run_threads(targets):
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


# ---------------------------------------------------------------------
# service_mixed


def service_mixed(ctx):
    result = Result()
    answers = Answers()
    csv_line = [None]
    generate_s = []
    # The side stream replays one paper-shaped cohort's year of exam
    # records, a day per batch, over the timed window.
    stream = IngestStream(ctx, 0, 400000 + ctx.seed)

    def warm(port, lines):
        """Pre-warms the cache with `lines`, 4 at a time. Returns the
        lines the service answered with a session error; any other
        failure breaks the set-up."""
        queue, rejected, failures = list(lines), [], []
        lock = threading.Lock()

        def worker():
            conn = Conn(port)
            try:
                while True:
                    with lock:
                        if not queue:
                            return
                        line = queue.pop()
                    submitted, done, *_ = submit_and_wait(conn, line)
                    if not job_answered(submitted, done):
                        failures.append((submitted, done))
                        continue
                    answers.add(result, line, submitted, done)
                    if not job_ok(submitted, done):
                        with lock:
                            rejected.append(line)
            finally:
                conn.close()
        run_threads([worker] * CONNECTIONS)
        if failures:
            raise ServiceError("pre-warm job failed: %r" % (failures[0],))
        return rejected

    # One working-set spec per grid size, so every seed hits the same mix
    # of sizes; the seed picks the cohorts. A spec the service can only
    # reject cannot be a cache hit: the first set-up replaces it with the
    # size's next seed (its rejection is still verified).
    attempt = {n: 0 for n in GRID}

    def spec(n):
        return dumps({"verb": "submit", "synthetic": {
            "patients": n, "seed": 100000 + ctx.seed * 1000 + GRID.index(n) * 10 + attempt[n]}})
    working_set = [spec(n) for n in GRID]

    def build(rep_dir):
        csv = ctx.ada_perf("gen", "--patients", CSV_PATIENTS, "--format", "csv",
                           "--seed", 200000 + ctx.seed)
        generate_s.append(csv["generate_s"])
        csv_line[0] = dumps({"verb": "submit", "csv": csv["csv"], "dataset_id": "csv_cohort"})
        stream.generate()
        topology = Topology(ctx.bin_dir, rep_dir)
        try:
            rejected = warm(topology.port, working_set + [csv_line[0]])
            while rejected:
                if csv_line[0] in rejected:
                    raise ServiceError("the CSV cohort was rejected")
                sizes = [n for n in GRID if spec(n) in rejected]
                for n in sizes:
                    attempt[n] += 1
                    working_set[GRID.index(n)] = spec(n)
                rejected = warm(topology.port, [spec(n) for n in sizes])
        except BaseException:
            topology.stop()
            raise
        return topology, None

    topology, _, setup_s = timed_setup(ctx, SETUP_REPS, build)
    ops = []            # (kind, line, submitted, done, t0, t1, t2)
    ops_lock = threading.Lock()
    try:
        stats0 = topology.stats()
        cpu0 = topology.cpu_seconds()
        loop = stream.open_loop()
        start = loop.start
        deadline = start + ctx.seconds

        def client(c):
            # Seeded orders, cycled: each client's hits and cold jobs
            # cover the sizes evenly whatever the seed.
            crng = random.Random(ctx.seed * 7919 + c)
            grid, hits = list(GRID), list(working_set)
            crng.shuffle(grid)
            crng.shuffle(hits)
            block, cold, hit = [], 0, 0
            conn = Conn(topology.port)
            try:
                while time.monotonic() < deadline:
                    if not block:
                        block = list(MIX)
                        crng.shuffle(block)
                    kind = block.pop()
                    if kind == "hit":
                        line = hits[hit % len(hits)]
                        hit += 1
                    elif kind == "csv":
                        line = csv_line[0]
                    else:
                        line = dumps({"verb": "submit", "synthetic": {
                            "patients": grid[cold % len(grid)],
                            "seed": 1000000 + ctx.seed * 10000 + c * 1000 + cold}})
                        cold += 1
                    try:
                        record = (kind, line) + submit_and_wait(conn, line)
                    except (OSError, ServiceError, ValueError) as error:
                        now = time.monotonic()
                        record = (kind, line, {"ok": False, "error": str(error)}, None,
                                  now, now, now)
                    with ops_lock:
                        ops.append(record)
            finally:
                conn.close()

        run_threads([lambda c=c: client(c) for c in range(CONNECTIONS)] +
                    [lambda: stream.produce(topology.port, loop)])
        ends = [op[6] for op in ops] + [i[2] for i in stream.ingests]
        window_s = max(ends + [deadline]) - start
        cpu_s = topology.cpu_seconds() - cpu0
        stats1 = topology.stats()
        direct = ping_us(topology.primaries[0].port)
        routed = ping_us(topology.port)
        peak_rss = topology.peak_rss_mb()
        # The ingested cohort's first analysis runs cold, so its report
        # must equal a direct run on the replayed batches.
        conn = Conn(topology.port)
        try:
            cohort_analysis, exchange = analyze_cohort(conn, {"verb": "submit",
                                                              "cohort": COHORT})
        finally:
            conn.close()
    finally:
        topology.stop()

    # Outcomes.
    result.attempted = len(ops) + len(stream.ingests) + 1
    hit_ms, cold_ms, cold_run, cold_wait, hit_overhead = [], [], [], [], []
    rejected = 0
    requests = len(stream.ingests)
    for kind, line, submitted, done, t0, t1, t2 in ops:
        requests += 1 if done is None else 2
        ok = job_answered(submitted, done)
        result.gate(ok, "%s job %s failed: %s" % (kind, line[:120], job_error(submitted, done)))
        if not ok:
            continue
        answers.add(result, line, submitted, done)
        rejected += 0 if job_ok(submitted, done) else 1
        rtt = t2 - t0
        if done["cache_hit"]:
            hit_ms.append(1000.0 * rtt)
            hit_overhead.append(1000.0 * (rtt - done["wait_seconds"] - done["run_seconds"]))
        else:
            cold_ms.append(1000.0 * rtt)
            cold_run.append(1000.0 * done["run_seconds"])
            cold_wait.append(1000.0 * done["wait_seconds"])
        if ctx.trace:
            job_spans(ctx, "request", t0, t1, t2, submitted, done)
    ingest_ms, lag_ms = stream.outcomes(result)

    # Gates: every answer equals a direct AnalysisSession::Run of its
    # request line (its report byte for byte, or its error), and the
    # cohort analysis equals a direct run on the records the service
    # acknowledged.
    verify_start = time.monotonic()
    verified = ctx.ada_perf("verify-jobs", payload={"jobs": answers.jobs(result)})
    sessions = []
    for check in verified["jobs"]:
        result.gate(check["ok"], "direct-run gate: %s" % check.get("error"))
        if check.get("session", {}).get("ok"):
            sessions.append(check["session"])
    result.gate(cohort_analysis is not None, "cohort analysis failed: %r" % (exchange,))
    ingest_check = stream.verify(result, [cohort_analysis] if cohort_analysis else [])

    result.raw = {"setup_s": setup_s, "hit_ms": hit_ms, "cold_ms": cold_ms,
                  "cold_run_ms": cold_run, "ingest_ms": ingest_ms}
    result.e2e["setup_s"] = median(setup_s)
    result.samples["setup_s"] = len(setup_s)
    result.e2e["session_s"] = median(cold_run) / 1000.0
    result.samples["session_s"] = len(cold_run)
    result.e2e["jobs_per_s"] = len(ops) / window_s
    result.samples["jobs_per_s"] = len(ops)
    set_latencies(result, "cold_job", cold_ms)
    set_latencies(result, "op", hit_ms)
    result.e2e["peak_rss_mb"] = peak_rss

    session_layers(result, sessions, verified["registry"])
    service_layers(result, ctx, stats0, stats1, cpu_s, window_s,
                   len(cold_ms), requests)
    result.layers["dataset.generate_s"] = median(generate_s)
    result.layers["svc.parse_us"] = 1e6 * median([j["parse_s"] for j in verified["jobs"]])
    result.layers["svc.build_job_ms"] = 1e3 * median(
        [j["build_job_s"] for j in verified["jobs"] if "build_job_s" in j])
    result.layers["svc.fingerprint_ms"] = 1e3 * median(
        [j["fingerprint_s"] for j in verified["jobs"] if "fingerprint_s" in j])
    run = stats.summary(cold_run)
    result.layers["svc.session_run_ms_p50"] = run["p50"]
    result.layers["svc.session_run_ms_p90"] = run["p90"]

    hit = stats.summary(hit_ms)
    add_extra(result, "hit_job_p50_ms", hit["p50"], "ms", hit["n"])
    add_extra(result, "hit_job_p90_ms", hit["p90"], "ms", hit["n"])
    add_extra(result, "failed_frac", result.failed / max(1, result.attempted), "ratio",
              result.attempted)
    add_extra(result, "rejected_frac", rejected / max(1, len(ops)), "ratio", len(ops))
    stream.add_extras(result, ingest_ms, lag_ms, ingest_check)
    for name, values, unit in (("svc.queue_wait_ms", cold_wait, "ms"),
                               ("svc.overhead_ms", hit_overhead, "ms"),
                               ("svc.ping_direct_us", direct, "us"),
                               ("svc.ping_routed_us", routed, "us")):
        s = stats.summary(values)
        add_extra(result, name + "_p50", s["p50"], unit, s["n"])
        add_extra(result, name + "_p90", s["p90"], unit, s["n"])
    if ctx.trace:
        for i, s in enumerate(sessions):
            session_spans(ctx, s, verify_start, "verify-%d" % i)
    return result


# ---------------------------------------------------------------------
# Cohort ingest, shared by service_mixed (a side stream of writes) and
# cohort_stream (writes plus delta re-analysis).

COHORT = "ward"


def ingest_request(batch, expected_generation):
    return {"verb": "ingest", "cohort": COHORT, "expected_generation": expected_generation,
            "records": [{"patient": p, "exam_type": e, "day": d} for p, e, d in batch]}


def generation_of(submitted):
    """Generation from a cohort job's versioned fingerprint,
    "<cohort>@<generation>/<hash>"."""
    return int(submitted["fingerprint"].split("@", 1)[1].split("/", 1)[0])


class IngestStream:
    """A seeded exam-record stream into one cohort, one batch per day of
    the cohort's exam log. The cohort has the paper's shape (159 exam
    types, 365 days) and paper_quarter's size, so a batch is one day of
    that hospital's exams (about 65 records). The first `base_days`
    batches are ingested at set-up; the rest are replayed over the timed
    window, so the rate is the remaining days over the window. Every
    batch carries expected_generation, so a batch can commit only in
    order."""

    def __init__(self, ctx, base_days, seed):
        self.ctx = ctx
        self.base_count = base_days
        self.seed = seed
        self.generate_s = []
        self.ingests = []   # (due, sent, acked, ok, error)

    def generate(self):
        source = self.ctx.ada_perf("gen", "--shape", "paper", "--patients", QUARTER_PATIENTS,
                                   "--format", "records", "--seed", self.seed)
        self.generate_s.append(source["generate_s"])
        days = {}
        for row in source["records"]:
            days.setdefault(row[2], []).append(row)
        batches = [days[d] for d in sorted(days)]
        self.lines = [dumps(ingest_request(b, g)) for g, b in enumerate(batches)]

    def open_loop(self):
        """The schedule that sends every remaining batch in the window."""
        return schedule.OpenLoop((len(self.lines) - self.base_count) / self.ctx.seconds,
                                 self.ctx.seconds)

    def ingest_base(self, conn):
        for line in self.lines[:self.base_count]:
            response = conn.call_line(line)
            if not response.get("ok"):
                raise ServiceError("base ingest failed: %r" % (response,))

    def produce(self, port, loop, on_ack=None):
        conn = Conn(port)
        try:
            for i in range(len(self.lines) - self.base_count):
                due, lag = loop.wait_until_due(i)
                try:
                    response = conn.call_line(self.lines[self.base_count + i])
                    ok, error = bool(response.get("ok")), response.get("error")
                except (OSError, ServiceError, ValueError) as exc:
                    ok, error = False, str(exc)
                self.ingests.append((due, due + lag, time.monotonic(), ok, error))
                if not ok:
                    break
                if on_ack is not None:
                    on_ack(i + 1)
        finally:
            conn.close()

    def outcomes(self, result):
        """Gates every ingest; returns (latency from due, lag), in ms."""
        latency, lag = [], []
        for i, (due, sent, done, ok, error) in enumerate(self.ingests):
            result.gate(ok, "ingest failed: %s" % error)
            latency.append(1000.0 * schedule.latency_from_due(due, done))
            lag.append(1000.0 * (sent - due))
            if self.ctx.trace:
                root = self.ctx.spans.add("ingest", due, done, None, "batch-%d" % i)
                self.ctx.spans.add("generator.lag", due, sent, root, "batch-%d" % i)
        return latency, lag

    def verify(self, result, analyses):
        """Replays the acked batches and `analyses` in-process and applies
        the two-gate rule to every analysis the service ran."""
        store_dir = os.path.join(self.ctx.work_dir, "replay_store")
        os.makedirs(store_dir, exist_ok=True)
        acked = self.base_count + sum(1 for i in self.ingests if i[3])
        verified = self.ctx.ada_perf(
            "verify-stream", "--store-dir", store_dir,
            payload={"cohort": COHORT, "batches": self.lines[:acked], "analyses": analyses})
        for check in verified["analyses"]:
            result.gate(check["ok"], "two-gate rule, generation %s: %s"
                        % (check["generation"], check.get("error")))
        return verified

    def add_extras(self, result, latency, lag, verified):
        for name, values in (("ingest", latency),):
            s = stats.summary(values)
            add_extra(result, name + "_p50_ms", s["p50"], "ms", s["n"])
            add_extra(result, name + "_p90_ms", s["p90"], "ms", s["n"])
        for name, values in (("cohort.ingest_call_ms", ms(verified["ingest_s"])),
                             ("gen.lag_ms", lag)):
            s = stats.summary(values)
            add_extra(result, name + "_p50", s["p50"], "ms", s["n"])
            add_extra(result, name + "_p90", s["p90"], "ms", s["n"])


def analyze_cohort(conn, body):
    """One cohort job, submit to result; returns the analysis record the
    replay needs plus the raw exchange."""
    submitted, done, t0, t1, t2 = submit_and_wait(conn, dumps(body))
    if not job_ok(submitted, done):
        return None, (t0, t1, t2, submitted, done)
    return ({"generation": generation_of(submitted), "report": done["report"], "body": body},
            (t0, t1, t2, submitted, done))


# ---------------------------------------------------------------------
# cohort_stream: open-loop ingest plus delta re-analysis. Run by
# `run.py --workload cohort_stream`; see METRICS.md for why it is not
# (yet) listed in BENCHMARK.json.

# Half the year arrives at set-up, as in bench_ingest's front-loaded
# stream; the other half streams in the window.
STREAM_BASE_DAYS = 182
STREAM_DELTA_EVERY = 10                 # Batches (days) between delta submits.


def cohort_stream(ctx):
    result = Result()
    stream = IngestStream(ctx, STREAM_BASE_DAYS, 300000 + ctx.seed)
    body = {"verb": "submit", "cohort": COHORT}

    def build(rep_dir):
        stream.generate()
        topology = Topology(ctx.bin_dir, rep_dir)
        try:
            conn = Conn(topology.port)
            try:
                stream.ingest_base(conn)
                first, exchange = analyze_cohort(conn, body)
            finally:
                conn.close()
            if first is None:
                raise ServiceError("initial cohort analysis failed: %r" % (exchange,))
        except BaseException:
            topology.stop()
            raise
        return topology, first

    topology, first, setup_s = timed_setup(ctx, SETUP_REPS, build)
    deltas = []         # (analysis or None, (t0, t1, t2, submitted, done))
    acked = [0]
    producer_done = [False]
    cond = threading.Condition()
    try:
        stats0 = topology.stats()
        cpu0 = topology.cpu_seconds()
        loop = stream.open_loop()

        def on_ack(count):
            with cond:
                acked[0] = count
                cond.notify_all()

        def producer():
            try:
                stream.produce(topology.port, loop, on_ack)
            finally:
                with cond:
                    producer_done[0] = True
                    cond.notify_all()

        def analyst():
            conn = Conn(topology.port)
            try:
                last = 0
                while True:
                    with cond:
                        cond.wait_for(lambda: producer_done[0] or
                                      acked[0] >= last + STREAM_DELTA_EVERY)
                        if producer_done[0]:
                            return
                        last = acked[0]
                    try:
                        deltas.append(analyze_cohort(conn, body))
                    except (OSError, ServiceError, ValueError) as exc:
                        now = time.monotonic()
                        deltas.append((None, (now, now, now, {"ok": False, "error": str(exc)},
                                              None)))
            finally:
                conn.close()

        run_threads([producer, analyst])
        ends = [i[2] for i in stream.ingests] + [d[1][2] for d in deltas]
        window_s = max(ends + [loop.start + ctx.seconds]) - loop.start
        cpu_s = topology.cpu_seconds() - cpu0
        stats1 = topology.stats()
        peak_rss = topology.peak_rss_mb()
    finally:
        topology.stop()

    result.attempted = len(stream.ingests) + len(deltas)
    ingest_ms, lag_ms = stream.outcomes(result)
    delta_ms, delta_run, delta_wait, analyses = [], [], [], [first]
    for analysis, (t0, t1, t2, submitted, done) in deltas:
        result.gate(analysis is not None,
                    "delta job failed: %s" % job_error(submitted, done))
        if analysis is None:
            continue
        result.gate(not done["cache_hit"], "delta job was served from the cache")
        delta_ms.append(1000.0 * (t2 - t0))
        delta_run.append(1000.0 * done["run_seconds"])
        delta_wait.append(1000.0 * done["wait_seconds"])
        analyses.append(analysis)
        if ctx.trace:
            job_spans(ctx, "delta", t0, t1, t2, submitted, done)

    verified = stream.verify(result, analyses)
    replayed = verified["analyses"][1:]  # Deltas only; the first is set-up.

    result.raw = {"setup_s": setup_s, "delta_ms": delta_ms, "delta_run_ms": delta_run,
                  "ingest_ms": ingest_ms}
    result.e2e["setup_s"] = median(setup_s)
    result.samples["setup_s"] = len(setup_s)
    result.e2e["session_s"] = median(delta_run) / 1000.0
    result.samples["session_s"] = len(delta_run)
    result.e2e["jobs_per_s"] = result.attempted / window_s
    result.samples["jobs_per_s"] = result.attempted
    set_latencies(result, "cold_job", delta_ms)
    set_latencies(result, "op", ingest_ms)
    result.e2e["peak_rss_mb"] = peak_rss

    session_layers(result, [a["session"] for a in replayed],
                   sum_registry(a["registry"] for a in replayed))
    service_layers(result, ctx, stats0, stats1, cpu_s, window_s,
                   len(delta_ms), len(stream.ingests) + 2 * len(deltas))
    result.layers["dataset.generate_s"] = median(stream.generate_s)
    result.layers["svc.parse_us"] = 1e6 * median(verified["parse_s"])
    result.layers["svc.build_job_ms"] = 1e3 * median([a["build_job_s"] for a in replayed])
    result.layers["svc.fingerprint_ms"] = 1e3 * median([a["fingerprint_s"] for a in replayed])
    run = stats.summary(delta_run)
    result.layers["svc.session_run_ms_p50"] = run["p50"]
    result.layers["svc.session_run_ms_p90"] = run["p90"]
    warm = sum(1 for a in replayed if a["warm"])
    add_extra(result, "delta.warm_ratio", warm / max(1, len(replayed)), "ratio", len(replayed))
    add_extra(result, "delta.cold_fallbacks", len(replayed) - warm, "count", len(replayed))

    stream.add_extras(result, ingest_ms, lag_ms, verified)
    delta = stats.summary(delta_ms)
    add_extra(result, "delta_job_p50_ms", delta["p50"], "ms", delta["n"])
    add_extra(result, "delta.run_ms_p50", run["p50"], "ms", run["n"])
    s = stats.summary(delta_wait)
    add_extra(result, "svc.queue_wait_ms_p50", s["p50"], "ms", s["n"])
    add_extra(result, "svc.queue_wait_ms_p90", s["p90"], "ms", s["n"])
    add_extra(result, "failed_frac", result.failed / max(1, result.attempted), "ratio",
              result.attempted)
    return result


def job_spans(ctx, name, t0, t1, t2, submitted, done):
    """A job's spans: submit and result exchanges, and inside the result
    wait the shard's queue wait and session run, placed from the
    durations the shard reports (it reports no start times)."""
    rid = "job-%d" % submitted["job_id"]
    root = ctx.spans.add(name, t0, t2, None, rid)
    ctx.spans.add("submit", t0, t1, root, rid)
    wait_id = ctx.spans.add("result", t1, t2, root, rid)
    run_start = max(t1, t2 - done["run_seconds"])
    ctx.spans.add("shard.queue_wait", max(t1, run_start - done["wait_seconds"]), run_start,
                  wait_id, rid)
    ctx.spans.add("shard.session", run_start, t2, wait_id, rid)


WORKLOADS = {"paper_batch": paper_batch,
             "paper_quarter": lambda ctx: paper_batch(ctx, QUARTER_PATIENTS),
             "service_mixed": service_mixed, "cohort_stream": cohort_stream}
