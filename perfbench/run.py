#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the connreuse workspace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload atlas-cold --seed 7 --seconds 20 --trace 0

The first run builds `perfbench-worker` (the package beside this file) with
cargo into `$CARGO_TARGET_DIR` (default `.bench_build`). Every job then runs
in a fresh worker process, so no job inherits another's intern table or peak
RSS. With `--trace 0` the run repeats the workload's job until `--seconds`
of jobs have run (at least MIN_JOBS) and reports the end-to-end metrics as
medians; with `--trace 1` it runs the workload's traced replica plus its
probes and reports the per-layer metrics. The last stdout line is the result
object; everything else goes to stderr. See README.md beside this file.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("atlas-cold", "chaos-sessions", "serve-storm")
END_TO_END = {
    "job_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
}
PER_LAYER = {
    "web.generate_s": "s",
    "web.generate_share": "fraction",
    "web.release_s": "s",
    "web.sites_generated": "count",
    "browser.visit_s": "s",
    "browser.visit_share": "fraction",
    "browser.visits": "count",
    "browser.session_page_s": "s",
    "browser.session_page_share": "fraction",
    "browser.session_pages": "count",
    "browser.connections_opened": "count",
    "browser.pool_lend_share": "fraction",
    "browser.faults_injected": "count",
    "browser.retries": "count",
    "browser.degraded_pages": "count",
    "dns.walks": "count",
    "tls.handshakes": "count",
    "h2.requests_sent": "count",
    "h2.reused_request_share": "fraction",
    "core.classify_s": "s",
    "core.classify_share": "fraction",
    "core.classified_sites": "count",
    "core.fallback_sites": "count",
    "cost.fold_s": "s",
    "cost.fold_share": "fraction",
    "executor.atlas_speedup_2t": "x",
    "executor.atlas_speedup_2t_spread": "fraction",
    "executor.storm_slowdown_2t": "x",
    "executor.storm_slowdown_2t_spread": "fraction",
    "executor.storm_p50_ms_1t": "ms",
    "executor.storm_p50_ms_2t": "ms",
    "executor.steals": "count",
    "store.read_chunk_s": "s",
    "store.read_share": "fraction",
    "store.chunks_read": "count",
    "store.bytes_read": "bytes",
    "store.open_ms": "ms",
    "store.noop_rebuild_s": "s",
    "query.parse_us": "us",
    "query.fold_s": "s",
    "query.fold_share": "fraction",
    "query.render_us": "us",
    "query.mean_chunks": "count",
    "query.distinct_share": "fraction",
    "trace.busy_s": "s",
    "trace.coverage": "fraction",
    "trace.overhead": "fraction",
}

MIN_JOBS = 3  # jobs per measured run, however long each takes
SETUP_PROBES = 20  # extra spawn-to-ready probes on workloads without set-up work
STORM_QUERIES = 4000  # queries per serve-storm job
STORM_CHECKS = 6  # narrow answers re-derived in memory per storm job
PROBE_QUERIES = 2000  # queries per side of the 2-worker storm probe
PROBE_PAIRS = 2  # (1 worker, 2 workers) pairs per executor probe
JOB_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not produce a result (build or worker failure)."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Build the worker (a no-op after the first run) and return its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "experiments", "Cargo.toml")):
        raise BenchError(f"no connreuse workspace at {ROOT}: nothing to benchmark")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=880, check=True)
    except (OSError, subprocess.SubprocessError) as error:
        raise BenchError(f"building the worker failed: {error}") from error
    return os.path.join(target, "release", "perfbench-worker"), os.path.join(target, "perfbench-work")


def spawn(worker, args):
    """Run one worker process; return (spawn-to-ready seconds, result dict)."""
    started = time.perf_counter()
    process = subprocess.Popen([worker] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    # A watchdog instead of communicate(timeout=...), which would drop what
    # readline() already buffered.
    watchdog = threading.Timer(JOB_TIMEOUT_S, process.kill)
    watchdog.start()
    try:
        first = process.stdout.readline()
        ready_s = time.perf_counter() - started
        rest = process.stdout.read()
        process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
    lines = (first + rest).splitlines()
    if process.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {process.returncode}")
    if lines[0] == "ready":
        lines = lines[1:]
    else:
        ready_s = None
    return ready_s, json.loads(lines[-1])


def percentile(values, share):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def job_args(workload, seed, threads, store=None, build_store=True, queries=STORM_QUERIES, checks=0):
    kind = {"atlas-cold": "atlas", "chaos-sessions": "chaos", "serve-storm": "storm"}[workload]
    args = [kind, "--seed", str(seed), "--threads", str(threads)]
    if kind == "storm":
        args += ["--queries", str(queries), "--store", store, "--checks", str(checks)]
        if build_store:
            args.append("--build")
    return args


def measure(worker, workdir, workload, seed, seconds):
    """The untraced run: fresh-process jobs until `seconds` of jobs ran."""
    threads = 2 if workload == "chaos-sessions" else 1
    setups, jobs = [], []
    if workload != "serve-storm":
        # No set-up work beyond starting the process: probe it more often.
        setups += [spawn(worker, ["ready"])[0] for _ in range(SETUP_PROBES)]
    started = time.perf_counter()
    while len(jobs) < MIN_JOBS or time.perf_counter() - started < seconds:
        # Job i runs input seed `seed * 1000 + i`: the run's medians then
        # average over inputs as well as over repetitions, so how heavy one
        # seed's inputs happen to be moves them less.
        job_seed = (seed * 1000 + len(jobs)) % 2**64
        store = os.path.join(workdir, f"storm-{os.getpid()}-{len(jobs)}")
        try:
            ready_s, job = spawn(worker, job_args(workload, job_seed, threads, store, checks=STORM_CHECKS))
        finally:
            shutil.rmtree(store, ignore_errors=True)
        setups.append(ready_s)
        jobs.append(job)

    job_s = [job["job_s"] for job in jobs]
    if workload == "serve-storm":
        latencies = [ms for job in jobs for ms in job["latencies_ms"]]
    else:
        # One request to atlas or chaos is a whole job.
        latencies = [s * 1e3 for s in job_s]
    # Process start alone costs a floor of 1-2 ms plus a heavy tail of host
    # delays: the median of 40 spawns read 1.5 ms at one time and 7 ms at
    # another. The fastest spawn tracks the floor, and start-up work raises
    # the floor, so atlas and chaos report the minimum.
    setup_s = statistics.median(setups) if workload == "serve-storm" else min(setups)
    metrics = {
        "job_s": statistics.median(job_s),
        "items_per_s": statistics.median(job["completed"] / job["job_s"] for job in jobs),
        "setup_s": setup_s,
        # The highest VmHWM of any job: with two workers the peak depends on
        # how their allocations interleave (24-34 MiB on chaos-sessions).
        "peak_rss_mib": max(job["peak_rss_mib"] for job in jobs),
        "query_p50_ms": percentile(latencies, 0.50),
        "query_p99_ms": percentile(latencies, 0.99),
    }
    problems = [job["problems"] for job in jobs if not job["ok"]]
    log(f"{workload}: {len(jobs)} jobs, job_s {[round(s, 4) for s in job_s]}")
    return {
        "correct": not problems,
        "attempted": sum(job["attempted"] for job in jobs),
        "failed": sum(job["failed"] for job in jobs),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()},
    }, problems


def probe_pairs(worker, args_for):
    """Alternate (1 worker, 2 workers) jobs, each in a fresh process."""
    pairs = []
    for pair in range(PROBE_PAIRS):
        order = (1, 2) if pair % 2 == 0 else (2, 1)
        result = {threads: spawn(worker, args_for(threads))[1] for threads in order}
        pairs.append((result[1], result[2]))
    return pairs


def ratio_and_spread(ratios):
    middle = statistics.median(ratios)
    return middle, (max(ratios) - min(ratios)) / middle


def traced(worker, workdir, workload, seed):
    """The traced run: the workload's replica, then its reference jobs."""
    problems = []
    values = {}
    if workload == "atlas-cold":
        trace = spawn(worker, ["trace-atlas", "--seed", str(seed)])[1]
        pairs = probe_pairs(worker, lambda threads: job_args(workload, seed, threads))
        one = [p[0]["job_s"] for p in pairs]
        speedup, spread = ratio_and_spread([p[0]["job_s"] / p[1]["job_s"] for p in pairs])
        values.update({
            "executor.atlas_speedup_2t": speedup,
            "executor.atlas_speedup_2t_spread": spread,
            "executor.steals": statistics.median(p[1]["steals"] for p in pairs),
            "trace.overhead": trace["wall_s"] / statistics.median(one) - 1,
        })
        references = [job for pair in pairs for job in pair]
    elif workload == "chaos-sessions":
        trace = spawn(worker, ["trace-chaos", "--seed", str(seed), "--threads", "2"])[1]
        references = [spawn(worker, job_args(workload, seed, 2))[1] for _ in range(2)]
        values["trace.overhead"] = trace["wall_s"] / statistics.median(j["job_s"] for j in references) - 1
    else:
        store = os.path.join(workdir, f"trace-{os.getpid()}")
        try:
            trace = spawn(worker, ["trace-storm", "--seed", str(seed), "--queries", str(STORM_QUERIES),
                                   "--store", store])[1]
            pairs = probe_pairs(worker, lambda threads: job_args(
                workload, seed, threads, store, build_store=False, queries=PROBE_QUERIES))
        finally:
            shutil.rmtree(store, ignore_errors=True)
        slowdown, spread = ratio_and_spread([p[1]["job_s"] / p[0]["job_s"] for p in pairs])
        per_query_1t = statistics.median(p[0]["job_s"] for p in pairs) / PROBE_QUERIES
        values.update({
            "executor.storm_slowdown_2t": slowdown,
            "executor.storm_slowdown_2t_spread": spread,
            "executor.storm_p50_ms_1t": statistics.median(
                percentile(p[0]["latencies_ms"], 0.5) for p in pairs),
            "executor.storm_p50_ms_2t": statistics.median(
                percentile(p[1]["latencies_ms"], 0.5) for p in pairs),
            "trace.overhead": trace["wall_s"] / STORM_QUERIES / per_query_1t - 1,
        })
        references = []
        failed_probe = sum(job["failed"] for pair in pairs for job in pair)
        if failed_probe:
            problems.append(f"{failed_probe} probe queries failed")

    if not trace["ok"]:
        problems.append(trace["problems"])
    problems += [job["problems"] for job in references if not job["ok"]]
    if any(job["digest"] != trace["digest"] for job in references):
        problems.append("the traced replica's output differs from the untraced jobs'")
    values.update({name: trace[name] for name in PER_LAYER if name in trace})
    log(f"{workload}: traced replica {trace['wall_s']:.3f} s, coverage {trace['trace.coverage']:.4f}")
    return {
        "correct": not problems,
        "attempted": trace["items"] + trace.get("failed", 0),
        "failed": trace.get("failed", 0),
        # A layer the workload bypasses does no work on it: it reports 0.
        "metrics": {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()},
    }, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args()
    options.seed %= 2**64  # the worker takes an unsigned 64-bit seed
    try:
        worker, workdir = build()
        os.makedirs(workdir, exist_ok=True)
        if options.trace:
            result, problems = traced(worker, workdir, options.workload, options.seed)
        else:
            result, problems = measure(worker, workdir, options.workload, options.seed, options.seconds)
    except (BenchError, KeyError, ValueError) as error:
        log(f"error: {error}")
        return 1
    for problem in problems:
        log(f"check failed: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
