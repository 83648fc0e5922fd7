"""Layered benchmark of akregime: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny]

Workloads (see workloads.py): sweep-default, classify-large, regime-pipeline.
Each is a closed loop with one client in one process: a query starts when
the previous one has finished.  Every measurement runs in a fresh
interpreter started by this script (worker.py), which imports akregime from
this checkout's src/.

--trace 0 reports the end-to-end metrics.  setup_s is the 90th percentile
over SETUP_SAMPLES fresh interpreters, half of them started before the
timed phase and half after it (after one warm-up that byte-compiles the
package).  Each query's latency is the 90th percentile of its times over the
passes of the timed phase; wall_s is the sum of those latencies, the time of
one pass, and query_p50_ms and query_p90_ms are their median and 90th
percentile over the queries.  peak_rss_mb is the measuring process's
high-water mark after its timed phase.  (Why the 90th percentile: see
worker.p90.)

--trace 1 runs the same untraced measurement, then a traced pass, and
reports the per-layer metrics: time in and calls into each module, from
spans the benchmark wraps around the modules' public functions.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; failed / attempted is the fail ratio.  The full record,
with the environment, goes to perfbench/results/.  The exit code is 0 when a
result was printed, whether or not it is correct, and 1 when the benchmark
could not run.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

from worker import LAYER_UNITS, p90

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("sweep-default", "classify-large", "regime-pipeline")
SETUP_SAMPLES = 8
DEADLINE_S = 170  # the whole run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(args, mode, started, spans=None):
    """Run one worker to completion and return its JSON output."""
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchmarkError("out of time before the " + mode + " worker")
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    if spans:
        cmd += ["--spans", spans]
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{mode} worker did not finish in {remaining:.0f} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(args, measured):
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                platform.processor() or "unknown",
            )
    except OSError:
        cpu = platform.processor() or "unknown"
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": measured["backend"],
        "c_kernel_built": measured["c_kernel_built"],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "queries_per_pass": measured["queries"],
        "labels_per_pass": measured["labels"],
        "passes": measured["passes"],
    }


def run(args):
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "akregime", "__init__.py")):
        raise BenchmarkError(f"no akregime sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}")
    setups = []
    if args.trace:
        measured = spawn(args, "measure", started)
        traced = spawn(args, "trace", started, spans=stem + ".spans.json")
        children = [measured, traced]
        values = dict(traced["metrics"])
        # Against the median untraced pass: span overhead inflates the traced one.
        untraced = measured["median_pass_s"]
        values["sweep.oracle_share"] = values["oracle.kind_s"] / untraced
        values["trace.overhead_ratio"] = traced["traced_wall_s"] / untraced
        values["trace.self_time_ratio"] = traced["layer_self_s"] / untraced
        units = LAYER_UNITS
    else:
        spawn(args, "setup", started)  # warm-up: byte-compiles the package
        # Samples from both ends of the run see more of the host's changes
        # of speed than back-to-back ones do.
        setups += [spawn(args, "setup", started)["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
        measured = spawn(args, "measure", started)
        setups += [spawn(args, "setup", started)["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
        children = [measured]
        values = {name: measured[name] for name in END_TO_END_UNITS if name != "setup_s"}
        values["setup_s"] = p90(setups)
        units = END_TO_END_UNITS

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    correct = failed == 0 and all(c["run_ok"] for c in children)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "environment": environment(args, measured),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "reasons": [r for c in children for r in c["reasons"]],
        "setup_samples_s": setups,
        "pass_s": measured["pass_s"],
        "query_s": measured["query_s"],
        "metrics": metrics,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description="Layered benchmark of akregime, one workload per run.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few points per workload, for the self-tests")
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for key, value in record["environment"].items():
        print(f"# {key}: {value}")
    for reason in record["reasons"]:
        print(f"# FAILED: {reason}")
    print(f"fail_ratio {record['fail_ratio']:g} ({record['failed']}/{record['attempted']})")
    for name, metric in record["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
