"""Run every workload once and print its end-to-end metrics, by name and unit.

    python3 perfbench/report.py

Each workload goes through run.py exactly as a single run does, untraced,
at full size, with seed SEED and BENCHMARK.json's run_seconds; the table
adds each run's fail ratio (failed / attempted).  Exits 1 when a run could
not produce a result or a result is not correct.
"""

import json
import os
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS

SEED = 1


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    status = 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", str(seconds),
            "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{workload}: run failed\n{proc.stderr.strip()}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        status |= not result["correct"]
        print(f"{workload}  correct={str(result['correct']).lower()}")
        print(f"  {'fail_ratio':36s} {result['failed'] / result['attempted']:<14g} "
              f"({result['failed']}/{result['attempted']})")
        for name, metric in result["metrics"].items():
            print(f"  {name:36s} {metric['value']:<14.6g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
