"""The README's speed figures must be those of the latest benchmark file."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_benchmark_figures_match_latest_bench_file():
    numbers = [int(path.stem.removeprefix("BENCH_")) for path in ROOT.glob("BENCH_*.json")]
    latest = ROOT / f"BENCH_{max(numbers)}.json"
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Benchmark\n", 1)[1].split("\n## ", 1)[0]
    assert latest.name in section
    workloads = json.loads(latest.read_text())["workloads"]
    for name, workload in workloads.items():
        wall_s = workload["change"]["median"]["wall_s"]
        assert f"{wall_s:.2f} s" in section, (name, wall_s)
