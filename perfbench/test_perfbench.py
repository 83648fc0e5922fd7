"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import worker
from run import HERE, RESULTS, ROOT, WORKLOADS

worker.use_checkout_source()

from akregime import _kernel, blocks, cli, oracle  # noqa: E402
from akregime.params import ParamScheme  # noqa: E402
from spans import Tracer, count_calls  # noqa: E402
from workloads import WORKLOADS as WORKLOAD_CLASSES  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def _run(workload, trace, cwd=ROOT):
    cmd = [
        sys.executable, os.path.join(cwd, "perfbench", "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _flip_first_verdict(monkeypatch, all_kleshchev):
    """Make the kernel return one wrong verdict: the first label of its
    first call, or with `all_kleshchev` of its first call that finds every
    label Kleshchev.  A sweep point's output is its kind, and at a point
    that already has non-Kleshchev labels one more changes no output."""
    original = _kernel.kleshchev_verdicts
    calls = []

    def flipped(e, classes, shifts, mps):
        verdicts = list(original(e, classes, shifts, mps))
        if not calls and (all(verdicts) or not all_kleshchev):
            verdicts[0] = not verdicts[0]
            calls.append(1)
        return verdicts

    monkeypatch.setattr(_kernel, "kleshchev_verdicts", flipped)


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_flipped_verdict_fails_the_gate(name, monkeypatch):
    workload = WORKLOAD_CLASSES[name](3, "tiny")
    _flip_first_verdict(monkeypatch, all_kleshchev=name == "sweep-default")
    results, _, _ = worker.run_pass(workload)
    monkeypatch.undo()
    attempted, failed, reasons, _ = worker.gate(workload, results, [])
    assert failed / attempted > 0, reasons


def test_sweep_sub_grids_partition_the_grid():
    workload = WORKLOAD_CLASSES["sweep-default"](0, "tiny")
    rows = [row for item in workload.queries for row in workload.query(item)]
    expected = oracle.regime_locus(workload.GRIDS["tiny"][0])
    assert sorted(rows, key=repr) == sorted(expected, key=repr)
    full = WORKLOAD_CLASSES["sweep-default"](0, "full")
    assert len(full.queries) == 144 and len(full.point_sizes()) == 4151


def test_replay_calls_per_path_leaves_out_rejected_candidates():
    workload = WORKLOAD_CLASSES["classify-large"](3, "tiny")
    spanned, recorded, _ = worker.layer_functions()
    tracer = Tracer()
    tracer.install(spanned, recorded)
    try:
        results, _, _ = worker.run_pass(workload, tracer)
    finally:
        tracer.uninstall()
    verdicts = [v for r in results for v in workload.verdicts(r)]
    assert any(v.is_kleshchev for v in verdicts) and not all(v.is_kleshchev for v in verdicts)
    # Kernel calls made inside each is_kleshchev call, in call order.
    spans = tracer.spans
    kernel_calls = Counter(
        parent for name, _, _, parent in spans if name in {"kernel.verdicts", "kernel.good_node"}
    )
    per_call = [kernel_calls[i] for i, span in enumerate(spans) if span[0] == "simples.is_kleshchev"]
    assert len(per_call) == len(verdicts)
    assert all(calls == 1 for calls, v in zip(per_call, verdicts) if not v.is_kleshchev)
    assert all(calls > 2 * len(v.witness_path) for calls, v in zip(per_call, verdicts) if v.is_kleshchev)


def test_spans_cover_call_site_bindings_and_restore_them():
    workload = WORKLOAD_CLASSES["regime-pipeline"](3, "tiny")
    spanned, recorded, _ = worker.layer_functions()
    tracer = Tracer()
    tracer.install(spanned, recorded)
    try:
        results, _, _ = worker.run_pass(workload, tracer)
    finally:
        tracer.uninstall()
    assert cli.block_partition is blocks.block_partition is spanned["blocks.block_partition"]
    assert tracer.children_of("cli.run", {"blocks.block_partition"}) == len(workload.queries)
    layers = tracer.aggregate("query")
    roots = layers["query"][1]
    assert sum(entry[2] for entry in layers.values()) == pytest.approx(roots)
    assert worker.gate(workload, results, [])[1] == 0


def test_without_sources_exits_nonzero_and_prints_no_result():
    bare = os.path.join(RESULTS, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    try:
        proc = _run("classify-large", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_count_calls_sees_the_recursion_and_restores_it():
    original = oracle.oracle_kleshchev
    scheme = ParamScheme(m=1, e=0, classes=(0,), shifts=(0,))
    # (2) -> (1) -> () and (1,1) -> (1) -> (): three calls per partition.
    counts = count_calls({"k": original}, lambda: oracle.oracle_kind(scheme, 2))
    assert counts == {"k": 6}
    assert oracle.oracle_kleshchev is original
