"""One benchmark process: set up a workload, run it, check the results and
print one JSON object on stdout.

    python3 perfbench/worker.py --workload NAME --seed N --size full|tiny
        --seconds S --mode setup|measure|trace --t0 T [--spans PATH]

`--spans` names the file trace mode writes its spans to; it is required
in trace mode.

`--t0` is the parent's `time.monotonic()` taken just before it started this
interpreter.  CLOCK_MONOTONIC is system-wide on Linux, so `setup_s` covers
interpreter start, imports and input generation, as a CLI user pays them.

    setup    set up, report setup_s, exit
    measure  set up, then whole passes over the queries while at least half
             of the next fits in --seconds (at least MIN_PASSES), then the
             correctness gate
    trace    wrap the akregime modules in spans, set up, run one pass,
             unwrap, then the gate and the per-layer figures

Every run reports every per-layer metric; a layer that the workload does not
reach reads 0, and so does kernel.verdicts_s.c when the compiled kernel is
not built.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_PASSES = 2

# Per-layer metrics and their units, in the order they are reported.
LAYER_UNITS = {
    "oracle.kind_s": "s",
    "oracle.kleshchev_calls": "count",
    "oracle.good_node_calls": "count",
    "oracle.predicted_s": "s",
    "sweep.oracle_share": "ratio",
    "structure.classify_s": "s",
    "kernel.verdicts_s": "s",
    "kernel.verdict_calls": "count",
    "kernel.labels": "count",
    "kernel.labels_per_s": "1/s",
    "kernel.good_node_calls": "count",
    "kernel.verdicts_s.python": "s",
    "kernel.verdicts_s.c": "s",
    "simples.simple_count_s": "s",
    "simples.is_kleshchev_s": "s",
    "simples.replay_calls_per_path": "calls/step",
    "combinatorics.enumerate_s": "s",
    "combinatorics.enum_cache_hit_ratio": "ratio",
    "blocks.block_partition_s": "s",
    "structure.block_structure_s": "s",
    "structure.audit_s": "s",
    "bn.build_s": "s",
    "bn.check_s": "s",
    "cli.run_s": "s",
    "cli.calls": "count",
    "trace.overhead_ratio": "ratio",
    "trace.self_time_ratio": "ratio",
}


def use_checkout_source():
    """Import akregime from this checkout's src/ and from nowhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import akregime

    if not os.path.abspath(akregime.__file__).startswith(SRC + os.sep):
        raise ImportError(f"akregime comes from {akregime.__file__}, not from {SRC}")
    return akregime


def c_kernel():
    """The compiled kernel module, or None when it is not built."""
    try:
        from akregime._kernel import _ckernel
    except ImportError:
        return None
    return _ckernel


def run_pass(workload, tracer=None):
    """One pass over the queries: (results, per-query seconds, pass seconds).
    A query that raises yields a `Failure` and counts against the gate."""
    from workloads import Failure

    span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    results, latencies = [], []
    start = perf_counter()
    for item in workload.queries:
        t0 = perf_counter()
        try:
            with span("query"):
                result = workload.query(item)
        except Exception as exc:  # counted as a failed query, never fatal
            result = Failure(exc)
        latencies.append(perf_counter() - t0)
        results.append(result)
    return results, latencies, perf_counter() - start


def gate(workload, results, repeat_mismatches):
    """Check one pass in full; `repeat_mismatches` holds, for each later
    pass, the indices whose result differed from this pass.  Returns
    (attempted, failed, reasons, run_ok)."""
    from workloads import Failure

    bad = set()
    reasons = []
    for idx, (item, result) in enumerate(zip(workload.queries, results)):
        reason = result.reason if isinstance(result, Failure) else workload.check(item, result)
        if reason is not None:
            bad.add(idx)
            reasons.append(reason)
    run_reasons = workload.check_run(results)
    failed = len(bad) + sum(len(bad | set(mismatch)) for mismatch in repeat_mismatches)
    attempted = len(results) * (1 + len(repeat_mismatches))
    if any(repeat_mismatches):
        reasons.append("a later pass gave other results than the first")
    return attempted, failed, reasons + run_reasons, not run_reasons


def p90(values):
    """The 90th percentile, interpolated between neighbours.

    On a shared host the CPU's speed wanders, with spells faster than its
    usual plateau; how much of a run they cover changes from run to run.  The slow end of
    repeated timings sits on the plateau and moves less than their median
    does.  So a query's latency is the 90th percentile of its passes,
    wall_s is the sum of those latencies, and setup_s is the 90th
    percentile of its samples."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def measure(workload, seconds):
    """Whole passes while at least half of the next one fits in `seconds`,
    then the gate on the first pass; later passes must repeat it exactly."""
    pass_times, by_pass, mismatches = [], [], []
    first = None
    phase_start = perf_counter()
    while len(pass_times) < MIN_PASSES or (
        perf_counter() - phase_start + statistics.median(pass_times) / 2 <= seconds
    ):
        gc.collect()
        results, lat, wall = run_pass(workload)
        pass_times.append(wall)
        by_pass.append(lat)
        if first is None:
            first = results
        else:
            mismatches.append([i for i, (a, b) in enumerate(zip(first, results)) if a != b])
        # Otherwise this pass's results stay alive through the next pass, and
        # peak_rss_mb would grow with the number of passes.
        del results
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, reasons, run_ok = gate(workload, first, mismatches)
    latencies = [p90(lat) for lat in zip(*by_pass)]
    return {
        "wall_s": sum(latencies),
        "median_pass_s": statistics.median(pass_times),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_p90_ms": p90(latencies) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "passes": len(pass_times),
        "pass_s": pass_times,
        "query_s": by_pass,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons[:5],
        "run_ok": run_ok,
    }


def layer_functions():
    """(spanned, recorded, counted): the functions timed in spans, the span
    names whose calls are kept for replay, and the recursions counted in
    the replay."""
    from akregime import _kernel, blocks, bn, cli, combinatorics, oracle, simples, structure
    from akregime._kernel import pykernel

    spanned = {
        "combinatorics.enumerate": combinatorics.enumerate_multipartitions,
        "kernel.verdicts": _kernel.kleshchev_verdicts,
        "kernel.good_node": _kernel.good_node,
        "simples.simple_count": simples.simple_count,
        "simples.is_kleshchev": simples.is_kleshchev,
        "structure.classify": structure.classify_regime,
        "structure.block_structure": structure.block_structure,
        "structure.audit": structure.hecke_dimension_audit,
        "blocks.block_partition": blocks.block_partition,
        "bn.build": bn.build_bn,
        "bn.check": bn.regular_representation_consistent,
        "cli.run": cli.run,
        "oracle.kind": oracle.oracle_kind,
        "oracle.predicted": oracle._predicted_regime,
    }
    recorded = ("kernel.verdicts", "kernel.good_node", "oracle.kind")
    counted = {
        "oracle.kleshchev": oracle.oracle_kleshchev,
        "oracle.good_node": oracle.oracle_good_node,
        "kernel.good_index": pykernel._good_index,
    }
    return spanned, recorded, counted


def replay_calls(calls):
    """Repeat the recorded oracle and kernel calls, untimed.  The kernel
    calls go to the pure kernel, whose good-node evaluations are counted."""
    from akregime import oracle
    from akregime._kernel import pykernel

    for args in calls["oracle.kind"]:
        oracle.oracle_kind(*args)
    for args in calls["kernel.verdicts"]:
        pykernel.kleshchev_verdicts(*args)
    for args in calls["kernel.good_node"]:
        pykernel.good_node(*args)


def time_kernels(workload):
    """Bulk verdicts of the pure and, when built, the compiled kernel over
    the workload's label sets: (python seconds, c seconds, mismatches)."""
    from akregime._kernel import pykernel

    compiled = c_kernel()
    py_s = c_s = 0.0
    mismatches = 0
    for args in workload.label_sets():
        t0 = perf_counter()
        expected = pykernel.kleshchev_verdicts(*args)
        py_s += perf_counter() - t0
        if compiled is not None:
            t0 = perf_counter()
            got = compiled.kleshchev_verdicts(*args)
            c_s += perf_counter() - t0
            mismatches += list(got) != list(expected)
    return py_s, c_s, mismatches


def trace(workload_cls, seed, size, spans_path):
    from spans import Tracer, count_calls
    from workloads import Failure

    from akregime import combinatorics

    enumerate_cache = combinatorics.enumerate_multipartitions  # keeps cache_info
    spanned, recorded, counted = layer_functions()
    tracer = Tracer()
    tracer.install(spanned, recorded)
    with tracer.span("setup"):
        workload = workload_cls(seed, size)
    gc.collect()
    results, _, wall = run_pass(workload, tracer)
    cache = enumerate_cache.cache_info()
    tracer.uninstall()
    # The recursions are counted in an untimed replay of the recorded calls:
    # a counter on each of their ~10^6 calls would inflate the spans above.
    counts = count_calls(counted, lambda: replay_calls(tracer.calls))
    labels = sum(len(args[3]) for args in tracer.calls["kernel.verdicts"])

    layers = tracer.aggregate("query")
    setup_layers = tracer.aggregate("setup")

    def calls(name):
        return layers.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return layers.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return layers.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    attempted, failed, reasons, run_ok = gate(workload, results, [])
    py_s, c_s, kernel_mismatches = time_kernels(workload)
    if kernel_mismatches:
        run_ok = False
        reasons.append(f"pure and compiled kernels differ on {kernel_mismatches} label sets")
    verdicts = [v for r in results if not isinstance(r, Failure) for v in workload.verdicts(r)]
    steps = sum(len(v.witness_path) for v in verdicts)
    # A rejected candidate costs is_kleshchev one verdict call and has no
    # path; what is left are the calls made while replaying witness paths.
    rejected = sum(not v.is_kleshchev for v in verdicts)
    metrics = {
        "oracle.kind_s": total("oracle.kind"),
        "oracle.kleshchev_calls": counts["oracle.kleshchev"],
        "oracle.good_node_calls": counts["oracle.good_node"],
        "oracle.predicted_s": total("oracle.predicted"),
        "structure.classify_s": own("structure.classify"),
        "kernel.verdicts_s": total("kernel.verdicts"),
        "kernel.verdict_calls": calls("kernel.verdicts"),
        "kernel.labels": labels,
        "kernel.labels_per_s": ratio(labels, total("kernel.verdicts")),
        # Good-node evaluations the pure kernel makes for the same calls,
        # whichever backend ran them.
        "kernel.good_node_calls": counts["kernel.good_index"],
        "kernel.verdicts_s.python": py_s,
        "kernel.verdicts_s.c": c_s,
        "simples.simple_count_s": own("simples.simple_count"),
        "simples.is_kleshchev_s": total("simples.is_kleshchev"),
        "simples.replay_calls_per_path": ratio(
            tracer.children_of("simples.is_kleshchev", {"kernel.verdicts", "kernel.good_node"})
            - rejected,
            steps,
        ),
        "combinatorics.enumerate_s": total("combinatorics.enumerate")
        + setup_layers.get("combinatorics.enumerate", (0, 0.0, 0.0))[1],
        "combinatorics.enum_cache_hit_ratio": ratio(cache.hits, cache.hits + cache.misses),
        "blocks.block_partition_s": total("blocks.block_partition"),
        "structure.block_structure_s": total("structure.block_structure"),
        "structure.audit_s": total("structure.audit"),
        "bn.build_s": total("bn.build"),
        "bn.check_s": total("bn.check"),
        "cli.run_s": own("cli.run"),
        "cli.calls": calls("cli.run"),
    }
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with open(spans_path, "w") as fh:
        json.dump(
            {
                "fields": ["name", "start_s", "end_s", "parent"],
                "spans": [[n, s - origin, e - origin, p] for n, s, e, p in tracer.spans],
                "counts": counts,
            },
            fh,
        )
    return {
        "metrics": metrics,
        "traced_wall_s": wall,
        "layer_self_s": sum(v[2] for k, v in layers.items() if k != "query"),
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons[:5],
        "run_ok": run_ok,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--spans", help="where trace mode writes its spans")
    args = parser.parse_args(argv)
    if args.mode == "trace" and args.spans is None:
        parser.error("trace mode needs --spans")

    akregime = use_checkout_source()
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    if args.mode == "trace":
        out = trace(workload_cls, args.seed, args.size, args.spans)
    else:
        workload = workload_cls(args.seed, args.size)
        out = {"setup_s": time.monotonic() - args.t0}
        if args.mode == "measure":
            out.update(measure(workload, args.seconds))
            out["queries"] = len(workload.queries)
            out["labels"] = workload.label_count()
    out["backend"] = akregime.KERNEL_BACKEND
    out["c_kernel_built"] = c_kernel() is not None
    print(json.dumps(out))


if __name__ == "__main__":
    main()
