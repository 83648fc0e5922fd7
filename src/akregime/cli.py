"""Command-line surface.

Every verb is a thin shell over the library modules; no domain logic lives
here.  Two output formats: `table` for humans and `machine` for golden
tests (one record per line, tab-separated key=value pairs, multipartitions
as [(2),()]-style lists, matrices as semicolon-separated rows).

Exit codes: 0 success, 1 domain or usage errors (bad witness, q=1 blocks,
malformed parameter strings), 2 internal consistency failures (fast/oracle
disagreement, audit mismatch, regular-representation failure) and any
unexpected exception, reported on one line as `error: internal: <Type>:
<message>` without a traceback.

The argument parser is built once per process, on the first `run`, and
shared by every later call: parsing keeps no state in it (each call gets a
fresh namespace, and usage errors print to the `sys.stderr` of the moment).
Each verb takes only its own options: the point verbs --m, --n, --scheme,
--kappa; bn-algebra --n; sweep --grid; all of them --format.  When the
first argument names a verb, that verb's parser reads the rest in one
parse, and arguments it leaves over are refused by the top-level parser,
with its usage line, as a full parse refuses them; any other command line
(no verb, an unknown one, an option first) goes through the top-level
parser.

Before any enumeration, each point verb but `classify`, and `sweep
--grid` for each of its (m, n), counts the m-multipartitions of n by
generating function and exits 1 when there are more than LABEL_LIMIT.
Those point verbs also exit 1 when the labels hold more than
LABEL_SIZE_LIMIT components in all (labels times m).
`classify` lists no label, so it is charged the formula's own cost,
(m + 1) n^2 + m^2, and exits 1 when that is more than CLASSIFY_LIMIT.
`sweep` then counts its grid points per (m, n) and exits 1 when points
times labels, summed over the grid, is more than GRID_LIMIT.  `bn-algebra`
exits 1 when n is more than BN_LIMIT, before building B(n).

When the reader of stdout goes away (`... | head -1`), `main` exits 1
without a traceback.
"""

import argparse
import functools
import os
import sys

from . import bn as bn_mod
from . import oracle, structure
from .blocks import BadWitnessError, block_partition
from .combinatorics import Multipartition, Partition, multipartition_count
from .params import (
    KappaInput,
    ParamScheme,
    SchemeParseError,
    _parse_int,
    _split_fields,
    parse_kappa,
    parse_scheme,
    scheme_from_kappa,
)
from .simples import simple_count
from .structure import InconsistentRegimeError


# The most labels one (m, n) may have for count-simples, blocks,
# block-structure and audit: m = 3, n = 20 has 341,649, and its
# count-simples, which lists them, took about 1 s with 55 MB peak RSS on a
# 2-vCPU Xeon, and blocks, which keys and prints each part once per call,
# 1.6-2.4 s with 126 MB (block-structure and audit list none and took
# 0.2-0.3 s); all process included.  m = 3, n = 21 has 521,196.
LABEL_LIMIT = 350_000

# The most components that one (m, n)'s labels may hold in all, labels
# times m, for the same verbs: a label is an m-tuple, so its size grows
# with m.  m = 3, n = 20 holds 1,024,947 and m = 1000, n = 1 1,000,000;
# m = 800, n = 2 (321,200 labels) would hold 256,960,000, about 2 GB.
LABEL_SIZE_LIMIT = 3 * LABEL_LIMIT

# The most that classify's formula may cost, in units of (m + 1) n^2 + m^2:
# the roots of the m shifts' series up to height n (m n^2), the
# generating-function series of n^2 big-integer terms each, and the m^2
# pairs of the relation scan at a regime point whose components share one
# class (the scan pairs only components of one class).  m = 3, n = 30
# costs 3,609 and took 1-4 ms in process on a 2-vCPU Xeon.  Near the
# limit, the slowest schemes tried took 0.28-0.35 s in process at m = 1,
# n = 999, 0.60 s at m = 10, n = 426, 0.65 s at m = 100, n = 140 (0.72 s,
# process included), 0.42 s at m = 1000, n = 31 and 0.5-0.8 s at the
# regime point m = 1413, n = 1 with one class (shifts 0, 0, 1, ..., 1411);
# with classes 0, 0, 1, ..., 1411 instead it took 6-10 ms.  m = 1,
# n = 1414 (cost 4.0e6) took 1.5 s.
CLASSIFY_LIMIT = 2_000_000

# The most label-points (each grid point's label count, summed over the
# grid) one sweep may have; the default grid has 148,806.  What a
# label-point costs grows with n.  On a 2-vCPU Xeon the default grid swept
# in 0.75 s, m=3;n=5 (419,580) in 1.3 s, m=1;n=30 (347,448) in 21 s and
# m=1;n=34 (861,700) in 63 s with 75 MB peak RSS.  m=3;n=20 has about
# 4.9e10.
GRID_LIMIT = 1_000_000

# The largest n bn-algebra builds: B(n) has dimension 4n - 2 and 9n - 6
# nonzero products, and the regular-representation check joins the nonzero
# matrix entries over their shared index, in time linear in n.  In process
# on a 2-vCPU Xeon (best of five calls), building, checking and writing
# B(n) took about 1 ms at n = 50 and 2-3 ms at n = 100, with 17 MB peak
# RSS, which is the interpreter's own.
BN_LIMIT = 50


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are domain errors, exit 1
        self.print_usage(sys.stderr)
        raise SchemeParseError(message)


def format_part(part: Partition) -> str:
    return "(" + ",".join(map(str, part)) + ")"


def format_multipartition(mp: Multipartition, part_text=format_part) -> str:
    """The label as `[(2),()]`, each part written by `part_text`."""
    return "[" + ",".join(map(part_text, mp)) + "]"


def _format_labels(mps, part_text=format_part) -> str:
    return "|".join(format_multipartition(mp, part_text) for mp in mps or ()) or "none"


def format_matrix(rows) -> str:
    return ";".join(",".join(str(x) for x in row) for row in rows)


def _format_witness(witness) -> str:
    if witness is None:
        return "none"
    i, j, c = witness
    return f"({i},{j},{c:+d})"


def _write_pairs(out, pairs, fmt) -> None:
    """One record: a tab-separated line in machine format, else table lines."""
    if fmt == "machine":
        out.write("\t".join(f"{k}={v}" for k, v in pairs) + "\n")
    else:
        out.writelines(f"{k}: {v}\n" for k, v in pairs)


def _check_label_count(m: int, n: int) -> int:
    labels = multipartition_count(m, n, cap=LABEL_LIMIT)
    if labels > LABEL_LIMIT:
        raise ValueError(
            f"over-budget: m={m}, n={n} has more than {LABEL_LIMIT} labels "
            f"(m-multipartitions of n), the limit for one point"
        )
    return labels


def _check_budget(m: int, n: int) -> None:
    if _check_label_count(m, n) * m > LABEL_SIZE_LIMIT:
        raise ValueError(
            f"over-budget: m={m}, n={n} has more than {LABEL_SIZE_LIMIT} label "
            f"components (labels times m), the limit for one point"
        )


def _check_formula_budget(m: int, n: int) -> None:
    if (m + 1) * n * n + m * m > CLASSIFY_LIMIT:
        raise ValueError(
            f"over-budget: m={m}, n={n} costs classify's formula more than "
            f"{CLASSIFY_LIMIT} ((m + 1) n^2 + m^2), the limit for one point"
        )


def _check_grid_budget(grid: oracle.SweepGrid) -> None:
    # Each (m, n)'s label count is checked first, so every count below is
    # exact.  The labels' size is not charged apart: the points of one
    # (m, n, e) grow exponentially in m (192 at m = 5, n = 1, e = 2), so the
    # label-points bound it too.
    for m in grid.m_values:
        for n in grid.n_values:
            _check_label_count(m, n)
    label_points = 0
    for m, n, points in oracle.grid_point_counts(grid, GRID_LIMIT):
        label_points += points * multipartition_count(m, n, cap=LABEL_LIMIT)
        if label_points > GRID_LIMIT:
            raise ValueError(
                f"over-budget: the grid's label-points (each point's labels, summed "
                f"over the grid) pass {GRID_LIMIT}, the limit for one sweep, at m={m}, n={n}"
            )


def _resolve_params(args, check=_check_budget) -> tuple[ParamScheme, int, KappaInput | None]:
    """The point's scheme, n and kappa data, after `check(m, n)` passed."""
    if (args.scheme is None) == (args.kappa is None):
        raise SchemeParseError("exactly one of --scheme and --kappa is required")
    if args.scheme is not None:
        if args.m is None or args.n is None:
            raise SchemeParseError("--scheme requires --m and --n")
        scheme = parse_scheme(args.scheme, args.m)
        check(scheme.m, args.n)
        return scheme, args.n, None
    kappa = parse_kappa(args.kappa)
    if args.m is not None and args.m != kappa.m:
        raise SchemeParseError("--m disagrees with the kappa string")
    if args.n is not None and args.n != kappa.n:
        raise SchemeParseError("--n disagrees with the kappa string")
    check(kappa.m, kappa.n)
    return scheme_from_kappa(kappa), kappa.n, kappa


def _cmd_count_simples(args, out) -> int:
    scheme, n, _ = _resolve_params(args)
    count, non_simple = simple_count(scheme, n)
    pairs = [
        ("m", scheme.m),
        ("n", n),
        ("e", scheme.e),
        ("simple_count", count),
        ("irrep_count", multipartition_count(scheme.m, n)),
        ("non_simple", _format_labels(non_simple)),
    ]
    _write_pairs(out, pairs, args.format)
    return 0


def _cmd_classify(args, out) -> int:
    scheme, n, kappa = _resolve_params(args, _check_formula_budget)
    report = structure.classify_regime(scheme, n, kappa=kappa)
    pairs = [
        ("kind", report.kind),
        ("simple_count", report.simple_count),
        ("irrep_count", report.irrep_count),
        ("witness", _format_witness(report.witness)),
        (
            "non_kleshchev",
            format_multipartition(report.non_kleshchev) if report.non_kleshchev else "none",
        ),
    ]
    if report.r is not None:
        pairs += [("r", report.r), ("dim_L_chi", report.dim_L_chi)]
    _write_pairs(out, pairs, args.format)
    return 0


def _cmd_blocks(args, out) -> int:
    scheme, n, _ = _resolve_params(args)
    partition = block_partition(scheme, n)
    exceptional = partition.exceptional_index
    head = [
        ("m", scheme.m),
        ("n", n),
        ("block_count", len(partition.blocks)),
        ("exceptional_index", exceptional if exceptional is not None else "none"),
    ]
    _write_pairs(out, head, args.format)
    part_text = functools.cache(format_part)  # each part's text once per call
    if args.format == "machine":
        for idx, block in enumerate(partition.blocks):
            members = _format_labels(block, part_text)
            out.write(f"block={idx}\tsize={len(block)}\tmembers={members}\n")
    else:
        for idx, block in enumerate(partition.blocks):
            members = " ".join(format_multipartition(mp, part_text) for mp in block)
            out.write(f"  block {idx} (size {len(block)}): {members}\n")
    return 0


def _regime_point(args) -> tuple[structure.RegimeReport, ParamScheme, int]:
    """The classified point; outside the almost-semisimple regime it is bad input."""
    scheme, n, kappa = _resolve_params(args)
    report = structure.classify_regime(scheme, n, kappa=kappa)
    if report.kind != structure.ALMOST_SEMISIMPLE:
        raise BadWitnessError(f"bad-witness: point is {report.kind}")
    return report, scheme, n


def _cmd_block_structure(args, out) -> int:
    bs = structure.block_structure(*_regime_point(args))
    pairs = [
        ("n", bs.n),
        ("specht_order", _format_labels(bs.specht_order)),
        ("simple_order", _format_labels(bs.simple_order)),
        ("decomposition", format_matrix(bs.decomposition)),
        ("cartan", format_matrix(bs.cartan)),
        ("hom_dims", format_matrix(bs.hom_dims)),
        ("kz_dims", ",".join(str(x) for x in bs.kz_dims)),
        ("pkz_multiplicities", ",".join(str(x) for x in bs.pkz_multiplicities)),
        ("exterior_dims", ",".join(str(x) for x in bs.exterior_dims)),
    ]
    for pair in pairs:
        _write_pairs(out, [pair], args.format)
    return 0


def _cmd_bn_algebra(args, out) -> int:
    if args.n is None:
        raise SchemeParseError("bn-algebra requires --n")
    if args.n > BN_LIMIT:
        raise ValueError(f"over-budget: n={args.n} is more than {BN_LIMIT}, the limit for B(n)")
    algebra = bn_mod.build_bn(args.n)
    consistent = bn_mod.regular_representation_consistent(algebra)
    pairs = [
        ("n", algebra.n),
        ("dim", algebra.dimension),
        ("associativity", "pass" if consistent else "fail"),
    ]
    _write_pairs(out, pairs, args.format)
    out.write(algebra.table_text() + "\n")
    return 0 if consistent else 2


def _cmd_sweep(args, out) -> int:
    grid = _parse_grid(args.grid) if args.grid else oracle.SweepGrid()
    _check_grid_budget(grid)
    rows = oracle.regime_locus(grid)
    summary = oracle.locus_summary(rows)
    if args.format == "machine":
        for row in rows:
            record = [
                ("m", row.m),
                ("n", row.n),
                ("scheme", row.scheme.describe()),
                ("kind", row.fast_kind),
                ("oracle_kind", row.oracle_kind),
                ("agree", str(row.agree).lower()),
                ("predicted_regime", str(row.predicted_regime).lower()),
                ("predicted_match", str(row.predicted_match).lower()),
            ]
            _write_pairs(out, record, "machine")
    _write_pairs(out, sorted(summary.items()), args.format)
    failures = summary["disagreements"] + summary["prediction_mismatches"]
    return 2 if failures else 0


def _cmd_audit(args, out) -> int:
    total, expected = structure.hecke_dimension_audit(*_regime_point(args))
    pairs = [
        ("total", total),
        ("expected", expected),
        ("match", str(total == expected).lower()),
    ]
    _write_pairs(out, pairs, args.format)
    return 0 if total == expected else 2


_GRID_MINIMA = {"m": 1, "n": 1, "e": 0}


def _parse_grid(text: str) -> oracle.SweepGrid:
    """Grid override `m=1,2;n=2,3;e=0,1,2` (e omitted: 0..2n+1 per n)."""
    fields = {}
    for key, (value, pos) in _split_fields(text, tuple(_GRID_MINIMA)).items():
        fields[key] = tuple(_parse_int(v, pos, f"{key!r} value") for v in value.split(","))
        if min(fields[key]) < _GRID_MINIMA[key]:
            raise SchemeParseError(
                f"grid key {key!r} takes values >= {_GRID_MINIMA[key]}: {value!r}"
            )
    grid = oracle.SweepGrid()
    return oracle.SweepGrid(
        m_values=fields.get("m", grid.m_values),
        n_values=fields.get("n", grid.n_values),
        e_values=fields.get("e"),
    )


_COMMANDS = {
    "count-simples": _cmd_count_simples,
    "blocks": _cmd_blocks,
    "classify": _cmd_classify,
    "block-structure": _cmd_block_structure,
    "bn-algebra": _cmd_bn_algebra,
    "sweep": _cmd_sweep,
    "audit": _cmd_audit,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The top-level parser; its `verbs` maps each verb to the verb's own
    parser."""
    parser = _Parser(
        prog="akregime",
        description="Exact simple-module and block classification for "
        "Ariki-Koike algebras at symbolic parameters.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    parser.verbs = {}
    for verb in _COMMANDS:
        p = parser.verbs[verb] = sub.add_parser(verb)
        if verb == "sweep":
            p.add_argument("--grid", type=str, default=None)
        elif verb == "bn-algebra":
            p.add_argument("--n", type=int, default=None)
        else:
            p.add_argument("--m", type=int, default=None)
            p.add_argument("--n", type=int, default=None)
            p.add_argument("--scheme", type=str, default=None)
            p.add_argument("--kappa", type=str, default=None)
        p.add_argument("--format", choices=("table", "machine"), default="table")
    return parser


def _parse(argv) -> argparse.Namespace:
    """The namespace that `build_parser().parse_args(argv)` gives, with
    one parse when argv[0] names a verb: that verb's parser reads the rest,
    and what it leaves is refused as the top-level parser refuses it."""
    parser = build_parser()
    verb_parser = parser.verbs.get(argv[0]) if argv else None
    if verb_parser is None:
        return parser.parse_args(argv)
    args, extras = verb_parser.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.verb = argv[0]
    return args


def run(argv, out) -> int:
    try:
        args = _parse(argv)
        return _COMMANDS[args.verb](args, out)
    except InconsistentRegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # every domain error subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        raise  # a closed stdout is handled by `main`
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        status = run(sys.argv[1:], sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so the flush at
        # interpreter exit cannot raise again, and report a failed write.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    main()
