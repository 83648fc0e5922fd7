"""The three benchmark workloads.

Each workload makes its inputs from a seed, answers one query at a time and
checks the answers afterwards, outside the timed phase.  A query calls the
akregime modules through their module attributes at call time, so the spans
that `spans.Tracer` installs see every call.

Queries run in a shuffled order.  Per-query cost clusters by (m, n); in
generation order a change in machine speed during one cluster would move
the latency percentiles by more than it moves the total time.

    sweep-default    the full default grid that `akregime sweep` and the
                     acceptance suite run; the oracle does most of the work
    classify-large   `classify_regime` on 200-2000 labels per point plus
                     witness paths; the kernel does most of the work
    regime-pipeline  the point verbs and `bn-algebra` through `cli.run`; the
                     only workload that reaches blocks, bn and cli
"""

import random
from contextlib import redirect_stderr
from dataclasses import replace
from io import StringIO

from akregime import _kernel, cli, combinatorics, oracle, simples, structure
from akregime.blocks import lambda_family
from akregime.params import ParamScheme
from akregime.structure import ALMOST_SEMISIMPLE, family_orientation


class Failure:
    """Stands in for the result of a query that raised."""

    def __init__(self, exc: BaseException):
        self.reason = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Failure) and other.reason == self.reason


class Workload:
    """Base: `queries` is the list of inputs, one query per entry."""

    name = ""
    queries: list

    def query(self, item):
        raise NotImplementedError

    def check(self, item, result) -> str | None:
        """None when the result is correct, else the reason it is not."""
        raise NotImplementedError

    def check_run(self, results) -> list[str]:
        """Checks on one whole pass; reasons for each failed check."""
        return []

    def label_count(self) -> int:
        """Multipartitions over all query points of one pass."""
        return sum(
            combinatorics.multipartition_count(m, n) for m, n in self.point_sizes()
        )

    def point_sizes(self):
        raise NotImplementedError

    def verdicts(self, result) -> tuple:
        """The `is_kleshchev` verdicts in one result (classify-large only)."""
        return ()

    def label_sets(self):
        """(e, classes, shifts, labels) per point, for timing the kernels
        side by side (classify-large only)."""
        return []


class SweepDefault(Workload):
    """One query is `oracle.regime_locus` on the sub-grid of one (m, n, e)
    and one class pattern: fast path, naive oracle and the parameter-side
    prediction for every shift pattern there.  The sub-grids partition the
    grid, so a pass is the whole grid, once: 144 queries and 4151 points at
    full size, enough that 14 queries lie beyond query_p90_ms.  The grid is
    fixed, so the seed is ignored."""

    name = "sweep-default"
    # (grid, expected locus summary); the tiny grid is `m=1,2;n=2,3`.
    GRIDS = {
        "full": (oracle.SweepGrid(), dict(points=4151, regime_points=557)),
        "tiny": (
            oracle.SweepGrid(m_values=(1, 2), n_values=(2, 3)),
            dict(points=136, regime_points=19),
        ),
    }

    def __init__(self, seed: int, size: str):
        grid, expected = self.GRIDS[size]
        self.expected = dict(expected, disagreements=0, prediction_mismatches=0)
        self.queries = [
            replace(grid, m_values=(m,), n_values=(n,), e_values=(e,), class_patterns=patterns)
            for m in grid.m_values
            for patterns in _pattern_groups(m, grid.class_patterns)
            for n in grid.n_values
            for e in (grid.e_values if grid.e_values is not None else range(2 * n + 2))
        ]
        random.Random(0).shuffle(self.queries)

    def query(self, item):
        return tuple(oracle.regime_locus(item))

    def check(self, item, result):
        for row in result:
            where = f"{row.scheme.describe()} n={row.n}"
            if not row.agree:
                return f"{where}: fast {row.fast_kind} oracle {row.oracle_kind}"
            if not row.predicted_match:
                return f"{where}: prediction mismatch"
        return None

    def check_run(self, results):
        rows = [row for r in results if not isinstance(r, Failure) for row in r]
        summary = oracle.locus_summary(rows)
        if summary != self.expected:
            return [f"locus summary {summary} != {self.expected}"]
        return []

    def point_sizes(self):
        return [(m, n) for grid in self.queries for m, n, _ in oracle.grid_points(grid)]


def _pattern_groups(m: int, patterns: tuple[str, ...]) -> list[tuple[str, ...]]:
    """Class patterns split into groups whose class tuples at this m are
    disjoint, dropping a pattern that only repeats earlier tuples (at m = 1
    every pattern gives (0,)).  A partial overlap keeps the patterns in one
    group, so the groups' points are the grid's, each once."""
    groups, seen = [], set()
    for pattern in patterns:
        tuples = set(oracle._class_tuples(m, (pattern,)))
        if tuples <= seen:
            continue
        if tuples & seen:
            return [patterns]
        groups.append((pattern,))
        seen |= tuples
    return groups


class ClassifyLarge(Workload):
    """One query is `classify_regime` on a point with 200-2000 labels plus
    `is_kleshchev` witness paths for up to WITNESS_PATHS seeded Kleshchev
    labels.  The kernel runs both ways: bulk verdicts sharing one memo, and
    single-label replay along each path.

    Every (m, n) bucket gets the same number of points, and every bucket the
    same mix of orders (infinite, small finite, >= 2n - 1), so the amount of
    work hardly moves with the seed; the seed picks the orders, class and
    shift patterns and the labels."""

    name = "classify-large"
    BUCKETS = {
        "full": (
            (1, 16), (1, 18), (1, 20), (1, 22), (1, 25),
            (2, 9), (2, 10), (2, 11), (2, 12),
            (3, 6), (3, 7), (3, 8), (3, 9),
            (4, 5), (4, 6), (4, 7),
        ),
        "tiny": ((1, 8), (2, 4), (3, 3), (4, 2)),
    }
    ORDER_MIX = ("infinite", "infinite", "infinite", "small", "small", "large", "large", "large")
    WITNESS_PATHS = 3
    CANDIDATES = 12

    def __init__(self, seed: int, size: str):
        rng = random.Random(seed)
        mix = self.ORDER_MIX if size == "full" else self.ORDER_MIX[::3]
        self.queries = []
        for m, n in self.BUCKETS[size]:
            labels = combinatorics.enumerate_multipartitions(m, n)
            for order in mix:
                scheme = _random_scheme(rng, m, n, order)
                candidates = tuple(
                    labels[i] for i in rng.sample(range(len(labels)), min(self.CANDIDATES, len(labels)))
                )
                permutation = tuple(rng.sample(range(m), m))
                self.queries.append((scheme, n, candidates, permutation))
        rng.shuffle(self.queries)

    def query(self, item):
        scheme, n, candidates, _ = item
        report = structure.classify_regime(scheme, n)
        verdicts = []
        found = 0
        for mp in candidates:
            verdict = simples.is_kleshchev(scheme, mp)
            verdicts.append(verdict)
            found += verdict.is_kleshchev
            if found == self.WITNESS_PATHS:
                break
        return report, tuple(verdicts)

    def check(self, item, result):
        scheme, n, _, permutation = item
        report, verdicts = result
        where = f"{scheme.describe()} n={n}"
        if (report.kind == ALMOST_SEMISIMPLE) != oracle._predicted_regime(scheme, n):
            return f"{where}: kind {report.kind} disagrees with the prediction"
        permuted = ParamScheme(
            m=scheme.m,
            e=scheme.e,
            classes=tuple(scheme.classes[k] for k in permutation),
            shifts=tuple(scheme.shifts[k] for k in permutation),
        )
        negated = ParamScheme(
            m=scheme.m, e=scheme.e, classes=scheme.classes, shifts=tuple(-s for s in scheme.shifts)
        )
        for variant in (permuted, negated):
            if simples.simple_count(variant, n)[0] != report.simple_count:
                return f"{where}: simple count changes under {variant.describe()}"
        labels = [verdict.multipartition for verdict in verdicts]
        shared_memo = _kernel.kleshchev_verdicts(scheme.e, scheme.classes, scheme.shifts, labels)
        for verdict, bulk in zip(verdicts, shared_memo):
            mp = verdict.multipartition
            if verdict.is_kleshchev != bulk:
                return f"{where}: single-label verdict on {mp} disagrees with the bulk verdict"
            current = mp
            for node, residue in verdict.witness_path:
                if oracle.oracle_good_node(scheme, current, residue) != tuple(node):
                    return f"{where}: path step {node} of {mp} is not the oracle's good node"
                current = combinatorics.remove_node(current, node)
            if verdict.is_kleshchev and combinatorics.mp_size(current):
                return f"{where}: witness path of {mp} stops at {current}"
        return None

    def point_sizes(self):
        return [(scheme.m, n) for scheme, n, _, _ in self.queries]

    def verdicts(self, result):
        return result[1]

    def label_sets(self):
        return [
            (scheme.e, scheme.classes, scheme.shifts, combinatorics.enumerate_multipartitions(scheme.m, n))
            for scheme, n, _, _ in self.queries
        ]


def _random_scheme(rng: random.Random, m: int, n: int, order: str) -> ParamScheme:
    if order == "infinite":
        e = 0
    elif order == "small":
        e = rng.randint(2, 5)
    else:
        e = rng.randint(2 * n - 1, 2 * n + 3)
    bound = e or 2 * n
    classes = [rng.randrange(m) for _ in range(m)]
    shifts = [rng.randrange(bound) for _ in range(m)]
    if m >= 2 and rng.random() < 0.25:
        # Plant a u_j = q^(n-1) u_i relation, so some points reach the
        # almost-semisimple checks of classify_regime.
        i, j = rng.sample(range(m), 2)
        classes[j] = classes[i]
        shifts[j] = shifts[i] + n - 1
    return ParamScheme(m=m, e=e, classes=tuple(classes), shifts=tuple(shifts))


class RegimePipeline(Workload):
    """One query runs the point verbs on one almost-semisimple point, then
    `bn-algebra --n`, all through `cli.run` in this process with
    `--format machine`."""

    name = "regime-pipeline"
    BUCKETS = ((2, 5), (2, 6), (3, 5), (3, 6))
    POINTS_PER_BUCKET = {"full": 26, "tiny": 2}
    POINT_VERBS = ("count-simples", "classify", "blocks", "block-structure", "audit")

    def __init__(self, seed: int, size: str):
        rng = random.Random(seed)
        self.queries = []
        for m, n in self.BUCKETS:
            for _ in range(self.POINTS_PER_BUCKET[size]):
                scheme = _regime_scheme(rng, m, n)
                point = ["--m", str(m), "--n", str(n), "--scheme", scheme.describe()]
                argvs = [[verb, *point, "--format", "machine"] for verb in self.POINT_VERBS]
                argvs.append(["bn-algebra", "--n", str(n), "--format", "machine"])
                self.queries.append((scheme, n, tuple(argvs)))
        rng.shuffle(self.queries)

    def query(self, item):
        outputs = []
        for argv in item[2]:
            out, err = StringIO(), StringIO()
            with redirect_stderr(err):
                code = cli.run(argv, out)
            outputs.append((code, out.getvalue() + err.getvalue()))
        return tuple(outputs)

    def check(self, item, result):
        scheme, n, argvs = item
        where = f"{scheme.describe()} n={n}"
        for argv, (code, text) in zip(argvs, result):
            if code != 0:
                return f"{where}: {argv[0]} exited {code}: {text.strip()}"
        counted, classified, blocks, structure_lines, audit, algebra = (
            _records(text) for _, text in result
        )
        report = classified[0]
        if report["kind"] != ALMOST_SEMISIMPLE:
            return f"{where}: classify says {report['kind']}"
        if counted[0]["non_simple"] != report["non_kleshchev"]:
            return f"{where}: count-simples and classify name different labels"
        i, j, c = (int(x) for x in report["witness"].strip("()").split(","))
        family = {
            cli.format_multipartition(mp)
            for mp in lambda_family(scheme, n, family_orientation((i, j, c)))
        }
        exceptional = int(blocks[0]["exceptional_index"])
        members = set(blocks[1 + exceptional]["members"].split("|"))
        if members != family:
            return f"{where}: exceptional block {sorted(members)} is not the lambda family"
        specht = next(d["specht_order"] for d in structure_lines if "specht_order" in d)
        if set(specht.split("|")) != family:
            return f"{where}: block-structure orders another family"
        if audit[0]["match"] != "true":
            return f"{where}: audit {audit[0]}"
        if algebra[0]["associativity"] != "pass" or int(algebra[0]["dim"]) != 4 * n - 2:
            return f"{where}: bn-algebra {algebra[0]}"
        return None

    def point_sizes(self):
        return [(scheme.m, n) for scheme, n, _ in self.queries]


def _records(text: str) -> list[dict[str, str]]:
    """The key=value records of machine output; table rows are skipped."""
    fields = (line.split("\t") for line in text.splitlines())
    return [dict(f.split("=", 1) for f in row) for row in fields if all("=" in f for f in row)]


def _regime_scheme(rng: random.Random, m: int, n: int) -> ParamScheme:
    """A seeded almost-semisimple point: a planted u_j = q^(+-(n-1)) u_i
    relation, kept only when the parameter-side characterization holds."""
    while True:
        e = rng.choice((0, 0, 2 * n - 1, 2 * n, 2 * n + 1, 3 * n))
        bound = e or 3 * n
        classes = [rng.randrange(m) for _ in range(m)]
        shifts = [rng.randrange(bound) for _ in range(m)]
        i, j = rng.sample(range(m), 2)
        classes[j] = classes[i]
        shifts[j] = shifts[i] + n - 1
        scheme = ParamScheme(m=m, e=e, classes=tuple(classes), shifts=tuple(shifts))
        if oracle._predicted_regime(scheme, n):
            return scheme


WORKLOADS = {cls.name: cls for cls in (SweepDefault, ClassifyLarge, RegimePipeline)}
