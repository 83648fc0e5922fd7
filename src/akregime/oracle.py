"""Naive brute-force verifiers, independent of the fast modules.

The verifier half recomputes everything from the definitions: residues,
normal and good nodes, the Kleshchev recursion and the q = 1 criterion.  A
label's removable and addable nodes are found, grouped by residue, in one
top-to-bottom pass over each component, and the normal and good nodes are
then read off that grouping by the definition.
The Kleshchev search tree is walked in full for every label it reads (no
verdict is memoized); only each label's good-node children are computed
once per scheme.  `oracle_kind` stops at the second non-Kleshchev label
(`verdict_kind`): the kind only tells 0, 1 or at least 2 misses apart, and
a second miss already rules out the N - 1 simples of the almost-semisimple
regime, whatever the later labels are.  None of the verifier half calls into the kernel, simples or
blocks, so agreement between it and the fast path is a genuine two-route
check.  Only the multipartition enumeration is shared plumbing (it has its
own generating-function cross-check in the test suite).

The sweep half (`regime_locus`) runs three routes to a point's kind:
`structure.classify_regime`, which counts the simple modules by the
principal-specialization formula (`simples.kleshchev_count`) and makes at
most one single-label kernel call; the kernel's bulk verdicts
(`simples.simple_verdicts`); and the verifier's recursion.  It reads the
parameter-side regime test from `params`.  Each route takes the kind from
the simple modules it counts, which reads no relation, so a wrong shared
test still shows: a missed regime point makes `classify_regime` raise
InconsistentRegimeError, and an accepted point outside the regime is a
prediction mismatch.

The oracle runs first, and its reach (the labels it read in canonical
order: up to its second miss, or all of them) is the kernel's first call.
Both verdict routes read their kind with `verdict_kind`.  The kernel's kind
is still that of its verdicts on every label: two kernel misses in the
prefix decide OTHER, since misses only add up; a prefix of all the labels
is the full list; and when the oracle stopped early but the kernel found
fewer than two misses there, the kernel decides the remaining labels too.
So no check is weaker than deciding every label, and no label is decided
twice.

Beyond m and whether e = 1, the oracle reads the parameters only through
residues, which it compares for equality (to group nodes, or at e = 1 to
compare class labels).  The kernel route depends only on the same residue
pattern (`_residue_pattern`: m, n, whether e = 1 and the residues of
contents -n..n in each component, numbered in the order first met), and so
does `structure.classify_regime`:

- node (k, r, c) has the residue of content c - r in component k, and
  every removable or addable node of a label of size <= n has its content
  in -n..n, so two schemes with equal patterns group every node the kernel
  or the oracle visits alike;
- the formula's count equals the kernel's (tier-1 compares the two at every
  default grid point and on seeded schemes, and the sweep compares the
  kinds they give at every pattern it visits), so it is a function of the
  pattern too;
- a relation u_j = q^c u_i is the equality of component j's residue at
  content 0 with component i's residue at content c.  The windows
  therefore show every relation with |c| <= 2n, which covers the scan's
  |c| < n;
- at m = 1, `params.forced_label` reads e only as e = n or e = n - 1.
  Each of these is at most 2n, so the pattern's period fixes it, and
  e = 1 is a flag in the pattern.

So `regime_locus` runs the three routes once per residue pattern of the
grid, and only the parameter-side predictor at every point.
"""

from dataclasses import dataclass
from itertools import chain, product

from . import simples, structure
from .combinatorics import Multipartition, enumerate_multipartitions
from .params import ParamScheme, forced_label
from .structure import ALMOST_SEMISIMPLE, OTHER, SEMISIMPLE


# ---------------------------------------------------------------------------
# First-principles helpers (deliberate duplicates of the fast-path logic).

def _residue(scheme: ParamScheme, k: int, row: int, col: int) -> tuple[int, int]:
    exp = scheme.shifts[k - 1] + col - row
    if scheme.e > 0:
        exp = exp % scheme.e
    return (scheme.classes[k - 1], exp)


def _is_below(y, x) -> bool:
    """Node y below node x: later component, or same component lower row."""
    return (y[0], y[1]) > (x[0], x[1])


def _strictly_between(y, x, xp) -> bool:
    return _is_below(y, x) and _is_below(xp, y)


def _nodes_by_residue(scheme: ParamScheme, mp: Multipartition):
    """Removable and addable nodes of mp, each grouped by residue, found in
    one top-to-bottom pass over each component.  Every list runs top to
    bottom, and the removable residues are keyed in the order first met."""
    rem: dict = {}
    add: dict = {}
    e = scheme.e
    for k, part in enumerate(mp, start=1):
        cls = scheme.classes[k - 1]
        shift = scheme.shifts[k - 1]
        above = None
        for r, (here, below) in enumerate(zip(part, part[1:] + (0,)), start=1):
            # Rows never grow downwards, so a row differing from the one
            # above it (or the top row) has an addable node at its end.
            if here != above:
                exp = shift + here + 1 - r
                add.setdefault((cls, exp % e if e else exp), []).append((k, r, here + 1))
            if here > below:
                exp = shift + here - r
                rem.setdefault((cls, exp % e if e else exp), []).append((k, r, here))
            above = here
        exp = shift - len(part)
        add.setdefault((cls, exp % e if e else exp), []).append((k, len(part) + 1, 1))
    return rem, add


def oracle_good_node(scheme: ParamScheme, mp: Multipartition, residue, nodes=None):
    """Good node of the residue, from the definition, or None.  `nodes` is
    mp's `_nodes_by_residue`, computed here when not given."""
    rem_by, add_by = nodes if nodes is not None else _nodes_by_residue(scheme, mp)
    rem = rem_by.get(residue, ())
    add = add_by.get(residue, ())
    for x in rem:
        normal = True
        for xp in add:
            if not _is_below(xp, x):
                continue
            n_rem = sum(1 for y in rem if _strictly_between(y, x, xp))
            n_add = sum(1 for y in add if _strictly_between(y, x, xp))
            if n_rem <= n_add:
                normal = False
                break
        if normal:
            return x
    return None


def _without(mp, node):
    k, r, _ = node
    part = mp[k - 1]
    shrunk = part[r - 1] - 1
    rows = part[: r - 1] + ((shrunk,) if shrunk else ()) + part[r:]
    return mp[: k - 1] + (rows,) + mp[k:]


def _good_children(scheme: ParamScheme, mp: Multipartition):
    """mp minus its good node of each removable residue that has one, in
    first-seen residue order."""
    nodes = _nodes_by_residue(scheme, mp)
    children = []
    for res in nodes[0]:
        good = oracle_good_node(scheme, mp, res, nodes)
        if good is not None:
            children.append(_without(mp, good))
    return children


def oracle_kleshchev(scheme: ParamScheme, mp: Multipartition, children=None) -> bool:
    """Plain recursive Kleshchev evaluation.  e != 1.

    The search tree is walked in full: no verdict is memoized.  `children`
    maps a label to its `_good_children` under this scheme; callers that
    test many labels of one scheme share one dict, so each label's good
    nodes are found once."""
    if not any(mp):
        return True
    if children is None:
        children = {}
    below = children.get(mp)
    if below is None:
        below = children[mp] = _good_children(scheme, mp)
    for child in below:
        if oracle_kleshchev(scheme, child, children):
            return True
    return False


def _q1_nonzero(scheme: ParamScheme, mp: Multipartition) -> bool:
    for s in range(scheme.m):
        for t in range(s + 1, scheme.m):
            if scheme.classes[s] == scheme.classes[t] and mp[s]:
                return False
    return True


def _label_verdicts(scheme: ParamScheme, n: int):
    """Whether each m-multipartition of n indexes a simple module, in
    canonical label order: the q = 1 criterion at e = 1, otherwise the
    Kleshchev recursion with one `children` dict shared by every label."""
    mps = enumerate_multipartitions(scheme.m, n)
    if scheme.e == 1:
        return (_q1_nonzero(scheme, mp) for mp in mps)
    children: dict = {}
    return (oracle_kleshchev(scheme, mp, children) for mp in mps)


def verdict_kind(verdicts) -> tuple[str, int]:
    """The kind of a stream of per-label verdicts (True for a simple
    module), read in order, and how many verdicts were read.

    Reading stops at the second miss (False): two misses already mean at
    most N - 2 simples, and no later verdict can raise the count back, so
    the kind is OTHER.  Without a second miss every verdict has been read,
    and 0 or 1 misses give SEMISIMPLE or ALMOST_SEMISIMPLE exactly."""
    misses = read = 0
    for simple in verdicts:
        read += 1
        if not simple:
            misses += 1
            if misses == 2:
                return OTHER, read
    return (SEMISIMPLE if misses == 0 else ALMOST_SEMISIMPLE), read


def oracle_kind(scheme: ParamScheme, n: int, *, reach: list | None = None) -> str:
    """SEMISIMPLE when every label indexes a simple module, ALMOST_SEMISIMPLE
    when exactly one does not, OTHER otherwise, read off the oracle's
    verdicts in canonical label order by `verdict_kind`.

    When `reach` is a list, the number of labels read is appended to it:
    up to and including the second non-Kleshchev label, or all of them."""
    kind, read = verdict_kind(_label_verdicts(scheme, n))
    if reach is not None:
        reach.append(read)
    return kind


# ---------------------------------------------------------------------------
# Sweep grid and the regime locus.

@dataclass(frozen=True)
class SweepGrid:
    m_values: tuple[int, ...] = (1, 2, 3)
    n_values: tuple[int, ...] = (2, 3, 4)
    e_values: tuple[int, ...] | None = None  # None: 0..2n+1 per n
    class_patterns: tuple[str, ...] = ("all-same", "all-distinct", "one-merged-pair")

    def __post_init__(self):
        # A repeated value would put its grid points into the locus twice.
        for key, values in (("m", self.m_values), ("n", self.n_values), ("e", self.e_values)):
            if values is not None and len(set(values)) != len(values):
                text = ",".join(str(v) for v in values)
                raise ValueError(f"grid key {key!r} repeats a value: {text!r}")


@dataclass(frozen=True)
class GridPointResult:
    m: int
    n: int
    scheme: ParamScheme
    fast_kind: str
    kernel_kind: str
    oracle_kind: str
    agree: bool
    predicted_regime: bool
    predicted_match: bool


def _class_tuples(m: int, patterns) -> list[tuple[int, ...]]:
    out = []
    if "all-same" in patterns:
        out.append((0,) * m)
    if "all-distinct" in patterns:
        out.append(tuple(range(m)))
    if "one-merged-pair" in patterns and m >= 2:
        # Component b joins a's class; the labels after b close the gap.
        out.extend(
            tuple(a if k == b else k - (k > b) for k in range(m))
            for a in range(m)
            for b in range(a + 1, m)
        )
    return list(dict.fromkeys(out))


def _shift_tuples(m: int, n: int, e: int) -> list[tuple[int, ...]]:
    """One shift tuple per global translation class, in lexicographic order:
    for e >= 1 the tuples of range(e)^m starting with 0 (a rotation mod e
    moves the first shift to 0), for e = 0 the tuples of range(2n)^m with
    least entry 0."""
    if e >= 1:
        return [(0,) + rest for rest in product(range(e), repeat=m - 1)]
    return [shifts for shifts in product(range(2 * n), repeat=m) if min(shifts) == 0]


def _class_tuple_count(m: int, patterns) -> int:
    """len(_class_tuples(m, patterns)) without building the tuples, which
    at m = 800 would be 319,602 tuples of 800 entries: the all-same and
    all-distinct tuples coincide at m = 1, and at m = 2 the one merged pair
    is the all-same tuple."""
    same = "all-same" in patterns
    count = same + ("all-distinct" in patterns and not (same and m == 1))
    if "one-merged-pair" in patterns and m >= 2:
        count += m * (m - 1) // 2 - (same and m == 2)
    return count


def _shift_tuple_count(m: int, n: int, e: int, cap: int) -> int:
    """len(_shift_tuples(m, n, e)) without listing them, or cap + 1 when it
    is surely larger: e^(m-1) tuples start with 0, and (2n)^m - (2n-1)^m
    tuples of range(2n)^m contain 0.  Either count is at least base^(m-1)
    for base e or 2n, so a power with more bits than cap is not taken."""
    base = e if e >= 1 else 2 * n
    if (m - 1) * (base.bit_length() - 1) > cap.bit_length():
        return cap + 1
    if e >= 1:
        return e ** (m - 1)
    return (2 * n) ** m - (2 * n - 1) ** m


def _e_values(grid: SweepGrid, n: int):
    return grid.e_values if grid.e_values is not None else range(2 * n + 2)


def grid_point_counts(grid: SweepGrid, cap: int):
    """(m, n, points) for each (m, n) of the grid, in grid order: how many
    points `grid_points` yields there, from counts alone.  A count over cap
    may be reported as any number over cap."""
    for m in grid.m_values:
        classes = _class_tuple_count(m, grid.class_patterns)
        for n in grid.n_values:
            shifts = sum(_shift_tuple_count(m, n, e, cap) for e in _e_values(grid, n))
            yield m, n, classes * shifts


def grid_points(grid: SweepGrid):
    """Deterministic stream of (m, n, ParamScheme) over the grid, with
    shift tuples deduplicated by global translation."""
    for m in grid.m_values:
        for n in grid.n_values:
            for e in _e_values(grid, n):
                shift_tuples = _shift_tuples(m, n, e)
                for classes in _class_tuples(m, grid.class_patterns):
                    for shifts in shift_tuples:
                        yield m, n, ParamScheme(m=m, e=e, classes=classes, shifts=shifts)


def _predicted_regime(scheme: ParamScheme, n: int) -> bool:
    """The parameter-side characterization of the regime: whether
    `params.forced_label` names a label.  For m >= 2 that is a unique
    relation u_j = q^(+-(n-1)) u_i, which implies the other conditions
    (see there); for m = 1 it is order n or n - 1 >= 2.

    At n = 1 the algebra is commutative and its simple modules are counted
    by the distinct u_i, whatever q is: for m >= 2 the unique relation
    (then c = 0, one coincidence u_i = u_j) is the whole condition, and
    m = 1 is never in the regime."""
    return forced_label(scheme, n) is not None


def _residue_pattern(scheme: ParamScheme, n: int) -> tuple:
    """The key under which `regime_locus` shares one run of its three
    routes: m, n, whether e = 1, and the residues of contents -n..n in each
    component, numbered in the order first met.  The module docstring says
    why schemes with equal keys get equal kinds."""
    numbers: dict = {}
    pattern = tuple(
        numbers.setdefault(_residue(scheme, k, 1, 1 + d), len(numbers))
        for k in range(1, scheme.m + 1)
        for d in range(-n, n + 1)
    )
    return (scheme.m, n, scheme.e == 1, pattern)


def _kernel_kind(scheme: ParamScheme, n: int, reach: int) -> str:
    """The kind of the kernel's verdicts on every label, deciding first only
    the first `reach` labels in canonical order (the oracle's reach).

    Both calls' verdicts are read in order as one lazy stream, so the
    second call, on the rest, is made only when `verdict_kind` reads past
    the prefix without a second miss.  The kind is always that of the full
    verdict list, and no label is decided twice."""
    labels = enumerate_multipartitions(scheme.m, n)
    calls = (
        simples.simple_verdicts(scheme, part)
        for part in (labels[:reach], labels[reach:])
        if part
    )
    return verdict_kind(chain.from_iterable(calls))[0]


def regime_locus(grid: SweepGrid) -> list[GridPointResult]:
    """One GridPointResult per point of `grid_points(grid)`, in that order.

    fast_kind comes from structure.classify_regime (the formula's count),
    oracle_kind from the naive recursion and kernel_kind from the kernel's
    verdicts (`_kernel_kind`), which decide the labels up to the oracle's
    second miss and the rest only when the kind needs them.  Each runs
    once per `_residue_pattern` and is reused at the pattern's later points
    (the module docstring says why both are exact).  A point agrees
    when all three kinds are equal.  predicted_regime, the parameter-side
    condition set, is evaluated at every point.  The pattern-to-kinds dict
    lives for this call only.  Disagreements are recorded, never suppressed.
    """
    rows = []
    kinds: dict = {}
    for m, n, scheme in grid_points(grid):
        pattern = _residue_pattern(scheme, n)
        routes = kinds.get(pattern)
        if routes is None:
            reach: list = []
            naive_kind = oracle_kind(scheme, n, reach=reach)
            routes = kinds[pattern] = (
                structure.classify_regime(scheme, n).kind,
                _kernel_kind(scheme, n, reach[0]),
                naive_kind,
            )
        fast_kind, kernel_kind, naive_kind = routes
        predicted = _predicted_regime(scheme, n)
        rows.append(
            GridPointResult(
                m=m,
                n=n,
                scheme=scheme,
                fast_kind=fast_kind,
                kernel_kind=kernel_kind,
                oracle_kind=naive_kind,
                agree=fast_kind == kernel_kind == naive_kind,
                predicted_regime=predicted,
                predicted_match=(fast_kind == ALMOST_SEMISIMPLE) == predicted,
            )
        )
    return rows


def locus_summary(rows) -> dict[str, int]:
    return {
        "points": len(rows),
        "regime_points": sum(1 for r in rows if r.fast_kind == ALMOST_SEMISIMPLE),
        "disagreements": sum(1 for r in rows if not r.agree),
        "prediction_mismatches": sum(1 for r in rows if not r.predicted_match),
    }
