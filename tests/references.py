"""Reference computations that only the tests call.

- `oracle_simple_count`: the oracle's count of simple modules, reading
  every label.
- `verify_lemmas`: the six content lemmas that pin down the exceptional
  block, each a search for a counterexample, under descriptive names:

      no-extra-relations          only the witness pair is q-power related
      contents-disjoint           component contents never meet
      content-determines-part     a component is recovered from its content
      outside-content-transfers   contents away from the witness pair match
      row-column-gap              u_i q^(a1) misses short family candidates
      witness-content-transfers   contents at the witness component match

  Their table reads `params.part_content`, as `content()` does.
- `multiply` and `associativity_violations`: B(n)'s products of
  combinations and its brute-force associativity check, the independent
  route that `bn.regular_representation_consistent` is compared with.
- `kleshchev_verdicts_per_label`: the kernel's bulk verdicts decided one
  label at a time, every class group of a label before the next label,
  the route that the group-wise `pykernel.kleshchev_verdicts` is compared
  with.
- `parse_through_top_level`: the command line read by the top-level
  parser alone, which hands the verb's arguments to the verb's parser;
  the route that `cli._parse` is compared with.
"""

from dataclasses import dataclass
from itertools import chain, combinations

from akregime import structure
from akregime._kernel import pykernel
from akregime.bn import BasicAlgebra, Combination
from akregime.cli import build_parser
from akregime.combinatorics import Multipartition, enumerate_multipartitions
from akregime.oracle import _label_verdicts, _residue
from akregime.params import ParamScheme, part_content, relations


def oracle_simple_count(scheme: ParamScheme, n: int) -> int:
    return sum(_label_verdicts(scheme, n))


# ---------------------------------------------------------------------------
# Content lemma suite.

@dataclass(frozen=True)
class LemmaReport:
    name: str
    counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def _witness_pair(scheme: ParamScheme, n: int) -> tuple[int, int]:
    """The pair (i, j) with u_j = q^(n-1) u_i, from the first relation with
    |c| = n - 1."""
    for relation in relations(scheme, n):
        if abs(relation[2]) == n - 1:
            return structure.family_orientation(relation)
    raise ValueError("no witness relation u_j = q^(n-1) u_i in the scheme")


def verify_lemmas(scheme: ParamScheme, n: int) -> dict[str, LemmaReport]:
    """Exhaustively instantiate the six content lemmas over all
    multipartitions (and pairs) of n.  Each lemma is a search for
    counterexamples, and its report carries the first one found, or none
    when the lemma holds.  Hypotheses assume the almost-semisimple standing
    assumption."""
    i, j = _witness_pair(scheme, n)
    mps = enumerate_multipartitions(scheme.m, n)
    components = range(1, scheme.m + 1)
    # The content table: each part's content in each component, and each
    # label's row of component contents.
    parts = sorted({part for mp in mps for part in mp})
    content = {(k, part): part_content(scheme, k, part) for k in components for part in parts}
    rows = {alpha: [content[k, part] for k, part in enumerate(alpha, 1)] for alpha in mps}
    # Ordered pairs of distinct labels with equal full content.
    groups: dict[tuple, list[Multipartition]] = {}
    for alpha, row in rows.items():
        groups.setdefault(tuple(sorted(chain.from_iterable(row))), []).append(alpha)
    pairs = [(a, b) for group in groups.values() for a in group for b in group if a != b]

    def missing(alpha, beta, k):
        # Residues of alpha's component k that beta's component k lacks.
        present = set(content[k, beta[k - 1]])
        return (x for x in content[k, alpha[k - 1]] if x not in present)

    def row_and_column(alpha):
        # a1, the first row of component i, and a2, the rows of component j.
        return (alpha[i - 1][0] if alpha[i - 1] else 0), len(alpha[j - 1])

    def no_extra_relations():
        # k outside the witness pair is never q-power related.
        for a, b, c in relations(scheme, n):
            if a not in (i, j) or b not in (i, j):
                yield f"u_{b} = q^{c} u_{a}"

    def contents_disjoint():
        # The component contents of one multipartition never meet.
        for alpha, row in rows.items():
            for r, s in combinations(range(scheme.m), 2):
                common = set(row[r]) & set(row[s])
                if common:
                    yield f"alpha={alpha} components {r + 1},{s + 1} share {tuple(min(common))}"

    def content_determines_part():
        # Within one component slot, content is injective.
        for k in components:
            by_content: dict[tuple, list[tuple[int, ...]]] = {}
            for part in parts:
                by_content.setdefault(content[k, part], []).append(part)
            for same in by_content.values():
                if len(same) > 1:
                    yield f"component {k}: {same[0]} vs {same[1]}"

    def outside_content_transfers():
        # Contents of components outside the witness pair match across a block.
        for alpha, beta in pairs:
            for k in components:
                if k not in (i, j):
                    for x in missing(alpha, beta, k):
                        yield f"alpha={alpha} beta={beta} k={k} x={tuple(x)}"

    def row_column_gap():
        # If a1 + a2 < n then u_i q^(a1) misses cont(alpha).
        for alpha, row in rows.items():
            a1, a2 = row_and_column(alpha)
            target = _residue(scheme, i, 1, a1 + 1)  # u_i q^(a1)
            if a1 + a2 < n and any(target in residues for residues in row):
                yield f"alpha={alpha} a1={a1} a2={a2}"

    def witness_content_transfers():
        # Contents at component i match across a block when a1 + a2 < n.
        for alpha, beta in pairs:
            if sum(row_and_column(alpha)) < n:
                for x in missing(alpha, beta, i):
                    yield f"alpha={alpha} beta={beta} x={tuple(x)}"

    searches = {
        "no-extra-relations": no_extra_relations(),
        "contents-disjoint": contents_disjoint(),
        "content-determines-part": content_determines_part(),
        "outside-content-transfers": outside_content_transfers(),
        "row-column-gap": row_column_gap(),
        "witness-content-transfers": witness_content_transfers(),
    }
    return {name: LemmaReport(name, next(search, None)) for name, search in searches.items()}


# ---------------------------------------------------------------------------
# B(n) by brute force.

def multiply(algebra: BasicAlgebra, left: Combination, right: Combination) -> Combination:
    """Product of two integer combinations of basis elements."""
    acc: dict[int, int] = {}
    for a, ca in left:
        for b, cb in right:
            for idx, coeff in algebra.product(a, b):
                acc[idx] = acc.get(idx, 0) + ca * cb * coeff
    return tuple(sorted((idx, coeff) for idx, coeff in acc.items() if coeff))


def associativity_violations(algebra: BasicAlgebra) -> list[tuple[int, int, int]]:
    """All basis triples with (a*b)*c != a*(b*c); empty means associative."""
    dim = algebra.dimension
    bad = []
    for a in range(dim):
        for b in range(dim):
            ab = algebra.product(a, b)
            for c in range(dim):
                left = multiply(algebra, ab, ((c, 1),))
                right = multiply(algebra, ((a, 1),), algebra.product(b, c))
                if left != right:
                    bad.append((a, b, c))
    return bad


# ---------------------------------------------------------------------------
# Kleshchev verdicts one label at a time.

def kleshchev_verdicts_per_label(e, classes, shifts, mps):
    """The AND of each label's class groups' verdicts, label by label,
    stopping at a label's first failing group.  A group of one component
    reads the level-one rule; a larger group descends through
    `pykernel._verdict` (hence `pykernel._good_index`) with a memo of its
    own for the call."""

    def decider(group):
        if len(group) == 1:
            (k,) = group
            return lambda mp: pykernel._restricted(e, mp[k])
        group_shifts = tuple(shifts[k] for k in group)
        memo = {((),) * len(group): True}
        return lambda mp: pykernel._verdict(e, group_shifts, tuple(mp[k] for k in group), memo)

    deciders = [decider(group) for group in pykernel._groups(classes).values()]
    return [all(decide(mp) for decide in deciders) for mp in mps]


# ---------------------------------------------------------------------------
# The command line through the top-level parser.

def parse_through_top_level(argv):
    return build_parser().parse_args(argv)
