"""Classification of the simple modules of the Ariki-Koike algebra.

For q != 1 the nonzero simple quotients D^lambda are indexed by Kleshchev
multipartitions (reachable from the empty multipartition by good-node
additions); for q = 1 they are the multipartitions with lambda^(s) empty for
every pair s < t with u_s = u_t.  Verdicts are computed by the kernel in
`_kernel`; witness paths are reconstructed here by replaying good-node
removals against kernel verdicts.

`kleshchev_count` counts the simple modules without listing a label.  For
q != 1 the Kleshchev multipartitions of n index a basis of the weight
spaces Lambda - beta, ht beta = n, of the irreducible highest-weight module
L(Lambda) of affine sl_e (sl_infinity at e = 0), with Lambda the sum of the
fundamental weights Lambda_(shift mod e) of the components (Ariki, J. Math.
Kyoto Univ. 36 (1996); Ariki-Mathas, Math. Z. 233 (2000)).  Setting every
e^(-alpha_i) to t sends those weights to t^n, and Kac's principal
specialization (Infinite-dimensional Lie algebras, Prop. 10.10) writes the
result as a product over the positive roots alpha,

    prod_alpha ((1 - t^(h + c)) / (1 - t^h))^(mult alpha),
    h = <rho, alpha^v> = ht alpha,  c = <Lambda, alpha^v>,

in which only roots with h <= n and c > 0 touch the coefficient of t^n.
Class groups never share a residue, so their series multiply (see
`_kernel.pykernel`); at q = 1 the count is that of d-multipartitions, d the
number of distinct class labels.
"""

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from . import _kernel
from .combinatorics import (
    Multipartition,
    Node,
    enumerate_multipartitions,
    euler_product,
    mp_size,
    multipartition_count,
    remove_node,
    removable_nodes,
)
from .params import ParamScheme, Residue, relations, residue_of


@dataclass(frozen=True)
class KleshchevVerdict:
    multipartition: Multipartition
    is_kleshchev: bool
    witness_path: tuple[tuple[Node, Residue], ...]


def good_node(scheme: ParamScheme, mp: Multipartition, residue: Residue) -> Node | None:
    """The good node of the given residue: the highest removable node of
    that residue that is normal.  Requires q != 1."""
    if scheme.e == 1:
        raise ValueError("good nodes are defined for q != 1 only")
    raw = _kernel.good_node(scheme.e, scheme.classes, scheme.shifts, mp, tuple(residue))
    return None if raw is None else Node(*raw)


def is_kleshchev(scheme: ParamScheme, mp: Multipartition) -> KleshchevVerdict:
    """Kleshchev verdict with, on success, a good-node removal path that
    empties the diagram.  Requires q != 1."""
    if scheme.e == 1:
        raise ValueError("Kleshchev multipartitions are defined for q != 1 only")
    args = (scheme.e, scheme.classes, scheme.shifts)
    if not _kernel.kleshchev_verdicts(*args, [mp])[0]:
        return KleshchevVerdict(mp, False, ())
    path = []
    current = mp
    while mp_size(current) > 0:
        for residue in sorted({residue_of(scheme, x) for x in removable_nodes(current)}):
            raw = _kernel.good_node(*args, current, tuple(residue))
            if raw is None:
                continue
            child = remove_node(current, Node(*raw))
            if _kernel.kleshchev_verdicts(*args, [child])[0]:
                path.append((Node(*raw), residue))
                current = child
                break
        else:  # pragma: no cover - contradicts the verdict above
            raise AssertionError(f"no good-node descent from {current}")
    return KleshchevVerdict(mp, True, tuple(path))


def _q_is_one_simple(scheme: ParamScheme, mp: Multipartition) -> bool:
    # q = 1: shifts collapse, so u_s = u_t iff the class labels agree.
    for s in range(scheme.m):
        if not mp[s]:
            continue
        for t in range(s + 1, scheme.m):
            if scheme.classes[s] == scheme.classes[t]:
                return False
    return True


def simple_verdicts(scheme: ParamScheme, mps) -> list[bool]:
    """Whether D^lambda != 0, for each label: the q = 1 criterion at e = 1,
    else the kernel's Kleshchev verdicts."""
    if scheme.e == 1:
        return [_q_is_one_simple(scheme, mp) for mp in mps]
    return _kernel.kleshchev_verdicts(scheme.e, scheme.classes, scheme.shifts, mps)


def simple_count(scheme: ParamScheme, n: int) -> tuple[int, tuple[Multipartition, ...]]:
    """Number of nonzero D^lambda and the labels with D^lambda = 0, from a
    verdict on every label.  Its caller is the `count-simples` verb, which
    lists the labels; the sweep's kernel route calls `simple_verdicts` on
    the labels its kind needs (see `oracle.regime_locus`).  The count alone
    is `kleshchev_count`."""
    mps = enumerate_multipartitions(scheme.m, n)
    flags = simple_verdicts(scheme, mps)
    non_simple = tuple(mp for mp, ok in zip(mps, flags) if not ok)
    return len(mps) - len(non_simple), non_simple


@lru_cache(maxsize=4096)
def _group_series(e: int, offsets: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Coefficients of t^0..t^n of the principal specialization of L(Lambda)
    for one class group with shifts `offsets` (e != 1): prod_a (1 - t^a)^E_a,
    where each root (h, c) with c > 0 adds -mult to E_h and +mult to
    E_(h+c)."""
    exponents = [0] * (n + 1)
    weight = Counter(offsets)  # lambda_i = <Lambda, alpha_i^v>

    def root(height, value, mult=1):
        if value and height <= n:
            exponents[height] -= mult
            if height + value <= n:
                exponents[height + value] += mult

    # The positive roots are k delta + alpha_I, I a proper cyclic interval
    # of Z/e (a finite interval of Z at e = 0), and k delta (k >= 1) with
    # multiplicity e - 1.  The height is k e + |I|, so at e = 0 or e > n
    # only k = 0 is within n.  c is k * level plus the weight on I: for
    # k >= 1 it is positive at every start, but for k = 0 only when I meets
    # a shift, so k = 0 takes only the starts within n - 1 below a shift.
    level = len(offsets)
    wrap = (lambda x: x % e) if e else (lambda x: x)
    near = {wrap(s - d) for s in offsets for d in range(n)}
    for k in range(n // e + 1 if e else 1):
        for start in range(e) if k else near:
            value = k * level
            for length in range(1, (min(e - 1, n - k * e) if e else n) + 1):
                # .get: a Counter's [] calls a Python __missing__ on a miss.
                value += weight.get(wrap(start + length - 1), 0)
                root(k * e + length, value)
        if k:
            root(k * e, k * level, e - 1)
    return tuple(euler_product(exponents.__getitem__, n))


def kleshchev_count(scheme: ParamScheme, n: int) -> int:
    """Number of nonzero D^lambda of H_n, from the principal specialization
    of L(Lambda) (see the module docstring), without listing a label.

    Each class group's series is kept in a bounded cache, keyed on e, the
    group's shifts less its first component's shift (reduced mod e), and n;
    the count is the t^n coefficient of the product of the groups' series.
    """
    groups: dict[int, list[int]] = {}
    for cls, shift in zip(scheme.classes, scheme.shifts):
        groups.setdefault(cls, []).append(shift)
    e = scheme.e
    if e == 1:
        return multipartition_count(len(groups), n)
    series = None
    for shifts in groups.values():
        offsets = (s - shifts[0] for s in shifts)
        factor = _group_series(e, tuple(sorted(x % e if e else x for x in offsets)), n)
        series = factor if series is None else [
            sum(series[i] * factor[t - i] for i in range(t + 1)) for t in range(n + 1)
        ]
    return series[n]


def _quantum_factorial_nonzero(e: int, n: int) -> bool:
    # [n]_q! = 0 iff some [k]_q = 0, k <= n, iff 1 < e <= n.
    return e == 0 or e == 1 or e > n


def ariki_semisimple(scheme: ParamScheme, n: int) -> bool:
    """Semisimplicity criterion: [n]_q! != 0 and no relation u_i = q^c u_j
    with |c| < n."""
    return _quantum_factorial_nonzero(scheme.e, n) and not relations(scheme, n)
