"""Classification of the simple modules of the Ariki-Koike algebra.

For q != 1 the nonzero simple quotients D^lambda are indexed by Kleshchev
multipartitions (reachable from the empty multipartition by good-node
additions); for q = 1 they are the multipartitions with lambda^(s) empty for
every pair s < t with u_s = u_t.  Verdicts are computed by the kernel in
`_kernel`; witness paths are reconstructed here by replaying good-node
removals against kernel verdicts.
"""

from dataclasses import dataclass

from . import _kernel
from .combinatorics import (
    Multipartition,
    Node,
    enumerate_multipartitions,
    mp_size,
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


def simple_count(scheme: ParamScheme, n: int) -> tuple[int, tuple[Multipartition, ...]]:
    """Number of nonzero D^lambda and the labels with D^lambda = 0."""
    mps = enumerate_multipartitions(scheme.m, n)
    if scheme.e == 1:
        flags = [_q_is_one_simple(scheme, mp) for mp in mps]
    else:
        flags = _kernel.kleshchev_verdicts(scheme.e, scheme.classes, scheme.shifts, mps)
    non_simple = tuple(mp for mp, ok in zip(mps, flags) if not ok)
    return len(mps) - len(non_simple), non_simple


def _quantum_factorial_nonzero(e: int, n: int) -> bool:
    # [n]_q! = 0 iff some [k]_q = 0, k <= n, iff 1 < e <= n.
    return e == 0 or e == 1 or e > n


def ariki_semisimple(scheme: ParamScheme, n: int) -> bool:
    """Semisimplicity criterion: [n]_q! != 0 and no relation u_i = q^c u_j
    with |c| < n."""
    return _quantum_factorial_nonzero(scheme.e, n) and not relations(scheme, n)
