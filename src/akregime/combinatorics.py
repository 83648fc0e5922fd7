"""Partitions, multipartitions and node geometry for W = G(m,1,n).

A partition is a weakly decreasing tuple of positive ints; a multipartition
is an m-tuple of partitions.  Nodes are boxes of the m-tuple of Young
diagrams, addressed by 1-based (component, row, column).  Everything here is
an immutable value and every function is pure, so the module is safe for
concurrent use without coordination.
"""

from functools import cache, lru_cache
from itertools import product
from math import comb, factorial, prod
from typing import Iterator, NamedTuple

Partition = tuple[int, ...]
Multipartition = tuple[Partition, ...]


class Node(NamedTuple):
    component: int
    row: int
    column: int


def mp_size(mp: Multipartition) -> int:
    return sum(sum(c) for c in mp)


@cache
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in descending lexicographic order.

    E.g. partitions(3) = ((3,), (2, 1), (1, 1, 1)).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(_partitions_bounded(n, n))


def _partitions_bounded(n: int, max_part: int) -> Iterator[Partition]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_bounded(n - first, first):
            yield (first,) + rest


def _compositions_desc(n: int, m: int) -> Iterator[tuple[int, ...]]:
    # Compositions of n into m nonnegative parts, lexicographically descending.
    # The next one takes 1 from the last nonzero part i before the end and
    # puts it, with the last part's whole size, on part i + 1.
    sizes = [n] + [0] * (m - 1)
    while True:
        yield tuple(sizes)
        i = m - 2
        while i >= 0 and not sizes[i]:
            i -= 1
        if i < 0:
            return
        last = sizes[-1]
        sizes[-1] = 0
        sizes[i] -= 1
        sizes[i + 1] = last + 1


@cache
def enumerate_multipartitions(m: int, n: int) -> tuple[Multipartition, ...]:
    """Every m-multipartition of n exactly once, in canonical order.

    Canonical order: descending lexicographic on the tuple of component
    sizes, then descending lexicographic on the component part lists.  The
    length of the result is |Irrep(G(m,1,n))|.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: list[Multipartition] = []
    for sizes in _compositions_desc(n, m):
        out.extend(product(*(partitions(k) for k in sizes)))
    return tuple(out)


def euler_product(exponent, n: int, cap: int | None = None) -> list[int]:
    """The coefficients c_0, c_1, ... of prod_{a >= 1} (1 - t^a)^exponent(a),
    up to t^n or up to the first one over `cap`, whichever comes first.

    The product's logarithmic derivative gives t c_t = sum_k b_k c_(t-k)
    over k = 1..t, with b_k = -sum_{a | k} a exponent(a).  The division by
    t is exact, since the product has integer coefficients and c_0 = 1.
    """
    coeffs = [1]
    logs = [0]
    while len(coeffs) <= n and (cap is None or coeffs[-1] <= cap):
        t = len(coeffs)
        logs.append(-sum(a * exponent(a) for a in range(1, t + 1) if t % a == 0))
        coeffs.append(sum(logs[k] * coeffs[t - k] for k in range(1, t + 1)) // t)
    return coeffs


@lru_cache(maxsize=1024)
def multipartition_count(m: int, n: int, cap: int | None = None) -> int:
    """|Irrep(W)| = number of m-multipartitions of n: the coefficient of
    t^n in prod_k (1 - t^k)^(-m), found without enumerating them, and 0
    for n < 0.

    With `cap` it is the count or cap + 1, whichever is smaller.  The count
    never falls as n grows, so the series stops at its first coefficient
    over cap: for any m and n it has at most as many entries as the
    partition numbers take to pass cap.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 0:
        return 0
    count = euler_product(lambda _: -m, n, cap)[-1]
    return count if cap is None else min(count, cap + 1)


def removable_nodes(mp: Multipartition) -> tuple[Node, ...]:
    """Nodes whose removal leaves a multipartition, in (component, row) order."""
    out = []
    for k, component in enumerate(mp, start=1):
        for r, row_len in enumerate(component, start=1):
            below = component[r] if r < len(component) else 0
            if row_len > below:
                out.append(Node(k, r, row_len))
    return tuple(out)


def addable_nodes(mp: Multipartition) -> tuple[Node, ...]:
    """Nodes whose addition yields a multipartition, in (component, row) order.

    Nothing in the package calls this: it stays as the independent route of
    a tier-1 check (the oracle's one-pass node scan is compared with it)."""
    out = []
    for k, component in enumerate(mp, start=1):
        for r in range(1, len(component) + 2):
            row_len = component[r - 1] if r <= len(component) else 0
            above = component[r - 2] if r >= 2 else None
            if above is None or above > row_len:
                out.append(Node(k, r, row_len + 1))
    return tuple(out)


def remove_node(mp: Multipartition, node: Node) -> Multipartition:
    k, r, c = node
    component = mp[k - 1]
    if r > len(component) or component[r - 1] != c:
        raise ValueError(f"{node} is not removable from {mp}")
    if r < len(component) and component[r] == c:
        raise ValueError(f"{node} is not removable from {mp}")
    new_row = component[r - 1] - 1
    rows = component[: r - 1] + ((new_row,) if new_row else ()) + component[r:]
    return mp[: k - 1] + (rows,) + mp[k:]


def standard_tableaux_count(p: Partition) -> int:
    """Number of standard Young tableaux of shape p, by the hook length formula."""
    n = sum(p)
    if n == 0:
        return 1
    conj = _conjugate(p)
    hooks = prod(
        p[r] - c + conj[c] - r - 1
        for r in range(len(p))
        for c in range(p[r])
    )
    return factorial(n) // hooks


def _conjugate(p: Partition) -> Partition:
    if not p:
        return ()
    return tuple(sum(1 for part in p if part > c) for c in range(p[0]))


def dim_irrep(mp: Multipartition) -> int:
    """Dimension of the irreducible W-module labelled by mp.

    This is the multinomial coefficient of the component sizes times the
    product of standard-tableaux counts of the components.
    """
    n = mp_size(mp)
    dim = 1
    remaining = n
    for component in mp:
        k = sum(component)
        dim *= comb(remaining, k) * standard_tableaux_count(component)
        remaining -= k
    return dim
