"""Content multisets and the block partition of Specht modules for q != 1.

Two Specht modules lie in the same block iff their multipartitions have
equal content (the multiset of residues of all nodes).  `content` returns
it as a sorted residue tuple, the sorted concatenation of the label's
parts' contents, each read from `params.part_content`.  `block_partition`
groups the labels by an exact integer code of the same multiset, which it
adds up from each part's diagonals without building a residue (see there),
so the two are independent routes to one content.
"""

from dataclasses import dataclass
from functools import cache
from itertools import chain

from .combinatorics import Multipartition, enumerate_multipartitions
from .params import ParamScheme, Residue, part_content, relation_exponents

ContentMultiset = tuple[Residue, ...]


class QOneBlocksError(ValueError):
    """Blocks are only computed for q != 1: "q=1 blocks unsupported"."""


class BadWitnessError(ValueError):
    """The claimed relation u_j = q^(n-1) u_i does not hold: "bad-witness"."""


@dataclass(frozen=True)
class BlockPartition:
    blocks: tuple[tuple[Multipartition, ...], ...]
    exceptional_index: int | None


def content(scheme: ParamScheme, mp: Multipartition) -> ContentMultiset:
    """Multiset of residues of all nodes of mp, as a sorted tuple."""
    if scheme.e == 1:
        raise QOneBlocksError("q=1 blocks unsupported")
    parts = (part_content(scheme, k, part) for k, part in enumerate(mp, start=1))
    return tuple(sorted(chain.from_iterable(parts)))


def block_partition(scheme: ParamScheme, n: int) -> BlockPartition:
    """Group all multipartitions of n by content.

    Blocks are ordered by first appearance in the canonical enumeration;
    exceptional_index points at the first block of size n + 1 >= 2, if any.
    That is the exceptional block at m >= 2 regime points.  At m = 1 regime
    points the exceptional block has n labels at e = n (the hooks) and
    n - 1 at e = n - 1 ((4), (2,2) and (1,1,1,1) at n = 4, e = 3), so
    exceptional_index is None there.  Finding the m = 1 block is open
    (ROADMAP.md, item 2).
    """
    if scheme.e == 1:
        raise QOneBlocksError("q=1 blocks unsupported")
    # Content as an integer: each residue, numbered as first met, owns a
    # digit of n.bit_length() bits, and each node adds 1 to its digit.  A
    # label has n nodes, so no digit overflows and two labels get equal
    # codes exactly when their contents are equal.
    width = n.bit_length()
    digits: dict[tuple[int, int], int] = {}
    e = scheme.e

    @cache  # each (component, part) once per call
    def code(k: int, part: tuple[int, ...]) -> int:
        # Node (r, c) of component k has residue (class_k, shift_k + c - r
        # mod e): row r covers the diagonals c - r = 1 - r .. part[r-1] - r.
        cls, shift = scheme.classes[k - 1], scheme.shifts[k - 1]
        total = 0
        for r, length in enumerate(part, start=1):
            for d in range(shift + 1 - r, shift + length + 1 - r):
                residue = (cls, d % e if e else d)
                total += 1 << digits.setdefault(residue, len(digits) * width)
        return total

    components = range(1, scheme.m + 1)
    by_content: dict[int, list[Multipartition]] = {}
    for mp in enumerate_multipartitions(scheme.m, n):
        by_content.setdefault(sum(map(code, components, mp)), []).append(mp)
    blocks = tuple(tuple(group) for group in by_content.values())
    exceptional = None
    if n >= 1:
        for idx, block in enumerate(blocks):
            if len(block) == n + 1:
                exceptional = idx
                break
    return BlockPartition(blocks=blocks, exceptional_index=exceptional)


def lambda_family(
    scheme: ParamScheme, n: int, witness: tuple[int, int]
) -> tuple[Multipartition, ...]:
    """The n + 1 multipartitions with a row of length a in component i and a
    column of length n - a in component j, for a = 0..n.

    Requires the witness relation u_j = q^(n-1) u_i to hold in the scheme.
    """
    i, j = witness
    if i == j or not (1 <= i <= scheme.m) or not (1 <= j <= scheme.m):
        raise BadWitnessError("bad-witness")
    if (n - 1) not in relation_exponents(scheme, j, i, n):
        raise BadWitnessError("bad-witness")
    family = []
    for a in range(n + 1):
        components: list[tuple[int, ...]] = [()] * scheme.m
        if a:
            components[i - 1] = (a,)
        if n - a:
            components[j - 1] = (1,) * (n - a)
        family.append(tuple(components))
    return tuple(family)
