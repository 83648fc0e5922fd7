from collections import Counter
from math import factorial

import pytest
from hypothesis import given, strategies as st

from akregime.combinatorics import (
    addable_nodes,
    dim_irrep,
    enumerate_multipartitions,
    mp_size,
    multipartition_count,
    partitions,
    removable_nodes,
    remove_node,
    standard_tableaux_count,
)


# --- independent oracles ----------------------------------------------------

def partition_numbers(limit):
    """p(0..limit) by the classic coin-style DP, independent of the
    recursive enumeration in the package."""
    table = [1] + [0] * limit
    for part in range(1, limit + 1):
        for total in range(part, limit + 1):
            table[total] += table[total - part]
    return table


def gf_multipartition_count(m, n):
    """Coefficient of x^n in (sum_k p(k) x^k)^m."""
    p = partition_numbers(n)
    coeffs = [1] + [0] * n
    for _ in range(m):
        coeffs = [
            sum(coeffs[k] * p[total - k] for k in range(total + 1))
            for total in range(n + 1)
        ]
    return coeffs[n]


def is_partition(parts):
    if not isinstance(parts, tuple) or not all(isinstance(p, int) for p in parts):
        return False
    return all(p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def is_multipartition(mp, m=None):
    if not isinstance(mp, tuple) or not all(is_partition(c) for c in mp):
        return False
    return m is None or len(mp) == m


def add_node(mp, node):
    k, r, c = node
    component = mp[k - 1]
    row_len = component[r - 1] if r <= len(component) else 0
    if r > len(component) + 1 or c != row_len + 1:
        raise ValueError(f"{node} is not addable to {mp}")
    if r >= 2 and component[r - 2] <= row_len:
        raise ValueError(f"{node} is not addable to {mp}")
    rows = component[: r - 1] + (row_len + 1,) + component[r:]
    return mp[: k - 1] + (rows,) + mp[k:]


def syt_by_backtracking(shape):
    """Count standard tableaux by filling 1..n greedily in all legal ways."""
    if not shape:
        return 1
    rows = len(shape)

    def fill(filled):
        total = sum(filled)
        if total == sum(shape):
            return 1
        count = 0
        for r in range(rows):
            if filled[r] < shape[r] and (r == 0 or filled[r - 1] > filled[r]):
                filled[r] += 1
                count += fill(filled)
                filled[r] -= 1
        return count

    return fill([0] * rows)


@st.composite
def partition_strategy(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return ()
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n))
    return tuple(sorted(Counter(bins).values(), reverse=True))


@st.composite
def multipartition_strategy(draw, max_m=3, max_n=6):
    m = draw(st.integers(min_value=1, max_value=max_m))
    parts = [draw(partition_strategy(max_n=max_n // m + 1)) for _ in range(m)]
    return tuple(parts)


# --- enumeration ------------------------------------------------------------

def test_enumeration_empty_case():
    assert enumerate_multipartitions(1, 0) == (((),),)


def test_enumeration_m2_n2_order():
    assert enumerate_multipartitions(2, 2) == (
        ((2,), ()),
        ((1, 1), ()),
        ((1,), (1,)),
        ((), (2,)),
        ((), (1, 1)),
    )


def test_enumeration_m3_n3_count():
    assert len(enumerate_multipartitions(3, 3)) == 22


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_enumeration_matches_generating_function(m, n):
    mps = enumerate_multipartitions(m, n)
    assert len(mps) == gf_multipartition_count(m, n)
    assert len(set(mps)) == len(mps)
    assert all(is_multipartition(mp, m) and mp_size(mp) == n for mp in mps)
    assert multipartition_count(m, n) == len(mps)
    for cap in (len(mps) - 1, len(mps), 10**9):
        assert multipartition_count(m, n, cap=cap) == min(len(mps), cap + 1)
    # The canonical order from its definition: component sizes, descending
    # lexicographic, then the part lists, descending lexicographic.
    ordered = sorted(set(mps), key=lambda mp: (tuple(map(sum, mp)), mp), reverse=True)
    assert list(mps) == ordered


def test_capped_count_stops_at_the_cap():
    # 341,649 labels at m = 3, n = 20.  The table stops at its first entry
    # over the cap, so a huge m or n costs no more than p passing it.
    assert multipartition_count(3, 20, cap=341_648) == 341_649
    assert multipartition_count(3, 20, cap=341_649) == 341_649
    assert multipartition_count(3, 10**12, cap=1000) == 1001
    assert multipartition_count(10**12, 10**12, cap=1000) == 1001
    assert multipartition_count(2, -1, cap=10) == 0
    assert multipartition_count(2, -1) == 0


def test_partitions_descending_order():
    assert partitions(3) == ((3,), (2, 1), (1, 1, 1))
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


# --- node geometry ----------------------------------------------------------

def test_removable_addable_examples():
    mp = ((2,), ())
    assert removable_nodes(mp) == ((1, 1, 2),)
    assert addable_nodes(mp) == ((1, 1, 3), (1, 2, 1), (2, 1, 1))
    empty = ((), ())
    assert removable_nodes(empty) == ()
    assert addable_nodes(empty) == ((1, 1, 1), (2, 1, 1))
    assert removable_nodes(((1,), (1,))) == ((1, 1, 1), (2, 1, 1))


@given(multipartition_strategy())
def test_node_round_trips(mp):
    n = mp_size(mp)
    for node in removable_nodes(mp):
        smaller = remove_node(mp, node)
        assert is_multipartition(smaller, len(mp)) and mp_size(smaller) == n - 1
        assert add_node(smaller, node) == mp
    for node in addable_nodes(mp):
        bigger = add_node(mp, node)
        assert is_multipartition(bigger, len(mp)) and mp_size(bigger) == n + 1
        assert remove_node(bigger, node) == mp


@given(multipartition_strategy())
def test_node_lists_in_below_order(mp):
    for nodes in (removable_nodes(mp), addable_nodes(mp)):
        keys = [(node.component, node.row) for node in nodes]
        assert keys == sorted(keys)


# --- dimensions -------------------------------------------------------------

def test_dim_irrep_examples():
    assert dim_irrep(((3,), (), ())) == 1
    assert dim_irrep(((1,), (1,))) == 2


@given(partition_strategy(max_n=7))
def test_hook_formula_against_backtracking(p):
    assert standard_tableaux_count(p) == syt_by_backtracking(p)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_sum_of_squared_dimensions_is_group_order(m, n):
    total = sum(dim_irrep(mp) ** 2 for mp in enumerate_multipartitions(m, n))
    assert total == m**n * factorial(n)
