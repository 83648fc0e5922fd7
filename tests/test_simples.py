import random
from itertools import permutations

import pytest

from akregime import _kernel, simples
from akregime._kernel import pykernel
from akregime.combinatorics import (
    enumerate_multipartitions,
    mp_size,
    multipartition_count,
    partitions,
    remove_node,
)
from akregime.oracle import SweepGrid, grid_points
from akregime.params import ParamScheme, Residue, residue_of
from akregime.simples import (
    ariki_semisimple,
    good_node,
    is_kleshchev,
    kleshchev_count,
    simple_count,
)

REGIME_M2 = ParamScheme(m=2, e=0, classes=(0, 0), shifts=(0, 1))


def e_restricted(p, e):
    """Every part gap of p, its last part included, is below e."""
    return all(a - b < e for a, b in zip(p, p[1:] + (0,)))


def test_single_row_at_order_e_has_no_good_node():
    # A row of e boxes when q has order e: the only removable node is not
    # normal (the addable node at the start of row 2 shares its residue).
    scheme = ParamScheme(m=1, e=3, classes=(0,), shifts=(0,))
    residue = residue_of(scheme, (1, 1, 3))
    assert good_node(scheme, ((3,),), residue) is None


def test_good_node_vacuously_normal():
    assert good_node(REGIME_M2, ((1,), (1,)), Residue(0, 1)) == (2, 1, 1)


def test_good_node_on_empty():
    for exp in range(-2, 3):
        assert good_node(REGIME_M2, ((), ()), Residue(0, exp)) is None


def _descent(e, labels, shift=0):
    """Level-one verdicts by the good-node descent alone, each label with a
    fresh memo: `kleshchev_verdicts` decides a one-component group by the
    e-restricted rule and never descends."""
    return [pykernel._verdict(e, (shift,), mp, {((),): True}) for mp in labels]


def test_long_labels_descend_without_recursion():
    # A 3000-box row or column is far deeper than the interpreter's
    # recursion limit; the descent is one loop down the good nodes.
    long_row, long_column = ((3000,),), ((1,) * 3000,)
    assert _descent(0, [long_row, long_column]) == [True, True]
    # m = 1: Kleshchev means e-restricted.
    assert _descent(3001, [long_row]) == [True]
    assert _descent(3000, [long_row]) == [False]


class _RowReads(tuple):
    """A partition that counts how often its rows are read."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


TWO_RUNS = ((5,) * 40 + (2,) * 30,)
THREE_RUNS = ((9,) * 30 + (6,) * 45 + (2,) * 60,)


def test_kernel_matches_e_restricted_on_long_runs():
    # m = 1: Kleshchev means e-restricted, a closed form that reaches labels
    # far beyond the oracle.  Long runs of equal rows need the descent's
    # walk to take each run whole and to close brackets before it opens
    # the run's own.
    assert _descent(3, [TWO_RUNS]) == [False]
    assert _descent(4, [TWO_RUNS]) == [True]
    for e in range(2, 11):
        expected = [e_restricted(mp[0], e) for mp in (TWO_RUNS, THREE_RUNS)]
        assert _descent(e, [TWO_RUNS, THREE_RUNS]) == expected, e
    # Walking row by row gives the same brackets (each inner row's removable
    # is closed by the next row's addable) at a cost per row, not per run:
    # a column of 1000 equal rows is one run, read once by the walk and
    # once for the good node's column.
    column = _RowReads((1,) * 1000)
    assert _kernel.good_node(0, (0,), (0,), (column,), (0, -999)) == (1, 1000, 1)
    assert column.reads <= 2


def test_level_one_rule_matches_the_descent():
    # The kernel decides a one-component group by the e-restricted rule;
    # here the rule meets the descent label by label, at every partition
    # of n <= 14 and on the long runs, with a shift that only relabels the
    # residues.
    for n in range(15):
        labels = [(p,) for p in partitions(n)]
        shift = n % 4 - 1
        for e in sorted({0, *range(2, 8), n + 1} - {1}):
            expected = _descent(e, labels, shift)
            assert _kernel.kleshchev_verdicts(e, (0,), (shift,), labels) == expected, (n, e)
    for e in (0, *range(2, 11)):
        labels = [TWO_RUNS, THREE_RUNS]
        assert _kernel.kleshchev_verdicts(e, (0,), (0,), labels) == _descent(e, labels), e


def test_good_node_rejects_q_one():
    with pytest.raises(ValueError):
        good_node(ParamScheme(m=1, e=1, classes=(0,), shifts=(0,)), ((1,),), Residue(0, 0))


def test_kleshchev_examples():
    assert not is_kleshchev(REGIME_M2, ((2,), ())).is_kleshchev
    verdict = is_kleshchev(REGIME_M2, ((1,), (1,)))
    assert verdict.is_kleshchev
    assert [node for node, _ in verdict.witness_path] == [(2, 1, 1), (1, 1, 1)]


def test_witness_path_replays_to_empty():
    for scheme, n in [
        (REGIME_M2, 2),
        (ParamScheme(m=3, e=5, classes=(0, 1, 1), shifts=(0, 0, 2)), 3),
        (ParamScheme(m=2, e=4, classes=(0, 1), shifts=(0, 2)), 4),
    ]:
        for mp in enumerate_multipartitions(scheme.m, n):
            verdict = is_kleshchev(scheme, mp)
            if not verdict.is_kleshchev:
                assert verdict.witness_path == ()
                continue
            assert len(verdict.witness_path) == n
            current = mp
            for node, residue in verdict.witness_path:
                assert residue_of(scheme, node) == residue
                assert good_node(scheme, current, residue) == node
                current = remove_node(current, node)
            assert mp_size(current) == 0


def test_simple_count_q_one_merged_pair():
    scheme = ParamScheme(m=2, e=1, classes=(0, 0), shifts=(0, 0))
    count, non_simple = simple_count(scheme, 2)
    assert count == 2
    assert set(non_simple) == {((2,), ()), ((1, 1), ()), ((1,), (1,))}


def test_simple_count_regime():
    count, non_simple = simple_count(REGIME_M2, 2)
    assert (count, non_simple) == (4, (((2,), ()),))


def test_simple_count_generic_is_full():
    scheme = ParamScheme(m=3, e=0, classes=(0, 1, 2), shifts=(0, 0, 0))
    for n in (1, 2, 3, 4):
        count, non_simple = simple_count(scheme, n)
        assert count == multipartition_count(3, n)
        assert non_simple == ()


def test_ariki_semisimple_examples():
    assert ariki_semisimple(ParamScheme(m=2, e=0, classes=(0, 1), shifts=(0, 0)), 3)
    assert not ariki_semisimple(ParamScheme(m=1, e=2, classes=(0,), shifts=(0,)), 2)
    assert not ariki_semisimple(REGIME_M2, 2)
    # q = 1 with distinct parameters is the semisimple group algebra.
    assert ariki_semisimple(ParamScheme(m=2, e=1, classes=(0, 1), shifts=(0, 0)), 4)
    assert not ariki_semisimple(ParamScheme(m=2, e=1, classes=(0, 0), shifts=(0, 0)), 2)


def test_count_invariant_under_shift_translation():
    for base, n in [((0, 1), 2), ((0, 2), 3)]:
        for e in (0, 5, 6):
            reference = None
            for offset in range(4):
                scheme = ParamScheme(
                    m=2, e=e, classes=(0, 0), shifts=tuple(s + offset for s in base)
                )
                count, _ = simple_count(scheme, n)
                if reference is None:
                    reference = count
                assert count == reference


def test_count_invariant_under_permutation_and_negation():
    # Permuting the (class, shift) pairs permutes the u_i (Ariki), and
    # negating the shifts is (q, u) -> (q^-1, u^-1), an isomorphic algebra;
    # neither changes the number of simple modules.
    grid = SweepGrid(m_values=(2, 3), n_values=(3,), e_values=tuple(range(6)))
    for m, n, scheme in grid_points(grid):
        count, _ = simple_count(scheme, n)
        negated = tuple(-s for s in scheme.shifts)
        variants = [ParamScheme(m=m, e=scheme.e, classes=scheme.classes, shifts=negated)]
        for perm in permutations(range(m)):
            classes = tuple(scheme.classes[k] for k in perm)
            shifts = tuple(scheme.shifts[k] for k in perm)
            variants.append(ParamScheme(m=m, e=scheme.e, classes=classes, shifts=shifts))
        for variant in variants:
            assert simple_count(variant, n)[0] == count, (scheme, variant)


# --- the count from the principal specialization --------------------------------

def test_kleshchev_count_matches_the_kernel_on_the_default_grid():
    # Every default-grid point, e = 1 included: the formula against a
    # verdict on every label.
    points = 0
    for _, n, scheme in grid_points(SweepGrid()):
        assert kleshchev_count(scheme, n) == simple_count(scheme, n)[0], (scheme, n)
        points += 1
    assert points == 4151


# The largest n drawn for each m keeps every point under 2000 labels.
SEEDED_N = {1: 14, 2: 8, 3: 6, 4: 5}


def test_kleshchev_count_matches_the_kernel_on_seeded_schemes():
    # Up to 3 class labels, so a class group may hold any of the m
    # components, and shifts on both sides of the first component's, so a
    # group's offsets must be reduced mod e.  Dropping the e - 1
    # multiplicity of k delta, the roots -alpha + k delta at
    # k = floor(n/e) + 1 (the intervals through residue 0 at the top k), or
    # the reduction mod e each fails here.  Orders e > n take the
    # interval-start shortcut of e = 0, read mod e.
    rng = random.Random(16)
    kinds = set()
    for _ in range(600):
        m = rng.randint(1, 4)
        n = rng.randint(1, SEEDED_N[m])
        above_n = rng.randint(n + 1, 3 * n + 3)
        e = rng.choice((0, 0, 1, rng.randint(2, n + 1), rng.randint(2, 2 * n + 2), above_n))
        labels = rng.randint(1, 3)
        scheme = ParamScheme(
            m=m,
            e=e,
            classes=tuple(rng.randrange(labels) for _ in range(m)),
            shifts=tuple(rng.randint(-2 * n, 3 * n) for _ in range(m)),
        )
        count = simple_count(scheme, n)[0]
        assert kleshchev_count(scheme, n) == count, (scheme, n)
        kinds.add(count == multipartition_count(m, n))
    assert kinds == {True, False}


def test_kleshchev_count_reaches_points_beyond_the_label_limit():
    # m = 3, n = 30 has 16,790,136 labels.  With three distinct classes
    # every label is Kleshchev; with one class and a far shift, the count
    # falls.
    generic = ParamScheme(m=3, e=0, classes=(0, 1, 2), shifts=(0, 0, 0))
    assert kleshchev_count(generic, 30) == multipartition_count(3, 30) == 16_790_136
    assert kleshchev_count(ParamScheme(m=3, e=0, classes=(0, 0, 0), shifts=(0, 1, 3)), 30) == (
        4_718_712
    )
    assert simples._group_series.cache_info().maxsize is not None
