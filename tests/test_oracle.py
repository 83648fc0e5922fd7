import dataclasses
import io
import random
import re
from collections import Counter
from itertools import combinations, islice, product

import pytest

from akregime import _kernel, oracle, structure
from akregime.cli import run
from akregime._kernel import pykernel
from akregime.combinatorics import addable_nodes, enumerate_multipartitions, removable_nodes
from akregime.oracle import (
    ALMOST_SEMISIMPLE,
    OTHER,
    SEMISIMPLE,
    SweepGrid,
    _class_tuples,
    _nodes_by_residue,
    _residue,
    _residue_pattern,
    _shift_tuples,
    grid_point_counts,
    grid_points,
    locus_summary,
    oracle_good_node,
    oracle_kind,
    oracle_kleshchev,
    regime_locus,
)
from akregime.params import ParamScheme, forced_label, parse_scheme, relation_exponents
from akregime.simples import good_node, is_kleshchev, simple_count
from akregime.structure import InconsistentRegimeError, classify_regime

from references import kleshchev_verdicts_per_label, oracle_simple_count, verify_lemmas

REGIME_M2 = ParamScheme(m=2, e=0, classes=(0, 0), shifts=(0, 1))
REGIME_M3 = ParamScheme(m=3, e=0, classes=(0, 1, 1), shifts=(0, 2, 0))
LEMMA_NAMES = (
    "no-extra-relations",
    "contents-disjoint",
    "content-determines-part",
    "outside-content-transfers",
    "row-column-gap",
    "witness-content-transfers",
)


def test_oracle_examples():
    assert oracle_kleshchev(REGIME_M2, ((), ()))
    assert not oracle_kleshchev(REGIME_M2, ((2,), ()))
    assert oracle_simple_count(REGIME_M2, 2) == 4


def test_oracle_agrees_with_fast_path_on_schemes():
    schemes = [
        (REGIME_M2, 4),
        (REGIME_M3, 4),
        (ParamScheme(m=2, e=3, classes=(0, 0), shifts=(0, 2)), 4),
        (ParamScheme(m=3, e=4, classes=(0, 0, 0), shifts=(0, 1, 2)), 3),
        (ParamScheme(m=2, e=2, classes=(0, 1), shifts=(0, 0)), 4),
        (ParamScheme(m=1, e=3, classes=(0,), shifts=(0,)), 4),
    ]
    for scheme, n in schemes:
        # One bulk call over every size shares one memo, so later labels'
        # descents end on memo entries that earlier labels wrote.
        labels = [mp for size in range(n + 1) for mp in enumerate_multipartitions(scheme.m, size)]
        bulk = _kernel.kleshchev_verdicts(scheme.e, scheme.classes, scheme.shifts, labels)
        for mp, verdict in zip(labels, bulk, strict=True):
            expected = oracle_kleshchev(scheme, mp)
            assert verdict == expected, (scheme, mp)
            assert is_kleshchev(scheme, mp).is_kleshchev == expected, (scheme, mp)


def _order_schemes(count, seed):
    """Seeded (scheme, n) pairs with m <= 3, n <= 6, e = 0, small e or
    e >= 2n - 1, and repeated and negative class labels."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 3)
        n = rng.randint(1, 6)
        e = rng.choice((0, rng.randint(2, 5), rng.randint(max(2, 2 * n - 1), 2 * n + 2)))
        classes = tuple(rng.choice((-3, -1, 0, 2)) for _ in range(m))
        shifts = tuple(rng.randint(-2 * n, 2 * n) for _ in range(m))
        yield ParamScheme(m=m, e=e, classes=classes, shifts=shifts), n


def test_bulk_verdicts_do_not_depend_on_label_order():
    # A bulk call's memo also records good children nobody asked about, so
    # a label's verdict may come from an entry an earlier label wrote.
    # Every order must still give each label the oracle's verdict.
    rng = random.Random(10)
    for scheme, n in _order_schemes(300, seed=10):
        top = list(enumerate_multipartitions(scheme.m, n))
        mixed = [mp for size in range(n + 1) for mp in enumerate_multipartitions(scheme.m, size)]
        children: dict = {}
        expected = {mp: oracle_kleshchev(scheme, mp, children) for mp in mixed}
        for order in (top, top[::-1], rng.sample(top, len(top)), rng.sample(mixed, len(mixed))):
            bulk = _kernel.kleshchev_verdicts(scheme.e, scheme.classes, scheme.shifts, order)
            assert bulk == [expected[mp] for mp in order], (scheme, n)


def test_bulk_verdicts_take_about_one_walk_per_label(monkeypatch):
    # Each walk finds every residue's good node, and the call records all
    # of their verdicts; a descent that keeps only the lowest good child
    # per step walks almost every label below the requested size (2.58 and
    # 2.38 walks per label here).  Both are groups of two components: a
    # group of one is decided by the level-one rule, without a walk.
    for classes, shifts, n, kleshchev in (((0, 0), (0, 0), 12, 413), ((0, 0), (0, 3), 10, 416)):
        walks = _count_calls(monkeypatch, pykernel, "_good_index")
        labels = enumerate_multipartitions(len(classes), n)
        assert sum(_kernel.kleshchev_verdicts(0, classes, shifts, labels)) == kleshchev
        assert len(walks) < 1.5 * len(labels), (classes, shifts, len(walks) / len(labels))
        monkeypatch.undo()


def test_bulk_verdicts_walk_each_class_group_apart(monkeypatch):
    # Components of different classes never share a residue, so the kernel
    # decides each class group's sub-multipartition on its own, in a memo of
    # its own.  Here the two groups have two components each: the walks go
    # to the groups' bipartitions of size at most 7 (419 walks), not to the
    # 1240 labels.
    walks = _count_calls(monkeypatch, pykernel, "_good_index")
    labels = enumerate_multipartitions(4, 7)
    assert len(labels) == 1240
    assert sum(_kernel.kleshchev_verdicts(0, (0, 1, 0, 1), (0, 0, 3, 3), labels)) == 1160
    assert len(walks) < len(labels) / 2, len(walks)
    monkeypatch.undo()
    # Groups of one component are decided by the level-one rule: at e = 0
    # every partition is Kleshchev, and no walk is made.
    walks = _count_calls(monkeypatch, pykernel, "_good_index")
    labels = enumerate_multipartitions(2, 12)
    assert all(_kernel.kleshchev_verdicts(0, (0, 1), (0, 0), labels))
    assert not walks
    monkeypatch.undo()
    # Two interleaved components of one class and a third of another.
    scheme = ParamScheme(m=3, e=4, classes=(0, 1, 0), shifts=(0, 0, 3))
    labels = enumerate_multipartitions(3, 7)
    bulk = _kernel.kleshchev_verdicts(scheme.e, scheme.classes, scheme.shifts, labels)
    assert bulk == [oracle_kleshchev(scheme, mp) for mp in labels]
    assert (sum(bulk), len(labels)) == (261, 429)


def _multi_group_schemes(count, seed):
    """Seeded (scheme, n) pairs with m <= 4 and two or more class groups of
    any sizes, in any order, at e = 0, small e and e >= 2n - 1."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        m = rng.randint(2, 4)
        classes = tuple(rng.randrange(m) for _ in range(m))
        if len(set(classes)) < 2:
            continue
        n = rng.randint(1, 8 - m)
        e = rng.choice((0, rng.randint(2, 5), rng.randint(2 * n - 1, 2 * n + 2)))
        shifts = tuple(rng.randint(-2 * n, 2 * n) for _ in range(m))
        made += 1
        yield ParamScheme(m=m, e=e, classes=classes, shifts=shifts), n


def test_group_wise_verdicts_make_the_per_label_walks(monkeypatch):
    # The kernel decides one class group at a time, over the labels that
    # the earlier groups found Kleshchev.  Each group's memo then sees the
    # sub-labels it sees when the labels are decided one at a time, in the
    # same order, so the verdicts and the good-node walks are the same
    # ones; a pass that also decided the labels an earlier group refused
    # would walk more.
    walks = _count_calls(monkeypatch, pykernel, "_good_index")
    points = [(scheme, n) for _, n, scheme in grid_points(SweepGrid()) if scheme.e != 1]
    points += _multi_group_schemes(200, seed=27)
    total = 0
    for scheme, n in points:
        args = scheme.e, scheme.classes, scheme.shifts, enumerate_multipartitions(scheme.m, n)
        walks.clear()
        expected = kleshchev_verdicts_per_label(*args)
        expected_walks = len(walks)
        walks.clear()
        assert _kernel.kleshchev_verdicts(*args) == expected, (scheme, n)
        assert len(walks) == expected_walks, (scheme, n)
        total += expected_walks
    assert total > 10_000, total


def test_witness_path_makes_at_most_two_walks_per_step(monkeypatch):
    # Each step of the replay makes one verdict call per residue tried; a
    # level-one group's verdict reads the rule and makes no walk, so what
    # is left is the good_node walk of each residue tried (one here, at
    # the first residue in order).  A descent per verdict call made about
    # 451 walks per step on this 900-step path.
    walks = _count_calls(monkeypatch, pykernel, "_good_index")
    verdict = is_kleshchev(ParamScheme(m=2, e=0, classes=(0, 1), shifts=(0, 0)), ((600,), (300,)))
    assert verdict.is_kleshchev and len(verdict.witness_path) == 900
    assert len(walks) <= 2 * 900, len(walks) / 900


@pytest.mark.parametrize(
    "classes, shifts, n", [((0, 0), (0, 1), 4), ((0, 0, 1), (0, 1, 0), 3)]
)
@pytest.mark.parametrize("e", [0, 2, 5])
def test_shared_children_cache_matches_fresh_cache(classes, shifts, n, e):
    # One dict shared by every label of a scheme must give each label the
    # verdict a fresh dict gives it, whichever label fills an entry first.
    m = len(classes)
    scheme = ParamScheme(m=m, e=e, classes=classes, shifts=shifts)
    labels = [mp for size in range(n + 1) for mp in enumerate_multipartitions(m, size)]
    fresh = {mp: oracle_kleshchev(scheme, mp, {}) for mp in labels}
    for order in (labels, labels[::-1]):
        shared: dict = {}
        for mp in order:
            assert oracle_kleshchev(scheme, mp, shared) == fresh[mp], (scheme, mp)
    top = enumerate_multipartitions(m, n)
    assert oracle_simple_count(scheme, n) == sum(fresh[mp] for mp in top)
    assert 0 < oracle_simple_count(scheme, n) < len(top)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("e", [0, 2, 5])
def test_nodes_by_residue_matches_grouped_node_lists(m, e):
    # The one-pass scan must give what grouping the full node lists by
    # `_residue` gives: the same lists, each top to bottom, and the
    # removable residues keyed in the order first met.
    for n in range(1, 6):
        labels = [
            (mp, [tuple(x) for x in removable_nodes(mp)], [tuple(x) for x in addable_nodes(mp)])
            for mp in enumerate_multipartitions(m, n)
        ]
        for classes in _class_tuples(m, ("all-same", "one-merged-pair")):
            for shifts in _shift_tuples(m, n, e):
                scheme = ParamScheme(m=m, e=e, classes=classes, shifts=shifts)
                for mp, removables, addables in labels:
                    rem: dict = {}
                    add: dict = {}
                    for x in removables:
                        rem.setdefault(_residue(scheme, *x), []).append(x)
                    for x in addables:
                        add.setdefault(_residue(scheme, *x), []).append(x)
                    got = _nodes_by_residue(scheme, mp)
                    assert got == (rem, add), (scheme, mp)
                    assert list(got[0]) == list(rem), (scheme, mp)


def test_oracle_kind_does_not_use_the_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle reached the kernel")

    for module, name in (
        (_kernel, "kleshchev_verdicts"),
        (_kernel, "good_node"),
        (pykernel, "_verdict"),
        (pykernel, "_good_index"),
    ):
        monkeypatch.setattr(module, name, refuse)
    assert oracle_kind(REGIME_M2, 2) == ALMOST_SEMISIMPLE
    assert oracle_kind(ParamScheme(m=1, e=2, classes=(0,), shifts=(0,)), 4) == OTHER


def _kind_from_count(scheme, n):
    total = len(enumerate_multipartitions(scheme.m, n))
    count = oracle_simple_count(scheme, n)
    return {total: SEMISIMPLE, total - 1: ALMOST_SEMISIMPLE}.get(count, OTHER)


def test_oracle_kind_matches_full_count():
    # oracle_kind stops at the second non-Kleshchev label; the kind read
    # off the full count must be the same.  Stopping at the first miss
    # turns every almost-semisimple point into `other` here.
    rng = random.Random(12)
    schemes = [(REGIME_M2, 3), (REGIME_M3, 4)]
    for _ in range(300):
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        e = rng.choice((0, 1, rng.randint(2, n + 1), rng.randint(2 * n - 1, 2 * n + 3)))
        classes = tuple(rng.randrange(m) for _ in range(m))
        shifts = tuple(rng.randint(-n, n) for _ in range(m))
        schemes.append((ParamScheme(m=m, e=e, classes=classes, shifts=shifts), n))
    kinds = []
    for scheme, n in schemes:
        kind = oracle_kind(scheme, n)
        assert kind == _kind_from_count(scheme, n), (scheme.describe(), n)
        kinds.append(kind)
    counts = Counter(kinds)
    assert min(counts[kind] for kind in (SEMISIMPLE, ALMOST_SEMISIMPLE, OTHER)) > 10, counts


def test_oracle_kind_stops_at_the_second_miss(monkeypatch):
    # Every top-level verdict oracle_kind reads passes through the counter.
    # At this `other` point most labels are not Kleshchev, so the scan must
    # end at the second miss, well before the last label.
    scheme, n = ParamScheme(m=2, e=2, classes=(0, 0), shifts=(0, 0)), 4
    total = len(enumerate_multipartitions(scheme.m, n))
    assert total - oracle_simple_count(scheme, n) >= 3
    read = []
    verdicts = oracle._label_verdicts

    def counted(*args):
        for verdict in verdicts(*args):
            read.append(verdict)
            yield verdict

    monkeypatch.setattr(oracle, "_label_verdicts", counted)
    reach = []
    assert oracle_kind(scheme, n, reach=reach) == OTHER
    assert read.count(False) == 2
    assert read[-1] is False
    assert len(read) < total
    assert reach == [len(read)]


def test_oracle_good_node_agrees():
    schemes = [
        (REGIME_M2, 3),
        (ParamScheme(m=2, e=4, classes=(0, 0), shifts=(0, 1)), 3),
        (ParamScheme(m=3, e=0, classes=(0, 0, 0), shifts=(0, 1, 3)), 3),
        (ParamScheme(m=3, e=5, classes=(0, 0, 1), shifts=(0, 2, 0)), 3),
        (ParamScheme(m=3, e=2, classes=(0, 0, 0), shifts=(0, 1, 1)), 3),
        # Runs of three or more equal rows, in several components at once.
        (ParamScheme(m=2, e=0, classes=(0, 0), shifts=(0, 2)), 6),
        (ParamScheme(m=2, e=4, classes=(0, 0), shifts=(0, 1)), 6),
        (ParamScheme(m=3, e=5, classes=(0, 0, 1), shifts=(0, 2, 0)), 5),
        # Class groups {1, 3}, {2} and {4}: a good node found in a group's
        # sub-multipartition must map back to its component in the label.
        (ParamScheme(m=4, e=0, classes=(1, 0, 1, 2), shifts=(0, 5, 3, 0)), 3),
    ]
    for scheme, n in schemes:
        for mp in enumerate_multipartitions(scheme.m, n):
            for cls in set(scheme.classes):
                exps = range(scheme.e) if scheme.e else range(-n, n + max(scheme.shifts) + 1)
                for exp in exps:
                    mine = oracle_good_node(scheme, mp, (cls, exp))
                    fast = good_node(scheme, mp, (cls, exp))
                    assert mine == (tuple(fast) if fast else None)


def test_lemma_suite_passes_on_regime_points(regime_instances):
    for scheme, n, _ in regime_instances:
        if scheme.m == 1:
            continue  # lemma hypotheses need a witness pair
        reports = verify_lemmas(scheme, n)
        assert tuple(reports) == LEMMA_NAMES
        for report in reports.values():
            assert report.passed, report


# One scheme per lemma at which that lemma fails, with the first
# counterexample it reports.  Each scheme has a witness relation with
# |c| = n - 1 beside the fault.
LEMMA_CONTROLS = {
    # Two in-window relations: u_2 = q^2 u_1 and u_3 = q^2 u_2.
    "no-extra-relations-chain": (
        "no-extra-relations",
        ParamScheme(m=3, e=0, classes=(0, 0, 0), shifts=(0, 2, 4)),
        3,
        "u_3 = q^2 u_2",
    ),
    # u_1 = u_2, and both are related to u_3.
    "no-extra-relations": (
        "no-extra-relations",
        ParamScheme(m=3, e=0, classes=(0, 0, 0), shifts=(0, 0, 1)),
        2,
        "u_2 = q^0 u_1",
    ),
    # u_1 = u_2 at e = 2: both components start at the same residue.
    "contents-disjoint": (
        "contents-disjoint",
        ParamScheme(m=2, e=2, classes=(0, 0), shifts=(0, 0)),
        3,
        "alpha=((2,), (1,)) components 1,2 share (0, 0)",
    ),
    # At e = 2 a row and a column of two boxes have the same residues.
    "content-determines-part": (
        "content-determines-part",
        ParamScheme(m=2, e=2, classes=(0, 0), shifts=(0, 1)),
        2,
        "component 1: (1, 1) vs (2,)",
    ),
    "outside-content-transfers": (
        "outside-content-transfers",
        ParamScheme(m=3, e=0, classes=(0, 0, 0), shifts=(0, 0, 1)),
        2,
        "alpha=((), (2,), ()) beta=((2,), (), ()) k=2 x=(0, 0)",
    ),
    "row-column-gap": (
        "row-column-gap",
        ParamScheme(m=2, e=2, classes=(0, 0), shifts=(0, 1)),
        2,
        "alpha=((2,), ()) a1=0 a2=1",
    ),
    "witness-content-transfers": (
        "witness-content-transfers",
        ParamScheme(m=2, e=2, classes=(0, 0), shifts=(0, 1)),
        2,
        "alpha=((), (1, 1)) beta=((2,), ()) x=(0, 0)",
    ),
}


@pytest.mark.parametrize("control", LEMMA_CONTROLS)
def test_lemma_negative_control(control):
    lemma, scheme, n, counterexample = LEMMA_CONTROLS[control]
    report = verify_lemmas(scheme, n)[lemma]
    assert not report.passed
    assert report.counterexample == counterexample


@pytest.mark.parametrize("control", ["no-extra-relations", "no-extra-relations-chain"])
def test_extra_relation_holds_as_printed(control):
    # "u_b = q^c u_a" must be a relation of the scheme, read by
    # relation_exponents(scheme, b, a, n): all c with u_b = q^c u_a.
    _, scheme, n, _ = LEMMA_CONTROLS[control]
    text = verify_lemmas(scheme, n)["no-extra-relations"].counterexample
    b, c, a = map(int, re.fullmatch(r"u_(\d+) = q\^(-?\d+) u_(\d+)", text).groups())
    assert c in relation_exponents(scheme, b, a, n)


def test_grid_contains_patterns_and_dedups_translation():
    grid = SweepGrid(m_values=(2,), n_values=(2,), e_values=(0, 3))
    points = list(grid_points(grid))
    schemes = {scheme.describe() for _, _, scheme in points}
    assert "e=0;class=0,0;shift=0,1" in schemes
    assert "e=0;class=0,1;shift=0,1" in schemes
    # translated copies are canonicalized away
    assert "e=0;class=0,0;shift=1,2" not in schemes
    assert all(min(s.shifts) == 0 or s.e > 0 for _, _, s in points)


def _canonical_shift(shifts, e):
    # Brute force: the least rotation mod e, or the translate with least entry 0.
    if e == 0:
        low = min(shifts)
        return tuple(s - low for s in shifts)
    return min(tuple((s + c) % e for s in shifts) for c in range(e))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_shift_tuples_match_brute_force_canonicalisation(m):
    for n in range(1, 5):
        for e in range(2 * n + 2):
            every = product(range(e or 2 * n), repeat=m)
            expected = list(dict.fromkeys(_canonical_shift(s, e) for s in every))
            assert _shift_tuples(m, n, e) == expected, (m, n, e)


def test_grid_point_counts_match_the_points():
    # The sweep's budget counts points without listing them; the counts
    # must be those of grid_points, for every subset of class patterns.
    patterns = SweepGrid().class_patterns
    for size in range(len(patterns) + 1):
        for subset in combinations(patterns, size):
            grid = SweepGrid(m_values=(1, 2, 3, 4), n_values=(1, 2, 3), class_patterns=subset)
            listed = Counter((m, n) for m, n, _ in grid_points(grid))
            counted = {(m, n): points for m, n, points in grid_point_counts(grid, 10**9) if points}
            assert counted == listed, subset
    grid = SweepGrid(m_values=(3,), n_values=(2, 4), e_values=(0, 1, 7))
    counted = {(m, n): points for m, n, points in grid_point_counts(grid, 10**9)}
    assert counted == Counter((m, n) for m, n, _ in grid_points(grid))
    assert sum(points for _, _, points in grid_point_counts(SweepGrid(), 10**6)) == 4151


@pytest.mark.parametrize(
    "fields", [dict(m_values=(2, 2)), dict(n_values=(3, 2, 3)), dict(e_values=(0, 3, 0))]
)
def test_sweep_grid_rejects_repeated_values(fields):
    with pytest.raises(ValueError, match="repeats a value"):
        SweepGrid(**fields)


@pytest.mark.parametrize(
    "e, plain, relabelled, shifts",
    [
        (0, (0, 0, 1), (-7, -7, 10**9 + 1), (0, 1, -(10**9 + 8) // 3)),
        (0, (0, 1, 0), (10**9 + 1, -7, 10**9 + 1), (0, (10**9 + 8) // 3, 2)),
        (5, (0, 0, 1), (-7, -7, 5), (0, 1, 0)),
    ],
    ids=["e0-large-third", "e0-large-outer", "e5-small"],
)
def test_residue_keys_ignore_how_classes_are_labelled(e, plain, relabelled, shifts):
    # Relabelled classes are negative, large and non-contiguous, and
    # congruent mod m = 3; the shifts make a key of cls + m * exp give one
    # key to two different residues (at e = 0, nodes of equal content in the
    # two classes), so this test fails on such a key.
    n = 4
    base = ParamScheme(m=3, e=e, classes=plain, shifts=shifts)
    other = dataclasses.replace(base, classes=relabelled)
    relabel = dict(zip(plain, relabelled))
    labels = [mp for size in range(n + 1) for mp in enumerate_multipartitions(3, size)]
    expected = [oracle_kleshchev(other, mp) for mp in labels]
    for scheme in (base, other):
        assert _kernel.kleshchev_verdicts(e, scheme.classes, scheme.shifts, labels) == expected
    assert simple_count(other, n) == simple_count(base, n)
    assert simple_count(other, n)[0] == oracle_simple_count(other, n)
    exps = range(e) if e else {s + d for s in shifts for d in range(-n, n + 1)}
    for mp in labels:
        for cls in set(plain):
            for exp in exps:
                fast = good_node(other, mp, (relabel[cls], exp))
                assert fast == good_node(base, mp, (cls, exp)), (mp, cls, exp)
                assert (tuple(fast) if fast else None) == oracle_good_node(
                    other, mp, (relabel[cls], exp)
                ), (mp, cls, exp)
        assert _kernel.good_node(e, relabelled, shifts, mp, (42, 0)) is None


def test_locus_small_grid_no_disagreements():
    rows = regime_locus(SweepGrid(m_values=(1, 2), n_values=(2, 3)))
    summary = locus_summary(rows)
    assert summary["disagreements"] == 0
    assert summary["prediction_mismatches"] == 0
    assert summary["regime_points"] > 0


def test_exceptional_block_matches_family_across_sweep(default_sweep_rows):
    # Content grouping and the structural prediction are independent routes;
    # on every swept regime point they must agree: at m >= 2 the lambda
    # family is the one non-singleton block, at m = 1 the block of (n) has
    # e labels (the n hooks at e = n), and everything else is alone in its
    # block.  Off the regime no block is exceptional.
    from akregime.blocks import block_partition, lambda_family
    from akregime.combinatorics import multipartition_count
    from akregime.structure import family_orientation

    checked = Counter()
    for row in default_sweep_rows["rows"]:
        if row.scheme.e == 1:  # no blocks at q = 1
            continue
        partition = block_partition(row.scheme, row.n)
        if row.fast_kind != ALMOST_SEMISIMPLE:
            assert partition.exceptional_index is None, row
            checked["off"] += 1
            continue
        report = classify_regime(row.scheme, row.n)
        exceptional = partition.blocks[partition.exceptional_index]
        assert report.non_kleshchev in exceptional
        if row.m == 1:
            assert len(exceptional) == row.scheme.e, row
            if row.scheme.e == row.n:
                hooks = {((row.n - k,) + (1,) * k,) for k in range(row.n)}
                assert set(exceptional) == hooks
            checked["m1"] += 1
        else:
            family = lambda_family(row.scheme, row.n, family_orientation(report.witness))
            assert set(exceptional) == set(family)
            checked["m2+"] += 1
        size = multipartition_count(row.m, row.n) - len(exceptional) + 1
        assert len(partition.blocks) == size
        for idx, block in enumerate(partition.blocks):
            if idx != partition.exceptional_index:
                assert len(block) == 1
    assert checked["m1"] == 5 and checked["m2+"] > 0 and checked["off"] > 0, checked


def test_locus_regime_rows_match_fast_classification():
    rows = regime_locus(SweepGrid(m_values=(2,), n_values=(2,)))
    for row in rows:
        assert row.oracle_kind == oracle_kind(row.scheme, row.n)
        assert row.fast_kind == classify_regime(row.scheme, row.n).kind
        if row.fast_kind == ALMOST_SEMISIMPLE:
            count, _ = simple_count(row.scheme, row.n)
            assert count == row.scheme.m**0 * len(
                enumerate_multipartitions(row.scheme.m, row.n)
            ) - 1


def _random_schemes(count, seed):
    """Seeded (scheme, n) pairs with every kind of order (infinite, q = 1,
    small, at least 2n), negative shifts and repeated class labels; m and
    n are kept small enough that many schemes share a residue pattern."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5 if m <= 2 else 7 - m)
        e = rng.choice((0, 1, rng.randint(2, n + 1), rng.randint(2 * n, 2 * n + 3)))
        classes = tuple(rng.randrange(rng.randint(1, m)) for _ in range(m))
        shifts = tuple(rng.randint(-2 * n, 2 * n) for _ in range(m))
        yield ParamScheme(m=m, e=e, classes=classes, shifts=shifts), n


def test_oracle_count_depends_only_on_residue_pattern():
    # regime_locus runs the oracle once per pattern and reuses its kind, so
    # every scheme sharing a pattern must have the same oracle count.  A
    # pattern over the narrower window -(n-2)..n-2, or one without the
    # class labels, fails here (601 and 654 mismatches).
    first: dict = {}
    mismatches = []
    for scheme, n in _random_schemes(3000, seed=8):
        count = oracle_simple_count(scheme, n)
        pattern = _residue_pattern(scheme, n)
        if first.setdefault(pattern, (count, scheme))[0] != count:
            mismatches.append((n, scheme.describe(), first[pattern][1].describe()))
    assert mismatches == []
    assert len(first) < 1500  # the schemes do share patterns


def _fast_result(scheme, n):
    try:
        report = classify_regime(scheme, n)
    except InconsistentRegimeError:
        return InconsistentRegimeError
    return report.kind, report.simple_count, report.witness, report.non_kleshchev


def test_fast_path_depends_only_on_residue_pattern():
    # regime_locus runs classify_regime once per pattern too and reuses its
    # kind, so schemes sharing a pattern must get the same report, or both
    # raise.  A relation scan over |c| <= 2n + 1 (bound 2 * n + 2 passed to
    # relations in params.forced_label) reads the shifts beyond
    # what the -n..n windows show and fails here (19 mismatches); a scan
    # over |c| <= n + 1 does not, since the windows see every relation with
    # |c| <= 2n.
    first: dict = {}
    mismatches = []
    for scheme, n in _random_schemes(3000, seed=8):
        result = _fast_result(scheme, n)
        pattern = _residue_pattern(scheme, n)
        if first.setdefault(pattern, (result, scheme))[0] != result:
            mismatches.append((n, scheme.describe(), first[pattern][1].describe()))
    assert mismatches == []
    assert len(first) == 999  # the 3000 schemes share patterns
    reports = [result for result, _ in first.values() if result is not InconsistentRegimeError]
    assert len({report[2] for report in reports if report[2] is not None}) > 10


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_regime_locus_runs_oracle_once_per_pattern(monkeypatch):
    fast = _count_calls(monkeypatch, structure, "classify_regime")
    naive = _count_calls(monkeypatch, oracle, "oracle_kind")
    rows = regime_locus(SweepGrid())
    assert len(rows) == 4151
    assert len(fast) == len(naive) == 1309
    fast_patterns = {_residue_pattern(*args) for args in fast}
    assert len(fast_patterns) == 1309
    assert fast_patterns == {_residue_pattern(*args) for args in naive}


def _second_miss(scheme, n):
    """Index of the oracle's second non-Kleshchev label in canonical order,
    or None; the oracle's verdicts are read only that far."""
    misses = (i for i, ok in enumerate(oracle._label_verdicts(scheme, n)) if not ok)
    return next(islice(misses, 1, None), None)


def test_sweep_kernel_stops_at_the_oracles_second_miss(monkeypatch):
    # The kernel is handed the labels up to the oracle's second miss, and
    # the rest only when the kind needs them.  On the default grid the
    # kernel agrees with the oracle everywhere, so no rest is decided: the
    # calls are those of deciding every label (1428, with classify_regime's
    # single-label calls), on 11,372 labels instead of 43,411.
    calls = _count_calls(monkeypatch, _kernel, "kleshchev_verdicts")
    rows = regime_locus(SweepGrid())
    assert len(calls) == 1428
    assert sum(len(args[3]) for args in calls) == 11_372
    checked = set()
    for e, classes, shifts, mps in calls:
        scheme = ParamScheme(m=len(classes), e=e, classes=classes, shifts=shifts)
        n = sum(map(sum, mps[0]))
        second = _second_miss(scheme, n)
        if second is None:
            continue
        index = {mp: i for i, mp in enumerate(enumerate_multipartitions(scheme.m, n))}
        assert max(index[mp] for mp in mps) <= second, (scheme.describe(), n)
        checked.add(_residue_pattern(scheme, n))
    other = {
        _residue_pattern(row.scheme, row.n)
        for row in rows
        if row.oracle_kind == OTHER and row.scheme.e != 1
    }
    assert checked == other
    assert len(other) > 900


@pytest.mark.parametrize(
    "n, planted, misses",
    [(3, "e=3;class=0,1;shift=0,0", 2), (2, "e=2;class=0,0;shift=0,1", 3)],
    ids=["two-misses", "three-misses"],
)
def test_planted_kernel_simple_at_the_oracles_second_miss(n, planted, misses, monkeypatch):
    # A kernel that calls the oracle's second miss simple finds at most one
    # miss among the labels the oracle read, so the route must decide the
    # rest.  With two misses in all, the kernel's full verdict list has one:
    # every row of the pattern must read almost_semisimple and disagree (a
    # route that copies the oracle's kind shows none).  With three, the rest
    # holds the third miss: no row may disagree (a route that reads the
    # kind off the oracle's reach alone disagrees).
    scheme = parse_scheme(planted, 2)
    pattern = _residue_pattern(scheme, n)
    labels = enumerate_multipartitions(2, n)
    missed = [mp for mp, ok in zip(labels, oracle._label_verdicts(scheme, n)) if not ok]
    assert len(missed) == misses
    reach = _second_miss(scheme, n) + 1
    assert reach < len(labels)
    verdicts = _kernel.kleshchev_verdicts
    decided = []

    def plant(e, classes, shifts, mps):
        out = verdicts(e, classes, shifts, mps)
        here = ParamScheme(m=len(classes), e=e, classes=classes, shifts=shifts)
        if _residue_pattern(here, n) != pattern:
            return out
        decided.append(tuple(mps))
        return [ok or mp == missed[1] for mp, ok in zip(mps, out)]

    monkeypatch.setattr(_kernel, "kleshchev_verdicts", plant)
    rows = regime_locus(SweepGrid(m_values=(2,), n_values=(n,)))
    assert decided == [labels[:reach], labels[reach:]]
    wrong = [row for row in rows if not row.agree]
    if misses == 2:
        assert wrong == [row for row in rows if _residue_pattern(row.scheme, n) == pattern]
        assert len(wrong) > 1
        assert {(row.fast_kind, row.kernel_kind, row.oracle_kind) for row in wrong} == {
            (OTHER, ALMOST_SEMISIMPLE, OTHER)
        }
    else:
        assert wrong == []


def test_planted_fast_kind_shows_at_a_reused_pattern(monkeypatch):
    # A wrong fast kind at the first point of a pattern that has more
    # points is reused at each of them, so every row of the pattern, and
    # only those, must count as a disagreement against the oracle's kind.
    grid = SweepGrid(m_values=(2,), n_values=(3,))
    points: dict = {}
    for _, n, scheme in grid_points(grid):
        points.setdefault(_residue_pattern(scheme, n), []).append(scheme)
    planted_pattern, schemes = next(
        (pattern, schemes) for pattern, schemes in points.items() if len(schemes) > 1
    )
    planted = schemes[0]
    classify = structure.classify_regime

    def plant(scheme, n):
        report = classify(scheme, n)
        if scheme != planted:
            return report
        return dataclasses.replace(report, kind=OTHER if report.kind != OTHER else SEMISIMPLE)

    monkeypatch.setattr(structure, "classify_regime", plant)
    rows = regime_locus(grid)
    wrong = [row for row in rows if not row.agree]
    assert locus_summary(rows)["disagreements"] == len(schemes)
    assert [row.scheme for row in wrong] == schemes
    assert all(_residue_pattern(row.scheme, row.n) == planted_pattern for row in wrong)
    assert {row.oracle_kind for row in wrong} == {oracle_kind(planted, 3)}


def test_planted_formula_count_shows_as_a_disagreement(monkeypatch):
    # The formula's count two short at one semisimple pattern: the fast kind
    # reads other there, against the kernel's and the oracle's semisimple.
    planted = ParamScheme(m=2, e=0, classes=(0, 1), shifts=(0, 0))
    count = structure.kleshchev_count

    def plant(scheme, n):
        return count(scheme, n) - 2 * (scheme == planted and n == 2)

    monkeypatch.setattr(structure, "kleshchev_count", plant)
    rows = regime_locus(SweepGrid(m_values=(2,), n_values=(2,)))
    wrong = [row for row in rows if not row.agree]
    assert locus_summary(rows)["disagreements"] >= 1
    assert planted in [row.scheme for row in wrong]
    assert {(row.fast_kind, row.kernel_kind, row.oracle_kind) for row in wrong} == {
        (OTHER, SEMISIMPLE, SEMISIMPLE)
    }
    assert run(["sweep", "--grid", "m=2;n=2", "--format", "machine"], io.StringIO()) == 2


def test_unique_relation_implies_the_other_regime_facts():
    # params.forced_label tests m >= 2 only for a unique relation with
    # |c| = n - 1; its docstring argues that this implies q != 1, the order
    # bound (hence [n]_q! != 0), c != 0 and pairwise distinct u_i.  Here
    # each implied fact is checked at every n >= 2 point of the grid that it
    # accepts.
    accepted = 0
    violations = []
    for n in range(2, 6):
        grid = SweepGrid(m_values=(2, 3), n_values=(n,), e_values=tuple(range(2 * n + 4)))
        for m, _, scheme in grid_points(grid):
            forced = forced_label(scheme, n)
            if forced is None:
                continue
            witness = forced[0]
            accepted += 1
            e = scheme.e
            distinct = not any(
                relation_exponents(scheme, j, i, 1) for i, j in combinations(range(1, m + 1), 2)
            )
            if not (e != 1 and (e == 0 or e >= 2 * n - 1) and witness[2] != 0 and distinct):
                violations.append((n, scheme.describe(), witness))
    assert violations == []
    assert accepted >= 1368  # the n >= 2 points of this grid that it accepts
