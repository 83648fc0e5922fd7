import dataclasses
import io
import random

import pytest

from akregime.bn import build_bn, regular_representation, regular_representation_consistent
from akregime.cli import BN_LIMIT, run

from references import associativity_violations, multiply


def label_index(algebra):
    return {name: idx for idx, name in enumerate(algebra.basis)}


def test_dimension_is_4n_minus_2():
    for n in list(range(1, 11)) + [20, 50]:
        assert build_bn(n).dimension == 4 * n - 2


def test_n1_is_dual_numbers():
    algebra = build_bn(1)
    assert algebra.basis == ("e_1", "xi_1")
    idx = label_index(algebra)
    assert algebra.product(idx["xi_1"], idx["xi_1"]) == ()
    assert algebra.product(idx["e_1"], idx["xi_1"]) == ((idx["xi_1"], 1),)


def test_n2_relations():
    algebra = build_bn(2)
    assert algebra.dimension == 6
    idx = label_index(algebra)
    assert algebra.product(idx["f_2_1"], idx["f_1_2"]) == ((idx["xi_1"], 1),)
    assert algebra.product(idx["f_1_2"], idx["f_2_1"]) == ((idx["xi_2"], 1),)


def test_idempotents_orthogonal_and_sum_to_identity():
    algebra = build_bn(4)
    idx = label_index(algebra)
    ids = [idx[f"e_{i}"] for i in range(1, 5)]
    for a in ids:
        for b in ids:
            expected = ((a, 1),) if a == b else ()
            assert algebra.product(a, b) == expected
    identity = tuple((a, 1) for a in sorted(ids))
    for b in range(algebra.dimension):
        assert multiply(algebra, identity, ((b, 1),)) == ((b, 1),)
        assert multiply(algebra, ((b, 1),), identity) == ((b, 1),)


def test_loop_and_arrow_relations():
    for n in (2, 3, 5):
        algebra = build_bn(n)
        idx = label_index(algebra)
        for i in range(1, n + 1):
            xi = idx[f"xi_{i}"]
            assert algebra.product(xi, xi) == ()
        arrows = [name for name in algebra.basis if name.startswith("f_")]
        loops = [name for name in algebra.basis if name.startswith("xi_")]
        for f in arrows:
            for xi in loops:
                assert algebra.product(idx[f], idx[xi]) == ()
                assert algebra.product(idx[xi], idx[f]) == ()
        # round trips produce the loop at the starting vertex
        for i in range(1, n):
            down_up = algebra.product(idx[f"f_{i}_{i + 1}"], idx[f"f_{i + 1}_{i}"])
            assert down_up == ((idx[f"xi_{i + 1}"], 1),)
            up_down = algebra.product(idx[f"f_{i + 1}_{i}"], idx[f"f_{i}_{i + 1}"])
            assert up_down == ((idx[f"xi_{i}"], 1),)
        # longer moves die in zero Hom spaces
        for i in range(1, n - 1):
            assert algebra.product(idx[f"f_{i + 1}_{i + 2}"], idx[f"f_{i}_{i + 1}"]) == ()
            assert algebra.product(idx[f"f_{i + 1}_{i}"], idx[f"f_{i + 2}_{i + 1}"]) == ()


@pytest.mark.parametrize("n", range(1, 11))
def test_associativity_all_triples(n):
    assert associativity_violations(build_bn(n)) == []


@pytest.mark.parametrize("n", range(1, 11))
def test_regular_representation_is_homomorphism(n):
    assert regular_representation_consistent(build_bn(n))


def change_basis(algebra, p, q, c):
    """The same algebra on the basis with b_p replaced by b_p + c * b_q:
    an associative table with multi-term, non-unit products.  Every one of
    the dim^2 pairs is recomputed, since a zero product can become nonzero."""

    def lift(i):
        return ((i, 1),) if i != p else ((p, 1), (q, c))

    def lower(combo):
        coeffs = dict(combo)
        if p in coeffs:
            coeffs[q] = coeffs.get(q, 0) - c * coeffs[p]
        return tuple(sorted((i, x) for i, x in coeffs.items() if x))

    dim = algebra.dimension
    mult = {}
    for a in range(dim):
        for b in range(dim):
            combo = lower(multiply(algebra, lift(a), lift(b)))
            if combo:
                mult[a, b] = combo
    return dataclasses.replace(algebra, mult=mult)


def seeded_tables(seed, count):
    """B(1)-B(4) after up to two changes of basis, half of them with one or
    two products then overwritten by random combinations.  Each table is
    associative before it is overwritten."""
    rng = random.Random(seed)
    coefficients = (-2, -1, 1, 2, 3)
    for _ in range(count):
        algebra = build_bn(rng.randint(1, 4))
        dim = algebra.dimension
        for _ in range(rng.randint(0, 2)):
            p, q = rng.sample(range(dim), 2)
            algebra = change_basis(algebra, p, q, rng.choice(coefficients))
        assert associativity_violations(algebra) == []
        if rng.random() < 0.5:
            mult = dict(algebra.mult)
            for _ in range(rng.randint(1, 2)):
                key = rng.randrange(dim), rng.randrange(dim)
                mult[key] = tuple(
                    (rng.randrange(dim), rng.choice(coefficients))
                    for _ in range(rng.randint(0, 3))
                )
                if not mult[key]:
                    del mult[key]  # a zero product is a missing pair
            algebra = dataclasses.replace(algebra, mult=mult)
        yield algebra


def test_regular_representation_agrees_with_associativity():
    # e * e = e + 2 xi and xi * e = 0: not associative at (e, e, e).
    dual = build_bn(1)
    mult = dict(dual.mult)
    mult[0, 0] = ((0, 1), (1, 2))
    del mult[1, 0]
    broken = dataclasses.replace(dual, mult=mult)
    assert associativity_violations(broken) == [(0, 0, 0)]
    assert not regular_representation_consistent(broken)

    verdicts = set()
    for algebra in seeded_tables(7, 120):
        associative = associativity_violations(algebra) == []
        assert regular_representation_consistent(algebra) == associative
        multi_term = any(len(combo) > 1 for combo in algebra.mult.values())
        verdicts.add((associative, multi_term))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def plant(algebra, fault):
    """B(n) with one fault planted at vertex i = n // 2 (n >= 3):
    e_{i+1} f_{i,i+1} = 2 f_{i,i+1} ("coefficient"), e_{i+1} f_{i,i+1} = 0
    ("deleted"), f_{i+1,i+2} f_{i,i+1} = xi_i on a zero pair ("spurious")
    or f_{i+1,i} f_{i,i+1} = xi_{i+1} ("redirected")."""
    idx = label_index(algebra)
    i = algebra.n // 2
    up, unit = idx[f"f_{i}_{i + 1}"], idx[f"e_{i + 1}"]
    mult = dict(algebra.mult)
    if fault == "coefficient":
        mult[unit, up] = ((up, 2),)
    elif fault == "deleted":
        del mult[unit, up]
    elif fault == "spurious":
        mult[idx[f"f_{i + 1}_{i + 2}"], up] = ((idx[f"xi_{i}"], 1),)
    else:
        mult[idx[f"f_{i + 1}_{i}"], up] = ((idx[f"xi_{i + 1}"], 1),)
    return dataclasses.replace(algebra, mult=mult)


@pytest.mark.parametrize("fault", ["coefficient", "deleted", "spurious", "redirected"])
def test_certificate_catches_planted_faults_at_the_limit(fault):
    # The certificate adds up only the nonzero entries and products, so a
    # fault on a pair that has neither must still show.  Each fault breaks
    # associativity itself, as the brute force shows on B(4).
    assert associativity_violations(plant(build_bn(4), fault))
    assert regular_representation_consistent(build_bn(BN_LIMIT))
    assert not regular_representation_consistent(plant(build_bn(BN_LIMIT), fault))


def test_regular_representation_matrices():
    algebra = build_bn(2)
    idx = label_index(algebra)
    dim = algebra.dimension
    mats = []
    for entries in regular_representation(algebra):
        mat = [[0] * dim for _ in range(dim)]
        for i, j, x in entries:
            mat[i][j] += x
        mats.append(mat)
    for i in (1, 2):
        mat = mats[idx[f"e_{i}"]]
        assert all(mat[r][c] in (0, 1) for r in range(dim) for c in range(dim))
        square = [
            [sum(mat[r][k] * mat[k][c] for k in range(dim)) for c in range(dim)]
            for r in range(dim)
        ]
        assert square == mat
        xi = mats[idx[f"xi_{i}"]]
        xi_sq = [
            [sum(xi[r][k] * xi[k][c] for k in range(dim)) for c in range(dim)]
            for r in range(dim)
        ]
        assert all(x == 0 for row in xi_sq for x in row)
    f12, f21 = mats[idx["f_1_2"]], mats[idx["f_2_1"]]
    product = [
        [sum(f12[r][k] * f21[k][c] for k in range(dim)) for c in range(dim)]
        for r in range(dim)
    ]
    assert product == mats[idx["xi_2"]]


def test_radical_cube_zero_and_semisimple_quotient():
    for n in (1, 2, 3, 6):
        algebra = build_bn(n)
        radical = [i for i, d in enumerate(algebra.grading) if d >= 1]
        assert len(algebra.basis) - len(radical) == n
        for a in radical:
            for b in radical:
                for idx, _ in algebra.product(a, b):
                    assert algebra.grading[idx] >= 2
                    for c in radical:
                        assert multiply(
                            algebra, algebra.product(a, b), ((c, 1),)
                        ) == ()


def test_hom_space_dimensions_match_cartan():
    for n in (1, 2, 3, 5):
        algebra = build_bn(n)
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                count = sum(
                    1
                    for i in range(algebra.dimension)
                    if algebra.source[i] == a and algebra.target[i] == b
                )
                expected = 2 if a == b else (1 if abs(a - b) == 1 else 0)
                assert count == expected


def test_structure_constants_zero_or_one():
    # One table per n, normalized: every product of basis elements is zero
    # or a single basis element with coefficient 1.  The table keeps the
    # nonzero products only, so every stored combination is one term.
    for n in range(1, 11):
        algebra = build_bn(n)
        for combo in algebra.mult.values():
            assert len(combo) == 1
            assert combo[0][1] == 1


def test_table_text_deterministic():
    # The whole export, pinned: the nonzero products in (a, b) order,
    # whatever order the table was filled in.
    out = io.StringIO()
    assert run(["bn-algebra", "--n", "2", "--format", "machine"], out) == 0
    assert out.getvalue().splitlines() == [
        "n=2\tdim=6\tassociativity=pass",
        "basis=e_1,e_2,xi_1,xi_2,f_1_2,f_2_1",
        "e_1,e_1,e_1",
        "e_1,xi_1,xi_1",
        "e_1,f_2_1,f_2_1",
        "e_2,e_2,e_2",
        "e_2,xi_2,xi_2",
        "e_2,f_1_2,f_1_2",
        "xi_1,e_1,xi_1",
        "xi_2,e_2,xi_2",
        "f_1_2,e_1,f_1_2",
        "f_1_2,f_2_1,xi_2",
        "f_2_1,e_2,f_2_1",
        "f_2_1,f_1_2,xi_1",
    ]
