import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from akregime import params
from akregime.combinatorics import Node
from akregime.params import (
    KappaInput,
    NoWitnessError,
    ParamScheme,
    Residue,
    SchemeParseError,
    derive_r,
    parse_kappa,
    parse_scheme,
    relation_exponents,
    relations,
    residue_of,
    scheme_from_kappa,
)


class ZLModel:
    """Exponent model in Z/L for rational-kappa parameters: every value
    q, u_1..u_m is exp(2*pi*i*a/L) for an integer a.  Independent of the
    ParamScheme construction; used to cross-check residue equalities."""

    def __init__(self, kappa: KappaInput):
        m = kappa.m
        denominators = [kappa.kappa00.denominator, m]
        denominators += [entry.denominator for entry in kappa.kappa]
        self.L = lcm(*denominators) * m
        self.a_q = int(kappa.kappa00 * self.L) % self.L
        self.a_u = []
        for i in range(1, m + 1):
            idx = m - i + 1
            entry = Fraction(0) if idx % m == 0 else kappa.kappa[idx % m - 1]
            t = -Fraction(idx, m) - entry
            self.a_u.append(int(t * self.L) % self.L)

    def order_of_q(self):
        if self.a_q == 0:
            return 1
        return self.L // gcd(self.a_q, self.L)

    def equal(self, i, a, j, b):
        """Does u_i q^a = u_j q^b hold?"""
        lhs = (self.a_u[i - 1] + a * self.a_q) % self.L
        rhs = (self.a_u[j - 1] + b * self.a_q) % self.L
        return lhs == rhs


def scheme_equal(scheme: ParamScheme, i, a, j, b):
    if scheme.classes[i - 1] != scheme.classes[j - 1]:
        return False
    diff = (scheme.shifts[i - 1] + a) - (scheme.shifts[j - 1] + b)
    return diff == 0 if scheme.e == 0 else diff % scheme.e == 0


def kappa_strategy():
    fractions = st.builds(
        Fraction,
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=1, max_value=6),
    )
    def build(m, n, kappa00, tail):
        return KappaInput(m=m, n=n, kappa00=kappa00, kappa=tuple(tail[: m - 1]))
    return st.builds(
        build,
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=4),
        fractions,
        st.lists(fractions, min_size=2, max_size=2),
    )


# --- residues and relations -------------------------------------------------

def test_residue_examples():
    scheme = ParamScheme(m=2, e=0, classes=(0, 0), shifts=(0, 1))
    assert residue_of(scheme, Node(1, 1, 1)) == Residue(0, 0)
    assert residue_of(scheme, Node(1, 1, 2)) == Residue(0, 1)
    assert residue_of(scheme, Node(1, 1, 2)) == residue_of(scheme, Node(2, 1, 1))


def test_residue_periodicity():
    scheme = ParamScheme(m=2, e=3, classes=(0, 1), shifts=(1, 2))
    for k in (1, 2):
        assert residue_of(scheme, Node(k, 4, 1)) == residue_of(scheme, Node(k, 1, 1))


def test_relation_exponent_examples():
    scheme = ParamScheme(m=2, e=0, classes=(0, 0), shifts=(0, 1))
    assert relation_exponents(scheme, 2, 1, 2) == {1}
    generic = ParamScheme(m=2, e=0, classes=(0, 1), shifts=(0, 0))
    assert relation_exponents(generic, 1, 2, 5) == frozenset()
    mod3 = ParamScheme(m=2, e=3, classes=(0, 0), shifts=(0, 2))
    assert relation_exponents(mod3, 2, 1, 2) == {-1}


@given(
    st.integers(min_value=0, max_value=7),
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
    st.integers(min_value=1, max_value=5),
)
def test_relation_exponents_antisymmetric(e, shifts, bound):
    scheme = ParamScheme(m=2, e=e, classes=(0, 0), shifts=shifts)
    forward = relation_exponents(scheme, 1, 2, bound)
    backward = relation_exponents(scheme, 2, 1, bound)
    assert forward == frozenset(-c for c in backward)


@pytest.mark.parametrize("e", [0, 1, 2, 3, 7, 15])
def test_relation_exponents_match_window_scan(e):
    # relation_exponents steps through the matches; a scan of the whole
    # window (-bound, bound) must find the same exponents.
    for a, b in product(range(-16, 17), repeat=2):
        scheme = ParamScheme(m=2, e=e, classes=(0, 0), shifts=(a, b))
        diff = scheme.shifts[0] - scheme.shifts[1]
        for bound in range(-1, 20):
            window = range(-bound + 1, bound)
            scan = {c for c in window if (c - diff) % e == 0} if e else {diff} & set(window)
            assert relation_exponents(scheme, 1, 2, bound) == scan, (e, a, b, bound)


def test_relations_equal_the_all_pairs_scan():
    # relations() pairs each component only with the later ones of its
    # class group; the scan over every pair i < j must find the same
    # (i, j, c), in the same order.
    rng = random.Random(25)
    for _ in range(2000):
        m = rng.randint(1, 7)
        scheme = ParamScheme(
            m=m,
            e=rng.choice([0, 1, 2, 3, 5, 8]),
            classes=tuple(rng.randint(0, 2) for _ in range(m)),
            shifts=tuple(rng.randint(-6, 6) for _ in range(m)),
        )
        bound = rng.randint(0, 6)
        scan = [
            (i, j, c)
            for i in range(1, m + 1)
            for j in range(i + 1, m + 1)
            for c in sorted(relation_exponents(scheme, j, i, bound))
        ]
        assert relations(scheme, bound) == scan, (scheme, bound)


def test_relations_scan_only_class_groups(monkeypatch):
    # The regime point m = 1413, n = 1 with classes 0, 0, 1, ..., 1411: one
    # pair shares a class, so the scan is linear in m, not quadratic.
    m = 1413
    scheme = ParamScheme(m=m, e=0, classes=(0, 0, *range(1, m - 1)), shifts=(0,) * m)
    calls = []
    exponents = params.relation_exponents

    def counted(*args):
        calls.append(args[1:3])
        return exponents(*args)

    monkeypatch.setattr(params, "relation_exponents", counted)
    assert relations(scheme, 1) == [(1, 2, 0)]
    assert len(calls) <= m


def test_shifts_reduced_mod_e():
    scheme = ParamScheme(m=2, e=3, classes=(0, 0), shifts=(4, -1))
    assert scheme.shifts == (1, 2)
    q_is_one = ParamScheme(m=2, e=1, classes=(0, 0), shifts=(5, 9))
    assert q_is_one.shifts == (0, 0)


@pytest.mark.parametrize(
    "classes,shifts",
    [((True, 0), (0, 1)), ((0, 0), (0, False)), ((0, 0), (0, 1.0)), ((0, "1"), (0, 1))],
)
def test_scheme_rejects_non_integer_labels_and_shifts(classes, shifts):
    with pytest.raises(ValueError):
        ParamScheme(m=2, e=0, classes=classes, shifts=shifts)


# --- kappa frontend ---------------------------------------------------------

def test_scheme_from_kappa_m1():
    scheme = scheme_from_kappa(KappaInput(m=1, n=2, kappa00=Fraction(1, 2)))
    assert scheme == ParamScheme(m=1, e=2, classes=(0,), shifts=(0,))


def test_scheme_from_kappa_m2_witness():
    kappa = KappaInput(m=2, n=2, kappa00=Fraction(1, 3), kappa=(Fraction(1, 6),))
    scheme = scheme_from_kappa(kappa)
    assert scheme.e == 3
    assert scheme.classes == (0, 0)
    assert scheme.shifts == (0, 1)


def test_scheme_from_kappa_zero_kappa():
    for m in (2, 3):
        kappa = KappaInput(m=m, n=2, kappa00=Fraction(0), kappa=(Fraction(0),) * (m - 1))
        scheme = scheme_from_kappa(kappa)
        assert scheme.e == 1
        assert len(set(scheme.classes)) == m


@settings(max_examples=200)
@given(kappa_strategy())
def test_scheme_agrees_with_zl_model(kappa):
    scheme = scheme_from_kappa(kappa)
    model = ZLModel(kappa)
    assert scheme.e == model.order_of_q()
    bound = 2 * kappa.n
    for i in range(1, kappa.m + 1):
        for j in range(1, kappa.m + 1):
            for a in range(-bound, bound + 1):
                for b in range(-bound, bound + 1):
                    assert scheme_equal(scheme, i, a, j, b) == model.equal(i, a, j, b)


# --- derive_r ---------------------------------------------------------------

def test_derive_r_m1_values():
    assert derive_r(KappaInput(m=1, n=2, kappa00=Fraction(1, 2)), (1, 1)) == 1
    assert derive_r(KappaInput(m=1, n=3, kappa00=Fraction(2, 3)), (1, 1)) == 2


def test_derive_r_m1_requires_order_n():
    with pytest.raises(NoWitnessError):
        derive_r(KappaInput(m=1, n=3, kappa00=Fraction(1, 2)), (1, 1))


def test_derive_r_m2_frozen_value():
    kappa = KappaInput(m=2, n=2, kappa00=Fraction(1, 3), kappa=(Fraction(1, 6),))
    assert derive_r(kappa, (1, 2)) == 1


def test_derive_r_m3():
    kappa = KappaInput(m=3, n=3, kappa00=Fraction(1, 5), kappa=(Fraction(11, 15), Fraction(0)))
    r = derive_r(kappa, (3, 2))
    assert r > 0 and r % 3 != 0


def test_derive_r_no_solution():
    kappa = KappaInput(m=2, n=2, kappa00=Fraction(1, 7), kappa=(Fraction(1, 6),))
    with pytest.raises(NoWitnessError):
        derive_r(kappa, (1, 2))


@pytest.mark.parametrize("witness", [(1, 1), (3, 1)], ids=["equal", "out-of-range"])
def test_derive_r_rejects_a_witness_that_names_no_pair(witness):
    # Unchecked, (1, 1) gives r = 2 here, which m = 2 divides.
    kappa = KappaInput(m=2, n=3, kappa00=Fraction(1, 2), kappa=(Fraction(0),))
    with pytest.raises(ValueError, match="two distinct components"):
        derive_r(kappa, witness)


# --- parsing ----------------------------------------------------------------

def test_parse_scheme_round_trip():
    scheme = parse_scheme("e=0;class=0,0;shift=0,1", 2)
    assert scheme == ParamScheme(m=2, e=0, classes=(0, 0), shifts=(0, 1))
    assert parse_scheme(scheme.describe(), 2) == scheme


def test_parse_kappa():
    kappa = parse_kappa("m=2;n=2;kappa00=1/3;kappa=1/6")
    assert kappa == KappaInput(m=2, n=2, kappa00=Fraction(1, 3), kappa=(Fraction(1, 6),))
    assert parse_kappa("m=1;n=2;kappa00=1/2") == KappaInput(m=1, n=2, kappa00=Fraction(1, 2))


@pytest.mark.parametrize(
    "text",
    [
        "e=0;class=0,0",          # missing shift
        "e=x;class=0,0;shift=0,1",  # bad int
        "e=0;class=0;shift=0,1",  # wrong arity
        "e=0;klass=0,0;shift=0,1",  # unknown key
        "m=2;n=2;kappa00=1/0",    # zero denominator
    ],
)
def test_parse_errors(text):
    with pytest.raises(SchemeParseError):
        if text.startswith("m="):
            parse_kappa(text)
        else:
            parse_scheme(text, 2)
