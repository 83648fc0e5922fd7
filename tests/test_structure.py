import dataclasses
import io
import re
from fractions import Fraction
from math import comb, factorial

import pytest

from akregime import _kernel, simples, structure
from akregime.cli import run
from akregime.combinatorics import (
    dim_irrep,
    enumerate_multipartitions,
    multipartition_count,
    partitions,
)
from akregime.params import KappaInput, ParamScheme, scheme_from_kappa
from akregime.structure import (
    ALMOST_SEMISIMPLE,
    OTHER,
    SEMISIMPLE,
    InconsistentRegimeError,
    block_structure,
    classify_regime,
    hecke_dimension_audit,
    kz_dimensions,
    non_kleshchev_label,
)

REGIME_M2 = ParamScheme(m=2, e=0, classes=(0, 0), shifts=(0, 1))
REGIME_M3 = ParamScheme(m=3, e=0, classes=(0, 1, 1), shifts=(0, 2, 0))


def bareiss_determinant(matrix):
    """Fraction-free integer determinant, independent of any recurrence."""
    a = [list(row) for row in matrix]
    size = len(a)
    sign = 1
    previous = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[-1][-1]


def tridiagonal_det_recurrence(size):
    """det of the (2,1)-tridiagonal matrix via d_k = 2 d_{k-1} - d_{k-2}."""
    prev, here = 1, 2
    if size == 0:
        return 1
    for _ in range(size - 1):
        prev, here = here, 2 * here - prev
    return here


# --- classify ----------------------------------------------------------------

def test_classify_regime_m2():
    report = classify_regime(REGIME_M2, 2)
    assert report.kind == ALMOST_SEMISIMPLE
    assert report.simple_count == 4 and report.irrep_count == 5
    assert report.witness == (1, 2, 1)
    assert report.non_kleshchev == ((2,), ())


def test_classify_regime_m3_descending_witness():
    report = classify_regime(REGIME_M3, 3)
    assert report.kind == ALMOST_SEMISIMPLE
    assert report.witness == (2, 3, -2)
    assert report.non_kleshchev == ((), (1, 1, 1), ())


def test_classify_generic_semisimple():
    report = classify_regime(ParamScheme(m=2, e=0, classes=(0, 1), shifts=(0, 0)), 2)
    assert report.kind == SEMISIMPLE
    assert report.witness is None and report.non_kleshchev is None


def test_classify_q_one_merged_is_other():
    report = classify_regime(ParamScheme(m=2, e=1, classes=(0, 0), shifts=(0, 0)), 2)
    assert report.kind == OTHER
    assert report.simple_count == 2


def test_classify_n1_coincident_pair():
    report = classify_regime(ParamScheme(m=2, e=0, classes=(0, 0), shifts=(0, 0)), 1)
    assert report.kind == ALMOST_SEMISIMPLE
    assert report.witness == (1, 2, 0)
    assert report.non_kleshchev == ((1,), ())


def test_non_kleshchev_label_orientations():
    assert non_kleshchev_label(2, 3, (1, 2, 2)) == ((3,), ())
    assert non_kleshchev_label(2, 3, (1, 2, -2)) == ((1, 1, 1), ())


# --- kappa-driven reports -----------------------------------------------------

def test_classify_with_kappa_m1():
    kappa = KappaInput(m=1, n=2, kappa00=Fraction(1, 2))
    report = classify_regime(scheme_from_kappa(kappa), 2, kappa=kappa)
    assert report.kind == ALMOST_SEMISIMPLE
    assert report.witness is None
    assert (report.r, report.dim_L_chi) == (1, 1)


def test_classify_with_kappa_m1_n3():
    kappa = KappaInput(m=1, n=3, kappa00=Fraction(2, 3))
    report = classify_regime(scheme_from_kappa(kappa), 3, kappa=kappa)
    assert (report.r, report.dim_L_chi) == (2, 8)


def test_classify_with_kappa_m1_order_n_minus_1_has_no_r():
    kappa = KappaInput(m=1, n=3, kappa00=Fraction(1, 2))
    report = classify_regime(scheme_from_kappa(kappa), 3, kappa=kappa)
    assert report.kind == ALMOST_SEMISIMPLE
    assert report.r is None and report.dim_L_chi is None


def test_classify_with_kappa_m2():
    kappa = KappaInput(m=2, n=2, kappa00=Fraction(1, 3), kappa=(Fraction(1, 6),))
    report = classify_regime(scheme_from_kappa(kappa), 2, kappa=kappa)
    assert report.kind == ALMOST_SEMISIMPLE
    assert report.witness == (1, 2, 1)
    assert (report.r, report.dim_L_chi) == (1, 1)


# --- block structure ----------------------------------------------------------

def test_block_structure_n2():
    report = classify_regime(REGIME_M2, 2)
    bs = block_structure(report, REGIME_M2, 2)
    assert bs.decomposition == ((1, 0), (1, 1), (0, 1))
    assert bs.cartan == ((2, 1), (1, 2))
    assert bs.kz_dims == (1, 1)
    assert bs.exterior_dims == (1, 2, 1)
    assert bs.specht_order == (((), (1, 1)), ((1,), (1,)), ((2,), ()))
    assert bs.simple_order == bs.specht_order[:2]
    assert bs.specht_order[-1] == report.non_kleshchev


def test_block_structure_descending_witness_puts_non_kleshchev_last():
    report = classify_regime(REGIME_M3, 3)
    bs = block_structure(report, REGIME_M3, 3)
    assert bs.specht_order[-1] == report.non_kleshchev
    assert bs.specht_order == (
        ((), (), (3,)),
        ((), (1,), (2,)),
        ((), (1, 1), (1,)),
        ((), (1, 1, 1), ()),
    )


def test_block_structure_m1_has_no_labels():
    kappa = KappaInput(m=1, n=2, kappa00=Fraction(1, 2))
    scheme = scheme_from_kappa(kappa)
    report = classify_regime(scheme, 2, kappa=kappa)
    bs = block_structure(report, scheme, 2)
    assert bs.specht_order is None and bs.simple_order is None
    assert bs.decomposition == ((1, 0), (1, 1), (0, 1))


def test_block_structure_requires_regime():
    report = classify_regime(ParamScheme(m=2, e=0, classes=(0, 1), shifts=(0, 0)), 2)
    with pytest.raises(ValueError):
        block_structure(report, ParamScheme(m=2, e=0, classes=(0, 1), shifts=(0, 0)), 2)


@pytest.mark.parametrize("n", range(1, 9))
def test_decomposition_shape_and_cartan_determinant(n):
    scheme = ParamScheme(m=2, e=0, classes=(0, 0), shifts=(0, n - 1))
    report = classify_regime(scheme, n)
    bs = block_structure(report, scheme, n)
    rows = bs.decomposition
    assert len(rows) == n + 1 and all(len(row) == n for row in rows)
    for a, row in enumerate(rows):
        assert sum(row) == (1 if a in (0, n) else 2)
        for b, entry in enumerate(row):
            assert entry == (1 if b in (a, a - 1) else 0)
    assert all(sum(col) == 2 for col in zip(*rows))
    det = bareiss_determinant(bs.cartan)
    assert det == tridiagonal_det_recurrence(n) == n + 1


@pytest.mark.parametrize("n", range(1, 13))
def test_kz_dimensions_identity(n):
    assert kz_dimensions(n) == tuple(comb(n - 1, i - 1) for i in range(1, n + 1))


# --- dimension audit ----------------------------------------------------------

def test_audit_m2():
    report = classify_regime(REGIME_M2, 2)
    assert hecke_dimension_audit(report, REGIME_M2, 2) == (8, 8)


def test_audit_m3():
    report = classify_regime(REGIME_M3, 3)
    assert hecke_dimension_audit(report, REGIME_M3, 3) == (162, 162)


def _with_flipped_decomposition(real):
    """block_structure with D[n][n-1] flipped and C = D^T D rebuilt from it:
    a wrong emitted matrix that is still a consistent block picture."""

    def block_structure(report, scheme, n):
        bs = real(report, scheme, n)
        rows = [list(row) for row in bs.decomposition]
        rows[n][n - 1] ^= 1
        cartan = tuple(
            tuple(sum(row[a] * row[b] for row in rows) for b in range(n)) for a in range(n)
        )
        return dataclasses.replace(bs, decomposition=tuple(map(tuple, rows)), cartan=cartan)

    return block_structure


@pytest.mark.parametrize("scheme, n", [(REGIME_M2, 2), (REGIME_M3, 3)], ids=["m2", "m3"])
def test_audit_fails_on_a_wrong_emitted_matrix(scheme, n, monkeypatch):
    report = classify_regime(scheme, n)
    monkeypatch.setattr(
        structure, "block_structure", _with_flipped_decomposition(structure.block_structure)
    )
    total, expected = hecke_dimension_audit(report, scheme, n)
    assert total != expected
    argv = ["audit", "--m", str(scheme.m), "--n", str(n), "--scheme", scheme.describe()]
    assert run(argv + ["--format", "machine"], io.StringIO()) == 2


def _with_one_member_replaced(real):
    """block_structure whose specht_order has one member replaced by a
    label outside the family of another dimension: the right matrices over
    a wrong family."""

    def block_structure(report, scheme, n):
        bs = real(report, scheme, n)
        family = list(bs.specht_order)
        for k, member in enumerate(family):
            other = next(
                (
                    mp
                    for mp in enumerate_multipartitions(scheme.m, n)
                    if mp not in family and dim_irrep(mp) != dim_irrep(member)
                ),
                None,
            )
            if other is not None:
                family[k] = other
                return dataclasses.replace(bs, specht_order=tuple(family))
        raise AssertionError("no label outside the family differs in dimension")

    return block_structure


@pytest.mark.parametrize("scheme, n", [(REGIME_M2, 2), (REGIME_M3, 3)], ids=["m2", "m3"])
def test_audit_fails_on_a_wrong_family(scheme, n, monkeypatch):
    report = classify_regime(scheme, n)
    monkeypatch.setattr(
        structure, "block_structure", _with_one_member_replaced(structure.block_structure)
    )
    total, expected = hecke_dimension_audit(report, scheme, n)
    assert total != expected
    argv = ["audit", "--m", str(scheme.m), "--n", str(n), "--scheme", scheme.describe()]
    assert run(argv + ["--format", "machine"], io.StringIO()) == 2


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_audit_m1(n):
    scheme = ParamScheme(m=1, e=n, classes=(0,), shifts=(0,))
    report = classify_regime(scheme, n)
    total, expected = hecke_dimension_audit(report, scheme, n)
    assert total == expected == factorial(n)


# --- m = 1 branch ---------------------------------------------------------------

def m1_regime(e, n):
    """m = 1 by the closed form: the simple modules are indexed by the
    e-restricted partitions (all partitions when e = 0), and the regime is
    count = p(n) - 1, which happens at e = n and, for n >= 3, also at
    e = n - 1 (only the single row has a part gap that large)."""
    every = partitions(n)
    count = sum(
        1 for p in every if e == 0 or all(a - b < e for a, b in zip(p, p[1:] + (0,)))
    )
    return count == len(every) - 1, count


def test_m1_regime_examples():
    assert m1_regime(2, 2) == (True, 1)
    assert m1_regime(3, 3) == (True, 2)
    assert m1_regime(0, 3) == (False, 3)


def test_m1_regime_order_n_minus_1():
    # Only the single row has a part gap >= n - 1, so order n - 1 is also
    # almost semisimple (for n >= 3).
    assert m1_regime(2, 3) == (True, 2)
    assert m1_regime(3, 4) == (True, 4)
    assert m1_regime(2, 4) == (False, 2)


def test_m1_restricted_matches_kleshchev_route():
    for n in (2, 3, 4, 5):
        for e in range(2, 2 * n + 2):
            scheme = ParamScheme(m=1, e=e, classes=(0,), shifts=(0,))
            _, restricted = m1_regime(e, n)
            assert restricted == classify_regime(scheme, n).simple_count


def test_order_one_below_bound_is_not_regime():
    # A +-(n-1) relation at order 2n-2 folds onto its own inverse, so the
    # relation is not unique and the point falls outside the regime.
    for n in (2, 3, 4):
        scheme = ParamScheme(m=2, e=2 * n - 2, classes=(0, 0), shifts=(0, n - 1))
        report = classify_regime(scheme, n)
        assert report.kind == OTHER



# --- regime checks ---------------------------------------------------------------
# Each check that classify_regime keeps must be able to fail.  The count is
# replaced so that it reports N - 1 simple modules where the point's
# parameters cannot produce that count ("count"), or the verdict on the
# forced label is replaced so that it calls that label simple: the kernel
# ("kernel") or, at q = 1, the q = 1 criterion ("q-one").

BROKEN_REGIME = {
    "m2-no-relation": (
        ParamScheme(m=2, e=0, classes=(0, 1), shifts=(0, 0)), 2, "count",
        "not a unique +-(n-1) relation",
    ),
    # q = 1 and order 2n - 2 fail through the uniqueness of the relation.
    "m2-q-one": (
        ParamScheme(m=2, e=1, classes=(0, 0), shifts=(0, 0)), 2, "count",
        "not a unique +-(n-1) relation",
    ),
    "m2-order-2n-2": (
        ParamScheme(m=2, e=2, classes=(0, 0), shifts=(0, 1)), 2, "count",
        "not a unique +-(n-1) relation",
    ),
    "m2-wrong-label": (REGIME_M2, 2, "kernel", "m=2 count N-1 but the forced label"),
    "m2-q-one-wrong-label": (
        ParamScheme(m=2, e=1, classes=(0, 0), shifts=(0, 0)), 1, "q-one",
        "m=2 count N-1 but the forced label",
    ),
    "m1-infinite-order": (
        ParamScheme(m=1, e=0, classes=(0,), shifts=(0,)), 3, "count", "order 0",
    ),
    "m1-wrong-label": (
        ParamScheme(m=1, e=3, classes=(0,), shifts=(0,)), 3, "kernel",
        "m=1 count N-1 but the forced label",
    ),
}


def _break(monkeypatch, how):
    if how == "count":
        monkeypatch.setattr(
            structure, "kleshchev_count", lambda scheme, n: multipartition_count(scheme.m, n) - 1
        )
    elif how == "kernel":
        monkeypatch.setattr(
            _kernel, "kleshchev_verdicts", lambda e, classes, shifts, mps: [True] * len(mps)
        )
    else:
        monkeypatch.setattr(simples, "_q_is_one_simple", lambda scheme, mp: True)


@pytest.mark.parametrize("case", sorted(BROKEN_REGIME))
def test_regime_checks_can_fail(case, monkeypatch):
    scheme, n, how, message = BROKEN_REGIME[case]
    classify_regime(scheme, n)  # the point itself is consistent
    _break(monkeypatch, how)
    with pytest.raises(InconsistentRegimeError, match=re.escape(message)):
        classify_regime(scheme, n)


@pytest.mark.parametrize("case", sorted(BROKEN_REGIME))
def test_inconsistent_regime_exits_2(case, monkeypatch, capsys):
    scheme, n, how, _ = BROKEN_REGIME[case]
    _break(monkeypatch, how)
    argv = ["classify", "--m", str(scheme.m), "--n", str(n), "--scheme", scheme.describe()]
    assert run(argv, io.StringIO()) == 2
    assert "inconsistent-regime" in capsys.readouterr().err
