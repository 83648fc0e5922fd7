"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s`.  The grid-wide criteria
share one evaluation of the default sweep grid (session fixture).
"""

import time
from fractions import Fraction
from math import comb, factorial

import pytest

from akregime.blocks import block_partition, lambda_family
from akregime.bn import build_bn, regular_representation_consistent
from akregime.combinatorics import dim_irrep, enumerate_multipartitions
from akregime.oracle import ALMOST_SEMISIMPLE, SEMISIMPLE, locus_summary
from akregime.params import KappaInput, ParamScheme, derive_r, scheme_from_kappa
from akregime.simples import ariki_semisimple
from akregime.structure import (
    block_structure,
    classify_regime,
    hecke_dimension_audit,
    kz_dimensions,
    family_orientation,
)

from references import associativity_violations, multiply, verify_lemmas

DEFAULT_SWEEP_SUMMARY = {
    "points": 4151,
    "regime_points": 557,
    "disagreements": 0,
    "prediction_mismatches": 0,
}
M3_BLOCK = (
    ((), (1, 1, 1), ()),
    ((), (1, 1), (1,)),
    ((), (1,), (2,)),
    ((), (), (3,)),
)


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number}: {detail}")
    assert ok, detail


@pytest.fixture(scope="session")
def sweep(default_sweep_rows):
    return default_sweep_rows


def regime_rows(rows):
    return [row for row in rows if row.fast_kind == ALMOST_SEMISIMPLE]


def test_criterion_1_exceptional_block():
    start = time.perf_counter()
    failures = []
    for e in (0, 5, 6, 7, 11):
        scheme = ParamScheme(m=3, e=e, classes=(0, 1, 1), shifts=(0, 2, 0))
        partition = block_partition(scheme, 3)
        if len(partition.blocks) != 19:
            failures.append(f"e={e}: {len(partition.blocks)} blocks")
            continue
        exceptional = partition.blocks[partition.exceptional_index]
        if set(exceptional) != set(M3_BLOCK):
            failures.append(f"e={e}: wrong exceptional block {exceptional}")
        if lambda_family(scheme, 3, (3, 2)) != M3_BLOCK:
            failures.append(f"e={e}: wrong family order")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    report(
        1,
        not failures,
        failures or f"m=3 n=3 exceptional block of 4, 19 = 22 - 3 blocks, "
        f"e in (0,5,6,7,11), {elapsed * 1e3:.0f}ms",
    )


def test_criterion_2_regime_locus(sweep):
    rows, elapsed = sweep["rows"], sweep["seconds"]
    disagreements = [r for r in rows if not r.agree]
    mismatches = [r for r in rows if not r.predicted_match]
    failures = []
    if disagreements:
        failures.append(f"{len(disagreements)} fast/oracle disagreements")
    if mismatches:
        failures.append(f"{len(mismatches)} characterization mismatches")
    summary = locus_summary(rows)
    if summary != DEFAULT_SWEEP_SUMMARY:
        failures.append(f"default sweep summary {summary} != {DEFAULT_SWEEP_SUMMARY}")
    if elapsed >= 300:
        failures.append(f"sweep runtime {elapsed:.1f}s >= 5min")
    regime_count = len(regime_rows(rows))
    report(
        2,
        not failures,
        failures
        or f"{len(rows)} grid points, {regime_count} regime points, "
        f"0 disagreements, 0 mismatches, {elapsed:.1f}s",
    )


def test_criterion_3_lemma_suite(sweep):
    start = time.perf_counter()
    failures = []
    checked = 0
    for row in regime_rows(sweep["rows"]):
        if row.m == 1:
            continue  # the lemma hypotheses need a witness pair
        reports = verify_lemmas(row.scheme, row.n)
        checked += 1
        for lemma in reports.values():
            if not lemma.passed:
                failures.append(f"{row.scheme.describe()}: {lemma}")
    corrupted = verify_lemmas(ParamScheme(m=3, e=0, classes=(0, 0, 0), shifts=(0, 2, 4)), 3)
    control = corrupted["no-extra-relations"]
    if control.passed or not control.counterexample:
        failures.append("negative control did not fail with a witness")
    elapsed = time.perf_counter() - start
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s >= 1min")
    report(
        3,
        not failures,
        failures
        or f"six lemmas on {checked} regime points, negative control "
        f"caught ({control.counterexample}), {elapsed:.1f}s",
    )


def test_criterion_4_decomposition_cartan(sweep):
    failures = []
    checked = 0
    instances = [(row.scheme, row.n) for row in regime_rows(sweep["rows"])]
    instances += [
        (ParamScheme(m=2, e=0, classes=(0, 0), shifts=(0, n - 1)), n)
        for n in range(1, 9)
    ]
    for scheme, n in instances:
        bs = block_structure(classify_regime(scheme, n), scheme, n)
        rows_ok = len(bs.decomposition) == n + 1 and all(
            len(row) == n
            and all(row[b] == (1 if b in (a, a - 1) else 0) for b in range(n))
            for a, row in enumerate(bs.decomposition)
        )
        cartan_ok = bs.cartan == tuple(
            tuple(2 if a == b else (1 if abs(a - b) == 1 else 0) for b in range(n))
            for a in range(n)
        )
        det_ok = _bareiss(bs.cartan) == n + 1 if n <= 8 else True
        checked += 1
        if not (rows_ok and cartan_ok and det_ok):
            failures.append(f"{scheme.describe()} n={n}")
    report(4, not failures, failures or f"bidiagonal D, tridiagonal C, det C = n+1 on {checked} instances")


def _bareiss(matrix):
    a = [list(row) for row in matrix]
    size = len(a)
    sign, previous = 1, 1
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


def test_criterion_5_kz_dimensions():
    failures = []
    for n in range(1, 13):
        dims = kz_dimensions(n)
        closed = tuple(comb(n - 1, i - 1) for i in range(1, n + 1))
        if dims != closed:
            failures.append(f"n={n}")
    report(5, not failures, failures or "alternating sums = C(n-1, i-1) for n <= 12")


def test_criterion_6_dimension_audit(sweep):
    failures = []
    checked = 0
    for row in regime_rows(sweep["rows"]):
        regime_report = classify_regime(row.scheme, row.n)
        total, expected = hecke_dimension_audit(regime_report, row.scheme, row.n)
        checked += 1
        if total != expected or expected != row.m**row.n * factorial(row.n):
            failures.append(f"{row.scheme.describe()}: {total} != {expected}")
    report(
        6,
        not failures,
        failures or f"block dimensions sum to m^n n! on {checked} regime points "
        "(8 at m=2 n=2, 162 at m=3 n=3)",
    )


def test_criterion_7_basic_algebra():
    start = time.perf_counter()
    failures = []
    for n in range(1, 11):
        algebra = build_bn(n)
        if algebra.dimension != 4 * n - 2:
            failures.append(f"dim at n={n}")
        if associativity_violations(algebra):
            failures.append(f"associativity at n={n}")
        if not regular_representation_consistent(algebra):
            failures.append(f"regular representation at n={n}")
        idempotents = list(range(n))
        for a in idempotents:
            for b in idempotents:
                want = ((a, 1),) if a == b else ()
                if algebra.product(a, b) != want:
                    failures.append(f"idempotents at n={n}")
        radical = [i for i, d in enumerate(algebra.grading) if d >= 1]
        for a in radical:
            for b in radical:
                ab = algebra.product(a, b)
                if any(algebra.grading[i] < 2 for i, _ in ab):
                    failures.append(f"radical grading at n={n}")
                for c in radical:
                    if multiply(algebra, ab, ((c, 1),)) != ():
                        failures.append(f"radical cube at n={n}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    report(7, not failures, failures or f"dim 4n-2, associative (n <= 10), {elapsed:.1f}s")


def test_criterion_8_kappa_frontend(sweep):
    failures = []
    cases = [
        (KappaInput(m=1, n=2, kappa00=Fraction(1, 2)), 1, 1),
        (KappaInput(m=1, n=3, kappa00=Fraction(2, 3)), 2, 8),
    ]
    for kappa, want_r, want_dim in cases:
        scheme = scheme_from_kappa(kappa)
        regime_report = classify_regime(scheme, kappa.n, kappa=kappa)
        if regime_report.kind != ALMOST_SEMISIMPLE:
            failures.append(f"{kappa}: not regime")
        elif (regime_report.r, regime_report.dim_L_chi) != (want_r, want_dim):
            failures.append(
                f"{kappa}: r={regime_report.r} dim={regime_report.dim_L_chi}"
            )

    higher = [
        KappaInput(m=2, n=2, kappa00=Fraction(1, 3), kappa=(Fraction(1, 6),)),
        KappaInput(m=2, n=2, kappa00=Fraction(1, 3), kappa=(Fraction(-11, 6),)),
        KappaInput(m=2, n=3, kappa00=Fraction(1, 5), kappa=(Fraction(1, 10),)),
        KappaInput(m=3, n=3, kappa00=Fraction(1, 5), kappa=(Fraction(11, 15), Fraction(0))),
    ]
    tested = 0
    for kappa in higher:
        scheme = scheme_from_kappa(kappa)
        regime_report = classify_regime(scheme, kappa.n, kappa=kappa)
        if regime_report.kind != ALMOST_SEMISIMPLE:
            failures.append(f"{kappa}: not regime")
            continue
        r = derive_r(kappa, family_orientation(regime_report.witness))
        tested += 1
        if not (r > 0 and r % kappa.m != 0 and regime_report.r == r):
            failures.append(f"{kappa}: r={r}")
    report(
        8,
        not failures,
        failures
        or f"r=1 dim 1 (n=2, 1/2), r=2 dim 8 (n=3, 2/3); r > 0 and m does not "
        f"divide r on {tested} higher-level points",
    )


def test_criterion_9_semisimplicity_equivalence(sweep):
    failures = []
    q_one_points = 0
    for row in sweep["rows"]:
        criterion = ariki_semisimple(row.scheme, row.n)
        counted = row.fast_kind == SEMISIMPLE
        if row.scheme.e == 1:
            q_one_points += 1
        if criterion != counted:
            failures.append(row.scheme.describe())
    report(
        9,
        not failures,
        failures
        or f"criterion == counting on {len(sweep['rows'])} points "
        f"({q_one_points} with q = 1)",
    )
