"""Almost-semisimple regime detection and block-level structural data.

A parameter point is almost semisimple when the Hecke algebra has exactly
|Irrep(W)| - 1 simple modules.  In that regime the non-semisimple block is
completely rigid: its decomposition matrix is unit-bidiagonal, the Cartan
matrix is tridiagonal (2,1), and the KZ dimensions are binomial
coefficients.

classify_regime lists no label.  It takes N = |Irrep(W)| from the
generating function and the number of simple modules from
`simples.kleshchev_count`.  At a point with N - 1 simple modules it checks
the facts the regime forces, each once:

    m >= 2   exactly one relation u_j = q^c u_i with i < j and |c| < n,
             and that one has |c| = n - 1; the row or column of n boxes it
             forces is not simple
    m = 1    order n, or n - 1 >= 2 (which gives the e-restricted count
             p(n) - 1); the row (n) is not simple

The forced label costs one single-label kernel call (the q = 1 criterion
at e = 1).  Exactly one label is missing from the count, so a forced label
that is not simple is the one non-simple label.

The parameter-side tests are `params.regime_relation` (m >= 2) and
`params.m1_regime_order` (m = 1); the former's docstring says why q != 1,
[n]_q! != 0, the order bound 2n - 1 and pairwise distinct u_i are not
checked apart.  Any failure raises InconsistentRegimeError: an internal
inconsistency, never data.

hecke_dimension_audit lists no label outside the exceptional block (the
singletons give |W| less its squared dimensions), so what can fail is the
block's identity sum_(lambda in block) (dim lambda)^2 = w^T C w.

The matrices are block-level data under the declared a-ordering of the
lambda family; no claim is made about which individual Specht module maps
to which standard module.
"""

from dataclasses import dataclass
from math import comb, factorial

from .blocks import lambda_family
from .combinatorics import Multipartition, dim_irrep, multipartition_count
from .params import KappaInput, ParamScheme, derive_r, m1_regime_order, regime_relation, relations
from .simples import kleshchev_count, simple_verdicts

SEMISIMPLE = "semisimple"
ALMOST_SEMISIMPLE = "almost_semisimple"
OTHER = "other"

Matrix = tuple[tuple[int, ...], ...]


class InconsistentRegimeError(RuntimeError):
    """N - 1 simple modules but the forced facts fail:
    "inconsistent-regime" (signals an implementation bug, not bad input)."""


@dataclass(frozen=True)
class RegimeReport:
    m: int
    n: int
    kind: str
    simple_count: int
    irrep_count: int
    witness: tuple[int, int, int] | None = None
    non_kleshchev: Multipartition | None = None
    r: int | None = None
    dim_L_chi: int | None = None


@dataclass(frozen=True)
class BlockStructure:
    n: int
    specht_order: tuple[Multipartition, ...] | None
    decomposition: Matrix
    cartan: Matrix
    kz_dims: tuple[int, ...]
    exterior_dims: tuple[int, ...]

    @property
    def simple_order(self) -> tuple[Multipartition, ...] | None:
        """The n Kleshchev members of specht_order, which come first."""
        return None if self.specht_order is None else self.specht_order[: self.n]

    @property
    def hom_dims(self) -> Matrix:
        """Restated from the paper: dim Hom(P_a, P_b) is the Cartan matrix."""
        return self.cartan

    @property
    def pkz_multiplicities(self) -> tuple[int, ...]:
        """Restated from the paper: the P_KZ multiplicities are the KZ dims."""
        return self.kz_dims


def non_kleshchev_label(m: int, n: int, witness: tuple[int, int, int]) -> Multipartition:
    """The unique non-Kleshchev multipartition forced by the normalized
    witness (i, j, c), i < j, u_j = q^c u_i, |c| = n - 1.

    For c >= 0 it is the row of n boxes in component i (the addable partner
    of its last node sits in component j, below it); for c < 0 it is the
    column of n boxes in component i.
    """
    i, _, c = witness
    label: list[tuple[int, ...]] = [()] * m
    label[i - 1] = (n,) if c >= 0 else (1,) * n
    return tuple(label)


def family_orientation(witness: tuple[int, int, int]) -> tuple[int, int]:
    """The (i, j) ordering with u_j = q^(n-1) u_i, as lambda_family expects:
    rows grow in component i, columns in component j."""
    i, j, c = witness
    return (i, j) if c >= 0 else (j, i)


def kind_of(simple_count: int, irrep_count: int) -> str:
    """SEMISIMPLE with every label simple, ALMOST_SEMISIMPLE with one
    missing, OTHER otherwise."""
    if simple_count == irrep_count:
        return SEMISIMPLE
    return ALMOST_SEMISIMPLE if simple_count == irrep_count - 1 else OTHER


def classify_regime(
    scheme: ParamScheme, n: int, kappa: KappaInput | None = None
) -> RegimeReport:
    """Classify a parameter point as semisimple / almost_semisimple / other.

    In the almost-semisimple case the unique witness relation and the unique
    non-Kleshchev label are located and the facts the regime forces are
    checked (see the module docstring).  When kappa data is supplied, r and
    dim L(chi) = r^n are attached.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = multipartition_count(scheme.m, n)
    count = kleshchev_count(scheme, n)
    kind = kind_of(count, total)
    if kind != ALMOST_SEMISIMPLE:
        return RegimeReport(scheme.m, n, kind, count, total)

    if scheme.m == 1:
        if not m1_regime_order(scheme.e, n):
            raise InconsistentRegimeError(
                f"inconsistent-regime: m=1 count N-1 with order {scheme.e}"
            )
        witness = None
        expected = ((n,),)
    else:
        witness = regime_relation(scheme, n)
        if witness is None:
            raise InconsistentRegimeError(
                f"inconsistent-regime: relations {relations(scheme, n)} "
                "not a unique +-(n-1) relation"
            )
        expected = non_kleshchev_label(scheme.m, n, witness)
    if simple_verdicts(scheme, [expected])[0]:
        raise InconsistentRegimeError(
            f"inconsistent-regime: m={scheme.m} count N-1 but the forced label {expected} is simple"
        )

    r = dim_l = None
    if kappa is not None and (scheme.m > 1 or scheme.e == n):
        # For m = 1 the r = numerator(kappa00) reading needs order exactly n;
        # at the order-(n-1) regime points no r is derivable.
        r = derive_r(kappa, witness[:2] if witness else (1, 1))
        dim_l = r**n
    return RegimeReport(
        scheme.m, n, ALMOST_SEMISIMPLE, count, total,
        witness=witness, non_kleshchev=expected, r=r, dim_L_chi=dim_l,
    )


def kz_dimensions(n: int) -> tuple[int, ...]:
    """dim KZ(L_i) for i = 1..n, as alternating sums over the resolution by
    standard modules of dimensions C(n, j); equals C(n-1, i-1)."""
    return tuple(
        sum((-1) ** (j - i) * comb(n, j) for j in range(i, n + 1))
        for i in range(1, n + 1)
    )


def _block_matrices(size: int) -> tuple[Matrix, Matrix, tuple[int, ...]]:
    """The rigid block with `size` simple modules: its (size + 1) x size
    unit-bidiagonal decomposition matrix D, its Cartan matrix C = D^T D and
    its KZ dimensions."""
    decomposition = tuple(
        tuple(1 if b in (a, a - 1) else 0 for b in range(size)) for a in range(size + 1)
    )
    cartan = tuple(
        tuple(sum(row[a] * row[b] for row in decomposition) for b in range(size))
        for a in range(size)
    )
    return decomposition, cartan, kz_dimensions(size)


def block_structure(report: RegimeReport, scheme: ParamScheme, n: int) -> BlockStructure:
    """Block-level matrices of the unique non-semisimple block.

    Rows of the decomposition matrix follow specht_order, which is the
    lambda family arranged so the non-Kleshchev member comes last; columns
    follow its n Kleshchev members.  For m = 1 no lambda family exists and
    the label orders are None; the matrices are the same
    parameter-independent data.  The projective Hom table is the Cartan
    matrix and the P_KZ multiplicities are the KZ dimensions.
    """
    if report.kind != ALMOST_SEMISIMPLE:
        raise ValueError("block structure exists only in the almost-semisimple regime")
    specht_order = None
    if scheme.m >= 2:
        family = lambda_family(scheme, n, family_orientation(report.witness))
        specht_order = family if report.witness[2] >= 0 else tuple(reversed(family))
    decomposition, cartan, kz = _block_matrices(n)
    return BlockStructure(
        n=n,
        specht_order=specht_order,
        decomposition=decomposition,
        cartan=cartan,
        kz_dims=kz,
        exterior_dims=tuple(comb(n, i) for i in range(n + 1)),
    )


def hecke_dimension_audit(
    report: RegimeReport, scheme: ParamScheme, n: int
) -> tuple[int, int]:
    """Reassemble dim H = m^n * n! from the block picture.

    Singleton blocks contribute (dim tau)^2; the exceptional block
    contributes sum_ab w_a w_b C_ab, its projective Hom table C weighted by
    the P_KZ multiplicities w.  All squares sum to |W| = m^n * n!, so the
    singletons give m^n * n! less the block's squares, and the total misses
    exactly when those do not sum to w^T C w.  For m >= 2 the block's
    labels, C and w are read from what block_structure emits (specht_order,
    cartan, kz_dims), so a wrong emitted matrix or family makes it miss.

    The m = 1 branch reads only n: it takes the n hooks as the exceptional
    block and the rigid block's Hom table with n - 1 simple modules, which
    reassemble n! for every n, so it cannot fail.  The hooks are not always
    the block: at n = 4, e = 3 `blocks` gives {(4), (2,2), (1^4)}, and the
    audit still matches there and at e = 4.  An m = 1 block computed from
    the point (ROADMAP.md, item 2) would make this branch able to fail.
    """
    if report.kind != ALMOST_SEMISIMPLE:
        raise ValueError("the audit applies to the almost-semisimple regime")
    expected = scheme.m**n * factorial(n)
    if scheme.m >= 2:
        bs = block_structure(report, scheme, n)
        block, hom, weights = bs.specht_order, bs.cartan, bs.kz_dims
    else:
        block = [((n - k,) + (1,) * k,) for k in range(n)]
        _, hom, weights = _block_matrices(n - 1)
    size = len(weights)
    total = expected - sum(dim_irrep(mp) ** 2 for mp in block) + sum(
        weights[a] * weights[b] * hom[a][b] for a in range(size) for b in range(size)
    )
    return total, expected
