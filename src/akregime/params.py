"""Symbolic Hecke parameters (q, u_1..u_m) and the rational-kappa frontend.

Parameters are never floating complex numbers.  A ParamScheme records only
the data every computation downstream depends on: the multiplicative order e
of q, and which relations u_i = q^c u_j hold.  It presents u_i as
q^shift[i] * v_{class[i]} where the v_c are multiplicatively independent
generics, so residue equality is decidable exactly.

Conventions: e = 0 means q has infinite order, e = 1 means q = 1 (shifts
collapse to 0).  Rational kappa input pins every parameter to a root of
unity, so schemes built from kappa always have e >= 1.
"""

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .combinatorics import Multipartition, Node, Partition


class Residue(NamedTuple):
    """The value u_k q^d, recorded up to the relations of the scheme."""

    cls: int
    exp: int


class NoWitnessError(ValueError):
    """Raised when derive_r finds no integral solution: "no-witness"."""


@dataclass(frozen=True)
class ParamScheme:
    m: int
    e: int
    classes: tuple[int, ...]
    shifts: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1 or len(self.classes) != self.m or len(self.shifts) != self.m:
            raise ValueError("classes and shifts must both have length m >= 1")
        if self.e < 0:
            raise ValueError("e must be >= 0 (0 encodes infinite order)")
        # bool is an int subclass, but True/False are not labels or shifts.
        if any(
            isinstance(x, bool) or not isinstance(x, int)
            for x in (*self.classes, *self.shifts)
        ):
            raise ValueError("class labels and shifts must be integers")
        if self.e > 0:
            object.__setattr__(self, "shifts", tuple(s % self.e for s in self.shifts))

    def describe(self) -> str:
        cls = ",".join(str(c) for c in self.classes)
        sh = ",".join(str(s) for s in self.shifts)
        return f"e={self.e};class={cls};shift={sh}"


@dataclass(frozen=True)
class KappaInput:
    m: int
    n: int
    kappa00: Fraction
    kappa: tuple[Fraction, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if len(self.kappa) != self.m - 1:
            raise ValueError("kappa must list kappa_1..kappa_{m-1}")
        entries = (self.kappa00,) + self.kappa
        if not all(isinstance(x, Fraction) for x in entries):
            raise ValueError("kappa entries must be rational (Fraction)")

    def kappa_entry(self, idx: int) -> Fraction:
        """kappa_idx for idx in 0..m-1, with kappa_0 = 0."""
        idx %= self.m
        return Fraction(0) if idx == 0 else self.kappa[idx - 1]


def residue_of(scheme: ParamScheme, node: Node) -> Residue:
    """Residue u_k q^(column - row) of the node in component k."""
    k, row, col = node
    exp = scheme.shifts[k - 1] + col - row
    if scheme.e > 0:
        exp %= scheme.e
    return Residue(scheme.classes[k - 1], exp)


def part_content(scheme: ParamScheme, k: int, part: Partition) -> tuple[Residue, ...]:
    """Sorted residues of the nodes of `part` placed in component k."""
    nodes = (Node(k, r, c) for r, length in enumerate(part, start=1) for c in range(1, length + 1))
    return tuple(sorted(residue_of(scheme, node) for node in nodes))


def relation_exponents(scheme: ParamScheme, i: int, j: int, bound: int) -> frozenset[int]:
    """All c with |c| < bound and u_i = q^c u_j.  Components are 1-based."""
    if i == j:
        raise ValueError("indices must differ")
    if scheme.classes[i - 1] != scheme.classes[j - 1]:
        return frozenset()
    diff = scheme.shifts[i - 1] - scheme.shifts[j - 1]
    if scheme.e == 0:
        return frozenset({diff} if abs(diff) < bound else ())
    # The c = diff mod e in the window, from the least one above -bound.
    first = -bound + 1 + (diff + bound - 1) % scheme.e
    return frozenset(range(first, bound, scheme.e))


def class_groups(classes) -> dict[int, list[int]]:
    """The 0-based component indices of each class label, keyed in
    first-seen order.  Components of different classes never share a
    residue or a relation, so the kernel, `kleshchev_count` and `relations`
    each work one group at a time."""
    groups: dict[int, list[int]] = {}
    for k, cls in enumerate(classes):
        groups.setdefault(cls, []).append(k)
    return groups


def relations(scheme: ParamScheme, bound: int) -> list[tuple[int, int, int]]:
    """Every (i, j, c) with i < j, |c| < bound and u_j = q^c u_i, in
    (i, j, c) order.

    Each i is paired only with the later components of its own class group
    (`class_groups`), found by bisection, so the order needs no sort."""
    groups = class_groups(scheme.classes)
    return [
        (i + 1, j + 1, c)
        for i, cls in enumerate(scheme.classes)
        for j in groups[cls][bisect_right(groups[cls], i):]
        for c in sorted(relation_exponents(scheme, j + 1, i + 1, bound))
    ]


def forced_label(
    scheme: ParamScheme, n: int
) -> tuple[tuple[int, int, int] | None, Multipartition] | None:
    """(witness, label) at a point that passes the parameter-side test of
    the almost-semisimple regime, else None: the label is the one the
    parameters force to be not simple.

    At m = 1 the test is that q has order n, or order n - 1 >= 2.  Exactly
    the row (n) then has a part gap >= n - 1, so it is the label, the one
    non-restricted partition (the count is p(n) - 1); there is no witness.

    At m >= 2 the witness is the one relation (i, j, c) of
    `relations(scheme, n)`, and it must have |c| = n - 1.  That uniqueness
    already implies q != 1, [n]_q! != 0, order infinite or >= 2n - 1 and
    pairwise distinct u_i, so none of them is tested apart: at a finite
    order e <= 2n - 2 the relation c comes with c -+ e, at e = 1 every c in
    (-n, n) is a relation, and for n > 1 a relation c = 0 would be a second
    one.  The label is the row of n boxes in component i for c >= 0 (the
    addable partner of its last node sits in component j, below it), and
    the column of n boxes there for c < 0."""
    if scheme.m == 1:
        return (None, ((n,),)) if scheme.e >= 2 and scheme.e in (n, n - 1) else None
    found = relations(scheme, n)
    if len(found) != 1 or abs(found[0][2]) != n - 1:
        return None
    i, _, c = witness = found[0]
    label: list[Partition] = [()] * scheme.m
    label[i - 1] = (n,) if c >= 0 else (1,) * n
    return witness, tuple(label)


def scheme_from_kappa(k: KappaInput) -> ParamScheme:
    """Build the exact scheme for q = exp(2*pi*i*kappa00) and
    u_i = eps^-(m-i+1) * exp(-2*pi*i*kappa_{m-i+1}), eps = exp(2*pi*i/m).

    All values are roots of unity; they are handled as exponents in Q/Z.
    The index m-i+1 is read mod m with kappa_0 = 0, so kappa_m means kappa_0.
    """
    m = k.m
    t_q = k.kappa00 % 1
    t_u = []
    for i in range(1, m + 1):
        idx = m - i + 1
        t_u.append((-Fraction(idx, m) - k.kappa_entry(idx)) % 1)

    # Order of q; e = 1 encodes q = 1 (t_q = 0 has denominator 1).
    e = t_q.denominator if t_q != 0 else 1
    p = t_q.numerator  # q = exp(2*pi*i*p/e), gcd(p, e) = 1

    # u_i ~ u_j iff u_i/u_j lies in <q> = {multiples of 1/e in Q/Z}, that
    # is iff t_i e = t_j e mod 1, so classes are keyed by t e mod 1.
    classes: list[int] = []
    shifts: list[int] = []
    reps: dict[Fraction, tuple[int, Fraction]] = {}  # key -> (label, exponent of class rep)
    for t in t_u:
        key = t * e % 1
        if key not in reps:
            reps[key] = (len(reps), t)
            shifts.append(0)
        else:
            d = int((t - reps[key][1]) * e)  # u = q^s * rep: solve s*p = d mod e
            shifts.append(d * pow(p, -1, e) % e if e > 1 else 0)
        classes.append(reps[key][0])
    return ParamScheme(m=m, e=e, classes=tuple(classes), shifts=tuple(shifts))


def derive_r(k: KappaInput, witness: tuple[int, int]) -> int:
    """The positive integer r with dim L(chi) = r^n, from rational kappa data.

    For m = 1 the regime means kappa00 = r/n mod 1 with gcd(r, n) = 1, and r
    is read off directly.  For m > 1 the witness (i, j) names two distinct
    components in 1..m, and x = (m-i+1) mod m, y = (m-j+1) mod m are their
    kappa-level indices.  With base = m*(kappa_x - kappa_y) and
    step = m*(n-1)*kappa00, the relation u_j = q^(n-1) u_i holds iff
    (r + x - y)/m is an integer at r = base - step, and u_j = q^-(n-1) u_i
    iff it is one at r = base + step; the first direction that holds, read
    in that order, gives r as |r|.  At a regime point only one of them
    holds: both would give q^(2(n-1)) = 1, a second relation that
    `forced_label` rules out.  Either way r = y - x mod m, and x != y are
    residues mod m, so m does not divide r and r != 0.
    """
    m, n = k.m, k.n
    if m == 1:
        c = k.kappa00 % 1
        if c.denominator != n or c.numerator == 0:
            raise NoWitnessError("no-witness")
        return c.numerator

    i, j = witness
    if not (1 <= i <= m and 1 <= j <= m and i != j):
        raise ValueError(f"witness {witness} must name two distinct components in 1..{m}")
    x = (m - i + 1) % m
    y = (m - j + 1) % m
    base = m * (k.kappa_entry(x) - k.kappa_entry(y))
    step = m * (n - 1) * k.kappa00
    for r in (base - step, base + step):
        if (r + x - y) % m == 0:
            return abs(int(r))
    raise NoWitnessError("no-witness")


class SchemeParseError(ValueError):
    """Malformed scheme or kappa text; the message carries the position."""


def _split_fields(text: str, allowed: tuple[str, ...]) -> dict[str, tuple[str, int]]:
    fields: dict[str, tuple[str, int]] = {}
    pos = 0
    for chunk in text.split(";"):
        if "=" not in chunk:
            raise SchemeParseError(f"expected key=value at position {pos}: {chunk!r}")
        key, value = chunk.split("=", 1)
        key = key.strip()
        if key not in allowed:
            raise SchemeParseError(f"unknown key {key!r} at position {pos}")
        if key in fields:
            raise SchemeParseError(f"duplicate key {key!r} at position {pos}")
        fields[key] = (value.strip(), pos)
        pos += len(chunk) + 1
    return fields


def _parse_int(value: str, pos: int, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise SchemeParseError(f"bad {what} at position {pos}: {value!r}") from None


def _parse_fraction(value: str, pos: int) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise SchemeParseError(f"bad rational at position {pos}: {value!r}") from None


def parse_scheme(text: str, m: int) -> ParamScheme:
    """Parse `e=<int>;class=<c1,..,cm>;shift=<s1,..,sm>`."""
    fields = _split_fields(text, ("e", "class", "shift"))
    for key in ("e", "class", "shift"):
        if key not in fields:
            raise SchemeParseError(f"missing key {key!r}")
    e = _parse_int(*fields["e"], what="order")
    value, pos = fields["class"]
    classes = tuple(_parse_int(v, pos, "class label") for v in value.split(","))
    value, pos = fields["shift"]
    shifts = tuple(_parse_int(v, pos, "shift") for v in value.split(","))
    if len(classes) != m or len(shifts) != m:
        raise SchemeParseError(f"expected {m} class labels and shifts")
    return ParamScheme(m=m, e=e, classes=classes, shifts=shifts)


def parse_kappa(text: str) -> KappaInput:
    """Parse `m=<int>;n=<int>;kappa00=<p/q>[;kappa=<p1/q1,..>]`."""
    fields = _split_fields(text, ("m", "n", "kappa00", "kappa"))
    for key in ("m", "n", "kappa00"):
        if key not in fields:
            raise SchemeParseError(f"missing key {key!r}")
    m = _parse_int(*fields["m"], what="m")
    n = _parse_int(*fields["n"], what="n")
    kappa00 = _parse_fraction(*fields["kappa00"])
    kappa: tuple[Fraction, ...] = ()
    if "kappa" in fields:
        value, pos = fields["kappa"]
        if value:
            kappa = tuple(_parse_fraction(v, pos) for v in value.split(","))
    if len(kappa) != m - 1:
        raise SchemeParseError(f"expected {m - 1} kappa entries, got {len(kappa)}")
    return KappaInput(m=m, n=n, kappa00=kappa00, kappa=kappa)
