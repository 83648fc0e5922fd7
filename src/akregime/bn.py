"""The basic algebra of the unique non-semisimple block.

B(n) is the path algebra of the quiver with vertices 1..n, arrows f_{i,i+1}
and f_{i,i-1} between neighbours and a loop xi_i at each vertex, modulo the
relations

    xi * f = f * xi = 0,      f_{i-1,i} f_{i,i-1} = f_{i+1,i} f_{i,i+1} = xi_i,

with all other arrow compositions zero.  After the normalization that makes
every structure constant 0 or 1 the multiplication table is a fixed integer
table depending on n alone: build_bn takes nothing but n, so regime
instances with equal n share one table by construction.

The table is sparse: it holds the nonzero products only, and a pair of basis
elements missing from it multiplies to zero.

Composition convention: a * b applies b first, so a * b != 0 needs
target(b) = source(a); f_{i,j} points from vertex i to vertex j.
"""

from dataclasses import dataclass

Combination = tuple[tuple[int, int], ...]  # ((basis index, coefficient), ...)


@dataclass(frozen=True)
class BasicAlgebra:
    """A finite-dimensional algebra on a basis of paths.

    mult maps a pair (a, b) of basis indices to a * b and holds the nonzero
    products only: a pair missing from it is a zero product.  Read products
    through `product`."""

    n: int
    basis: tuple[str, ...]
    source: tuple[int, ...]
    target: tuple[int, ...]
    grading: tuple[int, ...]
    mult: dict[tuple[int, int], Combination]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def product(self, a: int, b: int) -> Combination:
        """a * b; () when the pair is missing from mult, a zero product."""
        return self.mult.get((a, b), ())

    def table_text(self) -> str:
        """Deterministic export: basis labels, then the nonzero triples."""
        lines = ["basis=" + ",".join(self.basis)]
        for a, b in sorted(self.mult):
            for idx, coeff in self.mult[a, b]:
                term = self.basis[idx] if coeff == 1 else f"{coeff}*{self.basis[idx]}"
                lines.append(f"{self.basis[a]},{self.basis[b]},{term}")
        return "\n".join(lines)


def build_bn(n: int) -> BasicAlgebra:
    """The normalized basic algebra on n vertices, dimension 4n - 2.

    Basis order: e_1..e_n, xi_1..xi_n, f_{1,2}..f_{n-1,n}, f_{2,1}..f_{n,n-1}.
    For n = 1 there are no arrows and the algebra is the dual numbers.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    basis: list[str] = []
    source: list[int] = []
    target: list[int] = []
    grading: list[int] = []

    def put(label, src, tgt, degree):
        basis.append(label)
        source.append(src)
        target.append(tgt)
        grading.append(degree)
        return len(basis) - 1

    e = [put(f"e_{i}", i, i, 0) for i in range(1, n + 1)]
    xi = [put(f"xi_{i}", i, i, 2) for i in range(1, n + 1)]
    f_up = [put(f"f_{i}_{i + 1}", i, i + 1, 1) for i in range(1, n)]
    f_down = [put(f"f_{i + 1}_{i}", i + 1, i, 1) for i in range(1, n)]

    mult: dict[tuple[int, int], Combination] = {}
    for b in range(len(basis)):
        # The idempotents at the ends of a path fix it.
        mult[e[target[b] - 1], b] = ((b, 1),)
        mult[b, e[source[b] - 1]] = ((b, 1),)
    # xi is the socle, so it dies against every other radical element, and
    # so do the paths i -> i+-1 -> i+-2.  What is left are the round trips
    # i -> i+1 -> i and i+1 -> i -> i+1, equal to xi_i and xi_{i+1}.
    for i, (up, down) in enumerate(zip(f_up, f_down)):
        mult[down, up] = ((xi[i], 1),)
        mult[up, down] = ((xi[i + 1], 1),)
    return BasicAlgebra(
        n=n,
        basis=tuple(basis),
        source=tuple(source),
        target=tuple(target),
        grading=tuple(grading),
        mult=mult,
    )


def regular_representation(algebra: BasicAlgebra) -> list[list[tuple[int, int, int]]]:
    """Left multiplication by each basis element, as the entries of its matrix.

    (i, j, x) in entries[a] adds x to the coefficient of basis i in
    a * basis j; every other entry of mat(a) is zero."""
    entries: list[list[tuple[int, int, int]]] = [[] for _ in algebra.basis]
    for (a, j), combo in algebra.mult.items():
        for i, x in combo:
            entries[a].append((i, j, x))
    return entries


def regular_representation_consistent(algebra: BasicAlgebra) -> bool:
    """Certify associativity independently: left multiplication must be an
    algebra homomorphism, mat(a) @ mat(b) == mat(a * b) for all pairs.

    The entries come from `regular_representation`.  Those of every mat(a)
    are grouped by column k and those of every mat(b) by row k; joining the
    two over k adds up every mat(a) @ mat(b) at once, in one difference
    keyed (a, b, i, j), and the sum of coeff * mat(idx) over a * b is taken
    away for each product in `mult`.  Every entry of the difference must be
    zero.  A pair with no joined entry and no product has a zero difference
    by construction, so this is the statement for all dim^2 pairs, zero
    products included, at the cost of the joined entries and the products:
    linear in n for B(n), not dim^2 times the entries."""
    entries = regular_representation(algebra)
    by_column: dict[int, list[tuple[int, int, int]]] = {}
    by_row: dict[int, list[tuple[int, int, int]]] = {}
    for a, nonzero in enumerate(entries):
        for i, j, x in nonzero:
            by_column.setdefault(j, []).append((a, i, x))
            by_row.setdefault(i, []).append((a, j, x))
    difference: dict[tuple[int, int, int, int], int] = {}
    for k, left in by_column.items():
        for b, j, x in by_row.get(k, ()):
            for a, i, y in left:
                key = a, b, i, j
                difference[key] = difference.get(key, 0) + y * x
    for (a, b), combo in algebra.mult.items():
        for idx, coeff in combo:
            for i, j, x in entries[idx]:
                key = a, b, i, j
                difference[key] = difference.get(key, 0) - coeff * x
    return not any(difference.values())
