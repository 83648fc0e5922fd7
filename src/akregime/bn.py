"""The basic algebra of the unique non-semisimple block.

B(n) is the path algebra of the quiver with vertices 1..n, arrows f_{i,i+1}
and f_{i,i-1} between neighbours and a loop xi_i at each vertex, modulo the
relations

    xi * f = f * xi = 0,      f_{i-1,i} f_{i,i-1} = f_{i+1,i} f_{i,i+1} = xi_i,

with all other arrow compositions zero.  After the normalization that makes
every structure constant 0 or 1 the multiplication table is a fixed integer
table depending on n alone: build_bn takes nothing but n, so regime
instances with equal n share one table by construction.

Composition convention: a * b applies b first, so a * b != 0 needs
target(b) = source(a); f_{i,j} points from vertex i to vertex j.
"""

from dataclasses import dataclass

Combination = tuple[tuple[int, int], ...]  # ((basis index, coefficient), ...)


@dataclass(frozen=True)
class BasicAlgebra:
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
        return self.mult[(a, b)]

    def table_text(self) -> str:
        """Deterministic export: basis labels, then the nonzero triples."""
        lines = ["basis=" + ",".join(self.basis)]
        dim = len(self.basis)
        for a in range(dim):
            for b in range(dim):
                for idx, coeff in self.mult[(a, b)]:
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
    f_up = {i: put(f"f_{i}_{i + 1}", i, i + 1, 1) for i in range(1, n)}
    f_down = {i: put(f"f_{i}_{i - 1}", i, i - 1, 1) for i in range(2, n + 1)}

    dim = len(basis)
    mult: dict[tuple[int, int], Combination] = {}
    for a in range(dim):
        for b in range(dim):
            mult[(a, b)] = _basis_product(a, b, e, xi, f_up, f_down, source, target)
    return BasicAlgebra(
        n=n,
        basis=tuple(basis),
        source=tuple(source),
        target=tuple(target),
        grading=tuple(grading),
        mult=mult,
    )


def _basis_product(a, b, e, xi, f_up, f_down, source, target) -> Combination:
    # a * b applies b first: composable iff target(b) == source(a).
    if target[b] != source[a]:
        return ()
    if a in e:
        return ((b, 1),)
    if b in e:
        return ((a, 1),)
    # xi is the socle map: any composition with another radical element dies.
    if a in xi or b in xi:
        return ()
    # Both are arrows.  The only surviving length-2 paths are the
    # round trips i -> i+-1 -> i, each equal to xi_i.
    vertex = source[b]
    if source[a] == target[b] and target[a] == vertex:
        return ((xi[vertex - 1], 1),)
    # A path i -> i+-1 -> i+-2 lands in a zero Hom space.
    return ()


def multiply(algebra: BasicAlgebra, left: Combination, right: Combination) -> Combination:
    """Product of two integer combinations of basis elements."""
    acc: dict[int, int] = {}
    for a, ca in left:
        for b, cb in right:
            for idx, coeff in algebra.mult[(a, b)]:
                acc[idx] = acc.get(idx, 0) + ca * cb * coeff
    return tuple(sorted((idx, coeff) for idx, coeff in acc.items() if coeff))


def associativity_violations(algebra: BasicAlgebra) -> list[tuple[int, int, int]]:
    """All basis triples with (a*b)*c != a*(b*c); empty means associative.

    Nothing in the package calls this: it stays as the independent route of
    a tier-1 check (regular_representation_consistent is compared with it)."""
    dim = algebra.dimension
    bad = []
    for a in range(dim):
        for b in range(dim):
            ab = algebra.mult[(a, b)]
            for c in range(dim):
                left = multiply(algebra, ab, ((c, 1),))
                right = multiply(algebra, ((a, 1),), algebra.mult[(b, c)])
                if left != right:
                    bad.append((a, b, c))
    return bad


def regular_representation(algebra: BasicAlgebra) -> list[list[list[int]]]:
    """Left-multiplication matrices, one per basis element.

    mat[a][i][j] is the coefficient of basis i in a * basis j.
    """
    dim = algebra.dimension
    mats = []
    for a in range(dim):
        mat = [[0] * dim for _ in range(dim)]
        for j in range(dim):
            for idx, coeff in algebra.mult[(a, j)]:
                mat[idx][j] += coeff
        mats.append(mat)
    return mats


def regular_representation_consistent(algebra: BasicAlgebra) -> bool:
    """Certify associativity independently: left multiplication must be an
    algebra homomorphism, mat(a) @ mat(b) == mat(a * b) for all pairs.

    The matrices come from `regular_representation` and are read once into
    their nonzero entries (i, j, x), and once more into those entries grouped
    by column.  For each pair, mat(a) @ mat(b) joins the entries of mat(b)
    with the columns of mat(a), the sum of coeff * mat(idx) over a * b runs
    over the entries of each mat(idx), and the two are compared as dicts of
    their nonzero (i, j) entries; every term of every product counts."""
    dim = algebra.dimension
    entries = [
        [(i, j, x) for i, row in enumerate(mat) for j, x in enumerate(row) if x]
        for mat in regular_representation(algebra)
    ]
    columns = []
    for nonzero in entries:
        by_column = [[] for _ in range(dim)]
        for i, k, x in nonzero:
            by_column[k].append((i, x))
        columns.append(by_column)
    for a in range(dim):
        left = columns[a]
        for b in range(dim):
            product: dict[tuple[int, int], int] = {}
            for k, j, x in entries[b]:
                for i, y in left[k]:
                    product[i, j] = product.get((i, j), 0) + y * x
            expected: dict[tuple[int, int], int] = {}
            for idx, coeff in algebra.mult[(a, b)]:
                for i, j, x in entries[idx]:
                    expected[i, j] = expected.get((i, j), 0) + coeff * x
            if {key: x for key, x in product.items() if x} != {
                key: x for key, x in expected.items() if x
            }:
                return False
    return True

