"""Linear operators on polynomial spaces, built from Dunkl operators.

Every operator here sends a monomial to a short sparse combination of
monomials: the Dunkl operator T_i, multiplication by x_i and by squared
norms, and the reflections r_i each send it to a single monomial.  So a
LinearOperator is defined by its rule on one monomial, and its action on
a polynomial is the linear extension of that rule.  Each operator keeps
the image of every monomial it has met, so the Laplacian, the invariants
C_A, the angular momenta and the su(1,1) triple build their images from
the kept images of their parts, and the images of the degree-k monomials
are exactly the columns of the operator's matrix on that degree.

Sums, products and commutators of operators are taken on their exact
matrices (linalg.RationalMatrix), so equality of operators is always
decided by materializing their action on an explicit basis, typically the
monomials of a fixed homogeneous degree.  Every operator here shifts the
degree by a fixed amount (T_i by -1, the Laplacians and J- by -2, J+ by
+2, the invariants, angular momenta and A0 by 0), so its matrix from the
monomials of degree k to those of degree k + shift holds its whole
action on degree k; all the verified identities are degree-homogeneous,
so this is sound.

Index conventions follow the coordinate notation: operator builders take
1-based variable indices, and subsets are subsets of {1, .., n}.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable

from .linalg import InconsistentSystem, RationalMatrix, solve_in_span
from .poly import Monomial, ParameterSet, Polynomial, monomial_basis

Terms = dict[Monomial, Fraction]

_ONE = Fraction(1)


class ImageEscapesSpan(ValueError):
    """Raised when an operator image leaves the span it is materialized on."""


def normalize_subset(A: Iterable[int], n: int) -> tuple[int, ...]:
    """Sorted tuple form of a nonempty subset of {1..n}."""
    subset = tuple(sorted(set(A)))
    if not subset:
        raise ValueError("subset must be nonempty")
    if subset[0] < 1 or subset[-1] > n:
        raise ValueError(f"subset {subset} not contained in 1..{n}")
    return subset


class LinearOperator:
    """A named linear map on polynomials, given by its rule on one monomial.

    rule(exps) returns the image of the monomial with exponent tuple exps
    as a fresh dict of nonzero Fraction coefficients keyed by exponent
    tuples.  Calling the operator on a polynomial applies the linear
    extension of the rule.  The image of each monomial is computed once
    per operator and kept for its lifetime; kept images are never handed
    out, every call returns a polynomial with its own terms.
    """

    __slots__ = ("rule", "descriptor", "_images")

    def __init__(self, rule: Callable[[Monomial], Terms], descriptor: str = "?"):
        self.rule = rule
        self.descriptor = descriptor
        self._images: dict[Monomial, Terms] = {}

    def _image(self, exps: Monomial) -> Terms:
        """The kept image of one monomial; callers must not modify it."""
        image = self._images.get(exps)
        if image is None:
            image = self._images[exps] = self.rule(exps)
        return image

    def __call__(self, p: Polynomial) -> Polynomial:
        return Polynomial._trusted(p.n, _add_image({}, self, p.terms))

    def __repr__(self) -> str:
        return f"LinearOperator({self.descriptor})"


def _add_image(
    out: Terms, op: LinearOperator, terms: Terms, scale: Fraction | None = None
) -> Terms:
    """Add scale * op(terms) into out in place, dropping cancelled terms.

    scale None stands for 1; a coefficient of 1, as on every monomial
    input, costs no multiplication.
    """
    image = op._image
    get = out.get
    for exps, coeff in terms.items():
        c = coeff if scale is None else coeff * scale
        unit = c == 1
        for e, v in image(exps).items():
            cv = v if unit else c * v
            old = get(e)
            if old is None:
                out[e] = cv
            else:
                new = old + cv
                if new:
                    out[e] = new
                else:
                    del out[e]
    return out


def _name(subset: tuple[int, ...]) -> str:
    return ",".join(map(str, subset))


def _shift(exps: Monomial, pos: int, by: int) -> Monomial:
    return exps[:pos] + (exps[pos] + by,) + exps[pos + 1:]


def dunkl(params: ParameterSet, i: int) -> LinearOperator:
    """The deformed derivative T_i = d_i + (mu_i / x_i)(1 - r_i).

    On a monomial the reflection-difference term contributes 2*mu_i times
    the lowered monomial exactly when the x_i exponent is odd, so the
    coordinate division is always exact and the whole map lowers degree
    by one.
    """
    pos = i - 1
    two_mu = 2 * params.mu_of(i)

    def rule(exps: Monomial) -> Terms:
        e = exps[pos]
        if e == 0:
            return {}
        return {_shift(exps, pos, -1): e + two_mu if e % 2 else Fraction(e)}

    return LinearOperator(rule, f"T{i}")


def _coordinate_mul(i: int) -> LinearOperator:
    """Multiplication by the coordinate x_i."""
    pos = i - 1
    return LinearOperator(lambda exps: {_shift(exps, pos, 1): _ONE}, f"x{i}")


def laplace(params: ParameterSet, A: Iterable[int]) -> LinearOperator:
    """Sum of squared Dunkl operators over the index set A."""
    subset = normalize_subset(A, params.n)
    ops = [dunkl(params, i) for i in subset]

    def rule(exps: Monomial) -> Terms:
        out: Terms = {}
        for op in ops:
            _add_image(out, op, op._image(exps))
        return out

    return LinearOperator(rule, f"Lap{{{_name(subset)}}}")


def norm_square_mul(A: Iterable[int], n: int) -> LinearOperator:
    """Multiplication by the squared norm over A, sum of x_i^2 for i in A."""
    subset = normalize_subset(A, n)
    positions = [i - 1 for i in subset]
    return LinearOperator(
        lambda exps: {_shift(exps, pos, 2): _ONE for pos in positions},
        f"|x{{{_name(subset)}}}|^2",
    )


def norm_square_poly(A: Iterable[int], n: int) -> Polynomial:
    subset = normalize_subset(A, n)
    terms: dict[Monomial, Fraction] = {}
    for i in subset:
        exps = [0] * n
        exps[i - 1] = 2
        terms[tuple(exps)] = Fraction(1)
    return Polynomial(n, terms)


def _degree_over(positions: list[int]) -> Callable[[Monomial], int]:
    return lambda exps: sum(exps[pos] for pos in positions)


def euler(A: Iterable[int], n: int) -> LinearOperator:
    """Degree-counting operator over A: each monomial is scaled by its A-degree."""
    subset = normalize_subset(A, n)
    degree = _degree_over([i - 1 for i in subset])

    def rule(exps: Monomial) -> Terms:
        d = degree(exps)
        return {exps: Fraction(d)} if d else {}

    return LinearOperator(rule, f"E{{{_name(subset)}}}")


def gamma(params: ParameterSet, A: Iterable[int]) -> Fraction:
    """|A|/2 plus the sum of the deformation parameters over A."""
    subset = normalize_subset(A, params.n)
    return Fraction(len(subset), 2) + sum(params.mu_of(i) for i in subset)


def _scaled(op: LinearOperator, c: Fraction) -> Callable[[Monomial], Terms]:
    return lambda exps: {e: v * c for e, v in op._image(exps).items()}


def su11_triple(
    params: ParameterSet, A: Iterable[int]
) -> tuple[LinearOperator, LinearOperator, LinearOperator]:
    """The raising/lowering realization (A0, J+, J-) attached to the set A.

    A0 is half the shifted degree operator, J+ multiplies by the squared
    norm over A (times 1/2), and J- is half the deformed Laplacian over A.
    """
    subset = normalize_subset(A, params.n)
    gam = gamma(params, subset)
    degree = _degree_over([i - 1 for i in subset])
    half = Fraction(1, 2)
    name = _name(subset)
    a0 = LinearOperator(lambda exps: {exps: (degree(exps) + gam) * half}, f"A0{{{name}}}")
    j_plus = LinearOperator(_scaled(norm_square_mul(subset, params.n), half), f"J+{{{name}}}")
    j_minus = LinearOperator(_scaled(laplace(params, subset), half), f"J-{{{name}}}")
    return a0, j_plus, j_minus


def casimir(params: ParameterSet, A: Iterable[int]) -> LinearOperator:
    """Quadratic invariant of the su(1,1) realization on the set A.

    C_A = 1/4 * ((E_A + gamma_A)^2 - 2(E_A + gamma_A) - |x_A|^2 Lap_A);
    degree preserving, and a symmetry of the full deformed Laplacian.
    """
    subset = normalize_subset(A, params.n)
    gam = gamma(params, subset)
    degree = _degree_over([i - 1 for i in subset])
    nrm = norm_square_mul(subset, params.n)
    lap = laplace(params, subset)
    minus_quarter = Fraction(-1, 4)

    def rule(exps: Monomial) -> Terms:
        shifted = degree(exps) + gam
        diagonal = shifted * (shifted - 2) / 4
        out: Terms = {exps: diagonal} if diagonal else {}
        return _add_image(out, nrm, lap._image(exps), minus_quarter)

    return LinearOperator(rule, f"C{{{_name(subset)}}}")


def angular(params: ParameterSet, i: int, j: int) -> LinearOperator:
    """Deformed angular momentum x_i T_j - x_j T_i; requires i != j."""
    if i == j:
        raise ValueError("angular momentum needs two distinct indices")
    ti, tj = dunkl(params, i), dunkl(params, j)
    xi, xj = _coordinate_mul(i), _coordinate_mul(j)
    minus_one = Fraction(-1)

    def rule(exps: Monomial) -> Terms:
        out = _add_image({}, xi, tj._image(exps))
        return _add_image(out, xj, ti._image(exps), minus_one)

    return LinearOperator(rule, f"L{i}{j}")


def materialize_on_monomials(
    op: LinearOperator, n: int, k: int, shift: int = 0
) -> RationalMatrix:
    """Matrix of an operator from the degree-k to the degree-(k + shift) monomials.

    Column j is the kept image of the j-th monomial of monomial_basis(n, k),
    and row i is the i-th monomial of monomial_basis(n, k + shift); a basis
    of negative degree is empty, so the matrix has no columns when k < 0
    and no rows when k + shift < 0.  An image with a term outside degree
    k + shift raises ImageEscapesSpan.
    """
    basis = monomial_basis(n, k)
    targets = basis if shift == 0 else monomial_basis(n, k + shift)
    position = {exps: i for i, exps in enumerate(targets)}
    images = [op._image(exps) for exps in basis]
    den = lcm(1, *(c.denominator for terms in images for c in terms.values()))
    rows: list[dict[int, int]] = [{} for _ in targets]
    for j, terms in enumerate(images):
        for exps, c in terms.items():
            i = position.get(exps)
            if i is None:
                raise ImageEscapesSpan(
                    f"{op.descriptor} does not map homogeneous degree {k} to degree {k + shift}"
                )
            rows[i][j] = c.numerator * (den // c.denominator)
    return RationalMatrix.from_sparse(rows, den, len(basis))


def materialize(op: LinearOperator, n: int, basis: list[Polynomial]) -> RationalMatrix:
    """Exact matrix of op on a basis of polynomials.

    Column j holds the coordinates of the image of basis[j]: each image is
    solved exactly against the basis span, and an image outside the span
    raises ImageEscapesSpan.
    """
    if not basis:
        raise ValueError("basis must be nonempty")
    for q in basis:
        if q.n != n:
            raise ValueError("basis polynomial has wrong dimension")

    images = [op(q).terms for q in basis]
    try:
        coeffs = solve_in_span([q.terms for q in basis], images)
    except InconsistentSystem as exc:
        raise ImageEscapesSpan(str(exc)) from exc
    rows = [[image[i] for image in coeffs] for i in range(len(basis))]
    return RationalMatrix.from_fractions(rows)
