"""Linear operators on polynomial spaces, built from Dunkl operators.

A LinearOperator is only a named polynomial-to-polynomial function; the
builders below combine Dunkl operators inside their own closures.  Sums,
products and commutators of operators are taken on their exact matrices
(linalg.RationalMatrix), so equality of operators is always decided by
materializing their action on an explicit basis, typically the monomials
of a fixed homogeneous degree; all the verified identities are
degree-homogeneous, so this is sound.

Index conventions follow the coordinate notation: operator builders take
1-based variable indices, and subsets are subsets of {1, .., n}.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable

from .linalg import InconsistentSystem, RationalMatrix, solve_in_span
from .poly import Monomial, ParameterSet, Polynomial, monomial_basis, poly_to_vector


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
    """A named linear map on polynomials."""

    __slots__ = ("fn", "descriptor")

    def __init__(self, fn: Callable[[Polynomial], Polynomial], descriptor: str = "?"):
        self.fn = fn
        self.descriptor = descriptor

    def __call__(self, p: Polynomial) -> Polynomial:
        return self.fn(p)

    def __repr__(self) -> str:
        return f"LinearOperator({self.descriptor})"


def dunkl(params: ParameterSet, i: int) -> LinearOperator:
    """The deformed derivative T_i = d_i + (mu_i / x_i)(1 - r_i).

    On a monomial the reflection-difference term contributes 2*mu_i times
    the lowered monomial exactly when the x_i exponent is odd, so the
    coordinate division is always exact and the whole map lowers degree
    by one.
    """
    mu = params.mu_of(i)
    pos = i - 1
    two_mu = 2 * mu

    def apply(p: Polynomial) -> Polynomial:
        out: dict[Monomial, Fraction] = {}
        for exps, coeff in p.terms.items():
            e = exps[pos]
            if e == 0:
                continue
            factor = e + two_mu if e % 2 else Fraction(e)
            lowered = exps[:pos] + (e - 1,) + exps[pos + 1:]
            new = out.get(lowered, Fraction(0)) + coeff * factor
            if new:
                out[lowered] = new
            else:
                out.pop(lowered, None)
        return Polynomial(p.n, out)

    return LinearOperator(apply, f"T{i}")


def laplace(params: ParameterSet, A: Iterable[int]) -> LinearOperator:
    """Sum of squared Dunkl operators over the index set A."""
    subset = normalize_subset(A, params.n)
    ops = [dunkl(params, i) for i in subset]

    def apply(p: Polynomial) -> Polynomial:
        total = Polynomial.zero(p.n)
        for op in ops:
            total = total + op(op(p))
        return total

    return LinearOperator(apply, f"Lap{{{','.join(map(str, subset))}}}")


def norm_square_mul(A: Iterable[int], n: int) -> LinearOperator:
    """Multiplication by the squared norm over A, sum of x_i^2 for i in A."""
    subset = normalize_subset(A, n)
    positions = [i - 1 for i in subset]

    def apply(p: Polynomial) -> Polynomial:
        out: dict[Monomial, Fraction] = {}
        for exps, coeff in p.terms.items():
            for pos in positions:
                raised = exps[:pos] + (exps[pos] + 2,) + exps[pos + 1:]
                new = out.get(raised, Fraction(0)) + coeff
                if new:
                    out[raised] = new
                else:
                    out.pop(raised, None)
        return Polynomial(p.n, out)

    return LinearOperator(apply, f"|x{{{','.join(map(str, subset))}}}|^2")


def norm_square_poly(A: Iterable[int], n: int) -> Polynomial:
    subset = normalize_subset(A, n)
    terms: dict[Monomial, Fraction] = {}
    for i in subset:
        exps = [0] * n
        exps[i - 1] = 2
        terms[tuple(exps)] = Fraction(1)
    return Polynomial(n, terms)


def euler(A: Iterable[int], n: int) -> LinearOperator:
    """Degree-counting operator over A: each monomial is scaled by its A-degree."""
    subset = normalize_subset(A, n)
    positions = [i - 1 for i in subset]

    def apply(p: Polynomial) -> Polynomial:
        out: dict[Monomial, Fraction] = {}
        for exps, coeff in p.terms.items():
            d = sum(exps[pos] for pos in positions)
            if d:
                out[exps] = coeff * d
        return Polynomial(p.n, out)

    return LinearOperator(apply, f"E{{{','.join(map(str, subset))}}}")


def gamma(params: ParameterSet, A: Iterable[int]) -> Fraction:
    """|A|/2 plus the sum of the deformation parameters over A."""
    subset = normalize_subset(A, params.n)
    return Fraction(len(subset), 2) + sum(params.mu_of(i) for i in subset)


def su11_triple(
    params: ParameterSet, A: Iterable[int]
) -> tuple[LinearOperator, LinearOperator, LinearOperator]:
    """The raising/lowering realization (A0, J+, J-) attached to the set A.

    A0 is half the shifted degree operator, J+ multiplies by the squared
    norm over A (times 1/2), and J- is half the deformed Laplacian over A.
    """
    subset = normalize_subset(A, params.n)
    gam = gamma(params, subset)
    eul = euler(subset, params.n)
    nrm = norm_square_mul(subset, params.n)
    lap = laplace(params, subset)

    half = Fraction(1, 2)
    name = ",".join(map(str, subset))
    a0 = LinearOperator(lambda p: (eul(p) + p.scale(gam)).scale(half), f"A0{{{name}}}")
    j_plus = LinearOperator(lambda p: nrm(p).scale(half), f"J+{{{name}}}")
    j_minus = LinearOperator(lambda p: lap(p).scale(half), f"J-{{{name}}}")
    return a0, j_plus, j_minus


def casimir(params: ParameterSet, A: Iterable[int]) -> LinearOperator:
    """Quadratic invariant of the su(1,1) realization on the set A.

    C_A = 1/4 * ((E_A + gamma_A)^2 - 2(E_A + gamma_A) - |x_A|^2 Lap_A);
    degree preserving, and a symmetry of the full deformed Laplacian.
    """
    subset = normalize_subset(A, params.n)
    gam = gamma(params, subset)
    eul = euler(subset, params.n)
    nrm = norm_square_mul(subset, params.n)
    lap = laplace(params, subset)
    quarter = Fraction(1, 4)

    def apply(p: Polynomial) -> Polynomial:
        shifted = eul(p) + p.scale(gam)
        shifted2 = eul(shifted) + shifted.scale(gam)
        return (shifted2 - shifted.scale(2) - nrm(lap(p))).scale(quarter)

    return LinearOperator(apply, f"C{{{','.join(map(str, subset))}}}")


def angular(params: ParameterSet, i: int, j: int) -> LinearOperator:
    """Deformed angular momentum x_i T_j - x_j T_i; requires i != j."""
    if i == j:
        raise ValueError("angular momentum needs two distinct indices")
    ti = dunkl(params, i)
    tj = dunkl(params, j)
    pos_i, pos_j = i - 1, j - 1

    def mul_var(p: Polynomial, pos: int) -> Polynomial:
        return Polynomial(
            p.n,
            {e[:pos] + (e[pos] + 1,) + e[pos + 1:]: c for e, c in p.terms.items()},
        )

    def apply(p: Polynomial) -> Polynomial:
        return mul_var(tj(p), pos_i) - mul_var(ti(p), pos_j)

    return LinearOperator(apply, f"L{i}{j}")


def materialize_on_monomials(op: LinearOperator, n: int, k: int) -> RationalMatrix:
    """Matrix of a degree-preserving operator on the monomials of degree k."""
    basis = monomial_basis(n, k)
    position = {exps: i for i, exps in enumerate(basis)}
    images = []
    for exps in basis:
        image = op(Polynomial.monomial(n, exps))
        if not image.is_zero and (not image.is_homogeneous() or image.degree() != k):
            raise ImageEscapesSpan(
                f"{op.descriptor} does not preserve homogeneous degree {k}"
            )
        images.append(image.terms)
    den = lcm(1, *(c.denominator for terms in images for c in terms.values()))
    rows: list[dict[int, int]] = [{} for _ in basis]
    for j, terms in enumerate(images):
        for exps, c in terms.items():
            rows[position[exps]][j] = c.numerator * (den // c.denominator)
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

    images = [op(q) for q in basis]
    support: set[Monomial] = set()
    for q in list(basis) + images:
        support.update(q.terms)
    support_list = sorted(support)
    basis_cols = [poly_to_vector(q, support_list) for q in basis]
    image_cols = [poly_to_vector(q, support_list) for q in images]
    try:
        coeffs = solve_in_span(basis_cols, image_cols)
    except InconsistentSystem as exc:
        raise ImageEscapesSpan(str(exc)) from exc
    rows = [[image[i] for image in coeffs] for i in range(len(basis))]
    return RationalMatrix.from_fractions(rows)
