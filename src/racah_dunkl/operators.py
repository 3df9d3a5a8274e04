"""Linear operators on polynomial spaces, built from Dunkl operators.

Every operator shifts the homogeneous degree by a fixed amount, so its
matrix from the degree-k monomials to the degree-(k + shift) ones holds
its whole action on degree k; all the verified identities are
degree-homogeneous, so equality of operators is decided on these exact
matrices (linalg.RationalMatrix), or on an explicit polynomial basis.

A primitive operator is given by its rule on one monomial: T_i,
multiplication by x_i or by |x_A|^2, and the diagonals scaling a monomial
by a function of its degree over A (E_A, A0, the diagonal part of C_A).
A composite operator is a list of terms (c, (op_1, op_2, ...)) standing
for the sum of c * op_1 op_2 ..., the linalg.Term shape with operators in
place of matrices: Lap_A, C_A, L_ij, J+ and J-.  Every operator keeps the
image of each monomial it meets and its matrix on each degree.  A
primitive's matrix is read from its images; a composite's is one
linalg.product_sum over its parts' kept matrices, and its image of a
monomial is its terms evaluated on its parts' kept images.

The composite builders take a DunklOperators object, the n Dunkl
operators of one parameter set built once, in place of the parameters, so
all operators built from one object share the T_i with their kept images
and matrices: a sweep computes each of them once.

Index conventions follow the coordinate notation: operator builders take
1-based variable indices, and subsets are subsets of {1, .., n}.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Sequence

from .linalg import InconsistentSystem, RationalMatrix, product_sum, solve_in_span
from .poly import Monomial, ParameterSet, Polynomial, monomial_basis, monomial_positions

Terms = dict[Monomial, Fraction]
# one term c * op_1 op_2 ... of a composite operator; op_1 acts last
OperatorTerm = tuple[int | Fraction, Sequence["LinearOperator"]]

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
    """A named linear map on polynomials that shifts the degree by ``shift``.

    rule(exps) returns the image of the monomial with exponent tuple exps
    as a fresh dict of nonzero Fraction coefficients keyed by exponent
    tuples; a composite (``composite``) has ``terms``, which its rule
    evaluates.  Calling the operator on a polynomial applies the linear
    extension of the rule.  Each monomial's image and each degree's matrix
    are computed once and kept for the operator's lifetime; kept images are
    never handed out, every call returns a polynomial with its own terms.
    """

    __slots__ = ("rule", "descriptor", "shift", "terms", "_images", "_matrices")

    def __init__(self, rule: Callable[[Monomial], Terms], descriptor: str = "?", shift: int = 0):
        self.rule = rule
        self.descriptor = descriptor
        self.shift = shift
        self.terms: list[OperatorTerm] | None = None
        self._images: dict[Monomial, Terms] = {}
        self._matrices: dict[tuple[int, int], RationalMatrix] = {}

    @classmethod
    def composite(cls, terms: list[OperatorTerm], descriptor: str) -> "LinearOperator":
        """The sum of c * op_1 op_2 ... over terms (c, (op_1, op_2, ...)) of one shift."""
        shift = sum(op.shift for op in terms[0][1])
        op = cls(lambda exps: _terms_image(terms, exps), descriptor, shift)
        op.terms = terms
        return op

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
    out: Terms, op: LinearOperator, terms: Terms, scale: int | Fraction | None = None
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


def _terms_image(terms: list[OperatorTerm], exps: Monomial) -> Terms:
    """The image of one monomial under a composite, from its parts' kept images."""
    out: Terms = {}
    for c, factors in terms:
        # the innermost factor's kept image, then each outer factor in turn
        image = factors[-1]._image(exps) if len(factors) > 1 else {exps: _ONE}
        for op in reversed(factors[1:-1]):
            image = _add_image({}, op, image)
        _add_image(out, factors[0], image, None if c == 1 else c)
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

    return LinearOperator(rule, f"T{i}", -1)


class DunklOperators:
    """The n Dunkl operators of one parameter set, built once: ``dunkl[i]`` is T_i.

    The composite builders take this object in place of the parameters, so
    every operator built from one object shares the T_i, with their kept
    images and matrices.
    """

    __slots__ = ("params", "n", "dunkl")

    def __init__(self, params: ParameterSet):
        self.params = params
        self.n = params.n
        self.dunkl = {i: dunkl(params, i) for i in range(1, params.n + 1)}


def _coordinate_mul(i: int) -> LinearOperator:
    """Multiplication by the coordinate x_i."""
    pos = i - 1
    return LinearOperator(lambda exps: {_shift(exps, pos, 1): _ONE}, f"x{i}", 1)


def laplace(ops: DunklOperators, A: Iterable[int]) -> LinearOperator:
    """Sum of squared Dunkl operators over the index set A."""
    subset = normalize_subset(A, ops.n)
    return LinearOperator.composite(
        [(1, (ops.dunkl[i], ops.dunkl[i])) for i in subset], f"Lap{{{_name(subset)}}}"
    )


def norm_square_mul(A: Iterable[int], n: int) -> LinearOperator:
    """Multiplication by the squared norm over A, sum of x_i^2 for i in A."""
    subset = normalize_subset(A, n)
    positions = [i - 1 for i in subset]
    return LinearOperator(
        lambda exps: {_shift(exps, pos, 2): _ONE for pos in positions},
        f"|x{{{_name(subset)}}}|^2",
        2,
    )


def norm_square_poly(A: Iterable[int], n: int) -> Polynomial:
    return norm_square_mul(A, n)(Polynomial.one(n))


def _degree_diagonal(
    subset: tuple[int, ...], value: Callable[[int], Fraction], descriptor: str
) -> LinearOperator:
    """The operator scaling each monomial by value(its degree over subset)."""
    positions = [i - 1 for i in subset]
    values: dict[int, Fraction] = {}  # value of each degree met, computed once

    def rule(exps: Monomial) -> Terms:
        d = sum([exps[pos] for pos in positions])
        v = values.get(d)
        if v is None:
            v = values[d] = value(d)
        return {exps: v} if v else {}

    return LinearOperator(rule, descriptor)


def euler(A: Iterable[int], n: int) -> LinearOperator:
    """Degree-counting operator over A: each monomial is scaled by its A-degree."""
    subset = normalize_subset(A, n)
    return _degree_diagonal(subset, Fraction, f"E{{{_name(subset)}}}")


def gamma(params: ParameterSet, A: Iterable[int]) -> Fraction:
    """|A|/2 plus the sum of the deformation parameters over A."""
    subset = normalize_subset(A, params.n)
    return Fraction(len(subset), 2) + sum(params.mu_of(i) for i in subset)


def su11_triple(
    ops: DunklOperators, A: Iterable[int]
) -> tuple[LinearOperator, LinearOperator, LinearOperator]:
    """The raising/lowering realization (A0, J+, J-) attached to the set A.

    A0 is half the shifted degree operator, J+ multiplies by the squared
    norm over A (times 1/2), and J- is half the deformed Laplacian over A.
    """
    subset = normalize_subset(A, ops.n)
    gam = gamma(ops.params, subset)
    half = Fraction(1, 2)
    name = _name(subset)
    a0 = _degree_diagonal(subset, lambda d: (d + gam) * half, f"A0{{{name}}}")
    j_plus = LinearOperator.composite([(half, (norm_square_mul(subset, ops.n),))], f"J+{{{name}}}")
    j_minus = LinearOperator.composite([(half, (laplace(ops, subset),))], f"J-{{{name}}}")
    return a0, j_plus, j_minus


def casimir(ops: DunklOperators, A: Iterable[int]) -> LinearOperator:
    """Quadratic invariant of the su(1,1) realization on the set A.

    C_A = 1/4 * ((E_A + gamma_A)^2 - 2(E_A + gamma_A) - |x_A|^2 Lap_A);
    degree preserving, and a symmetry of the full deformed Laplacian.
    """
    subset = normalize_subset(A, ops.n)
    gam = gamma(ops.params, subset)
    name = _name(subset)
    diagonal = _degree_diagonal(subset, lambda d: (d + gam) * (d + gam - 2) / 4, f"D{{{name}}}")
    nrm_lap = (norm_square_mul(subset, ops.n), laplace(ops, subset))
    return LinearOperator.composite([(1, (diagonal,)), (Fraction(-1, 4), nrm_lap)], f"C{{{name}}}")


def angular(ops: DunklOperators, i: int, j: int) -> LinearOperator:
    """Deformed angular momentum x_i T_j - x_j T_i; requires i != j."""
    if i == j:
        raise ValueError("angular momentum needs two distinct indices")
    return LinearOperator.composite(
        [(1, (_coordinate_mul(i), ops.dunkl[j])), (-1, (_coordinate_mul(j), ops.dunkl[i]))],
        f"L{i}{j}",
    )


def materialize_on_monomials(op: LinearOperator, n: int, k: int) -> RationalMatrix:
    """Kept matrix of an operator from the degree-k to the degree-(k + op.shift) monomials.

    Column j is the image of the j-th monomial of monomial_basis(n, k), row
    i the i-th monomial of monomial_basis(n, k + op.shift); a basis of
    negative degree is empty.  A composite's matrix is the product sum of
    its terms over its parts' matrices, each on the degree it acts on.  A
    primitive image with a term outside degree k + op.shift raises
    ImageEscapesSpan.
    """
    matrix = op._matrices.get((n, k))
    if matrix is not None:
        return matrix
    if op.terms is not None:
        products = []
        for c, factors in op.terms:
            matrices, d = [], k
            for factor in reversed(factors):
                matrices.append(materialize_on_monomials(factor, n, d))
                d += factor.shift
            products.append((c, matrices[::-1]))
        matrix = op._matrices[(n, k)] = product_sum(products).normalized()
        return matrix
    basis = monomial_basis(n, k)
    position = monomial_positions(n, k + op.shift)
    images = [op._image(exps) for exps in basis]
    den = lcm(1, *(c.denominator for terms in images for c in terms.values()))
    rows: list[dict[int, int]] = [{} for _ in position]
    for j, terms in enumerate(images):
        for exps, c in terms.items():
            i = position.get(exps)
            if i is None:
                raise ImageEscapesSpan(
                    f"{op.descriptor} maps homogeneous degree {k} to degree {sum(exps)},"
                    f" not to its declared degree {k + op.shift}"
                )
            rows[i][j] = c.numerator * (den // c.denominator)
    matrix = op._matrices[(n, k)] = RationalMatrix.from_sparse(rows, den, len(basis))
    return matrix


def materialize(op: LinearOperator, n: int, basis: list[Polynomial]) -> RationalMatrix:
    """Exact matrix of op on a basis of polynomials.

    Column j holds the coordinates of the image of basis[j]: each image is
    solved exactly against the basis span, the matrix is the transpose of
    the solve's coefficient rows, and an image outside the span raises
    ImageEscapesSpan.
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
    rows: list[dict[int, int]] = [{} for _ in basis]
    for j, image in enumerate(coeffs.sparse_rows):
        for i, x in image.items():
            rows[i][j] = x
    return RationalMatrix.from_sparse(rows, coeffs.den, len(basis))
