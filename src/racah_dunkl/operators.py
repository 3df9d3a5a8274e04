"""Linear operators on polynomial spaces, built from Dunkl operators.

Every operator shifts the homogeneous degree by a fixed amount, so its
matrix from the degree-k monomials to the degree-(k + shift) ones holds
its whole action on degree k; all the verified identities are
degree-homogeneous, so equality of operators is decided on these exact
matrices (linalg.RationalMatrix), or on an explicit polynomial basis.

An operator holds the image of each monomial as nonzero integer
numerators over one operator-wide denominator ``den``, the form of a
RationalMatrix row.  A primitive operator is given by its rule on one
monomial: T_i, multiplication by x_i or by |x_A|^2, the Laplacian Lap_A
by the closed form of T_i^2, and the diagonals scaling a monomial by a
function of its degree over A (A0, the diagonal part of C_A).  A
composite operator is a list of terms (c, (op_1, op_2, ...)) standing for
the sum of c * op_1 op_2 ..., the linalg.Term shape with operators in
place of matrices: C_A, L_ij, J+ and J-.  Its den is the lcm of the
terms' denominators, so each term adds an integer multiple of its parts'
integer images.  One loop, ``apply``, takes den times an operator on a
sparse vector of coefficients: ints in the tower lifts, a polynomial's
Fractions when the operator is called; it keeps the image of each
monomial it meets.  Every operator keeps its matrix on each degree.  A
primitive's matrix is the images of its rule as they are, over its den,
in lowest terms, and keeps no image; a composite's is one
linalg.product_sum over its parts' kept matrices.

The composite builders take a DunklOperators object, the n Dunkl
operators of one parameter set built once, in place of the parameters, so
all operators built from one object share the T_i and the Lap_A with
their kept images and matrices: a sweep computes each of them once.

Index conventions follow the coordinate notation: operator builders take
1-based variable indices, and subsets are subsets of {1, .., n}.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Callable, Iterable, Mapping, Sequence

from .linalg import InconsistentSystem, RationalMatrix, product_sum, solve_in_span
from .poly import Monomial, ParameterSet, Polynomial, monomial_basis, monomial_positions

# den times the image of one monomial: nonzero integers keyed by exponent tuples
Image = dict[Monomial, int]
# one term c * op_1 op_2 ... of a composite operator; op_1 acts last
OperatorTerm = tuple[int | Fraction, Sequence["LinearOperator"]]


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

    rule(exps) returns den times the image of the monomial with exponent
    tuple exps, as a fresh dict of nonzero integers keyed by exponent
    tuples; a composite (``composite``) has ``terms``, which its rule
    evaluates.  ``apply`` is the linear extension of the rule, and calling
    the operator on a polynomial divides that by den.  ``apply`` keeps each
    monomial's image, and materialize_on_monomials each degree's matrix,
    for the operator's lifetime; kept images are never handed out, every
    call returns its own terms.
    """

    __slots__ = ("rule", "descriptor", "shift", "den", "terms", "_images", "_matrices")

    def __init__(
        self, rule: Callable[[Monomial], Image], descriptor: str = "?", shift: int = 0, den: int = 1
    ):
        self.rule = rule
        self.descriptor = descriptor
        self.shift = shift
        self.den = den
        self.terms: list[OperatorTerm] | None = None
        self._images: dict[Monomial, Image] = {}
        self._matrices: dict[tuple[int, int], RationalMatrix] = {}

    @classmethod
    def composite(cls, terms: list[OperatorTerm], descriptor: str) -> "LinearOperator":
        """The sum of c * op_1 op_2 ... over terms (c, (op_1, op_2, ...)) of one shift.

        den is the lcm of the terms' c.denominator * op_1.den * op_2.den ...,
        so each term's integer images enter scaled by an integer.
        """
        shift = sum(op.shift for op in terms[0][1])
        dens = [c.denominator * prod(op.den for op in factors) for c, factors in terms]
        den = lcm(*dens)
        scaled = [(c.numerator * (den // d), factors) for (c, factors), d in zip(terms, dens)]
        op = cls(lambda exps: _terms_image(scaled, exps), descriptor, shift, den)
        op.terms = terms
        return op

    def apply(self, terms: Mapping[Monomial, int | Fraction], out: dict | None = None) -> dict:
        """den * self(terms) added into out (a fresh dict by default), without cancelled terms.

        terms maps exponent tuples to coefficients, ints or Fractions; the
        result holds the same kind.  The returned dict may be a new one.
        """
        images, rule = self._images, self.rule
        if out is None:
            out = {}
        get = out.get
        for exps, x in terms.items():
            image = images.get(exps)
            if image is None:
                image = images[exps] = rule(exps)
            for e, y in image.items():
                old = get(e)
                out[e] = x * y if old is None else old + x * y
        if not all(out.values()):
            out = {e: v for e, v in out.items() if v}
        return out

    def __call__(self, p: Polynomial) -> Polynomial:
        terms, den = self.apply(p.terms), self.den
        if den != 1:
            terms = {e: v / den for e, v in terms.items()}
        return Polynomial._trusted(p.n, terms)

    def __repr__(self) -> str:
        return f"LinearOperator({self.descriptor})"


def _terms_image(scaled: list[tuple[int, Sequence[LinearOperator]]], exps: Monomial) -> Image:
    """den times the image of one monomial under a composite, from its parts' kept images.

    Each term is (its integer scale, its factors); the monomial, times the
    scale, passes through the factors from the innermost out.
    """
    out: Image = {}
    for scale, factors in scaled:
        image = {exps: scale}
        for op in reversed(factors[1:]):
            image = op.apply(image)
        out = factors[0].apply(image, out)
    return out


def _name(subset: tuple[int, ...]) -> str:
    return ",".join(map(str, subset))


def _shift(exps: Monomial, pos: int, by: int) -> Monomial:
    return exps[:pos] + (exps[pos] + by,) + exps[pos + 1:]


def dunkl(params: ParameterSet, i: int) -> LinearOperator:
    """The deformed derivative T_i = d_i + (mu_i / x_i)(1 - r_i), over den(2 mu_i).

    On a monomial the reflection-difference term contributes 2*mu_i times
    the lowered monomial exactly when the x_i exponent is odd, so the
    coordinate division is always exact and the whole map lowers degree
    by one.  With 2 mu_i = a / b, b T_i x^e is (e_i b + a) x^(e - e_i) for
    odd e_i and e_i b x^(e - e_i) for even e_i.
    """
    pos = i - 1
    two_mu = 2 * params.mu_of(i)
    a, b = two_mu.numerator, two_mu.denominator

    def rule(exps: Monomial) -> Image:
        e = exps[pos]
        if e == 0:
            return {}
        return {_shift(exps, pos, -1): e * b + a if e % 2 else e * b}

    return LinearOperator(rule, f"T{i}", -1, b)


class DunklOperators:
    """The n Dunkl operators of one parameter set, built once: ``dunkl[i]`` is T_i.

    The composite builders take this object in place of the parameters, so
    every operator built from one object shares the T_i, with their kept
    images and matrices; ``laplacians`` keeps the Lap_A that ``laplace``
    builds, one per subset A, the same way.
    """

    __slots__ = ("params", "n", "dunkl", "laplacians")

    def __init__(self, params: ParameterSet):
        self.params = params
        self.n = params.n
        self.dunkl = {i: dunkl(params, i) for i in range(1, params.n + 1)}
        self.laplacians: dict[tuple[int, ...], LinearOperator] = {}


def _coordinate_mul(i: int) -> LinearOperator:
    """Multiplication by the coordinate x_i."""
    pos = i - 1
    return LinearOperator(lambda exps: {_shift(exps, pos, 1): 1}, f"x{i}", 1)


def laplace(ops: DunklOperators, A: Iterable[int]) -> LinearOperator:
    """The Laplacian over the set A, the sum of T_i^2 for i in A, kept on ops.

    T_i x^e = c(e_i) x^(e - e_i), with c(e) = e for even e and e + 2 mu_i
    for odd e, so T_i^2 maps x^e to the one monomial x^(e - 2 e_i) with
    coefficient c(e_i) c(e_i - 1), zero for e_i < 2.  One of e_i and
    e_i - 1 is odd; with 2 mu_i = a / b and den L the lcm of the b over A,
    L times that coefficient is the integer (odd * b + a) * even * (L / b).
    The T_i^2 of different i lower different exponents, so their images
    never overlap.
    """
    subset = normalize_subset(A, ops.n)
    lap = ops.laplacians.get(subset)
    if lap is not None:
        return lap
    two_mu = [(i - 1, 2 * ops.params.mu_of(i)) for i in subset]
    den = lcm(*(t.denominator for _, t in two_mu))
    factors = [(pos, t.numerator, t.denominator, den // t.denominator) for pos, t in two_mu]

    def rule(exps: Monomial) -> Image:
        image = {}
        for pos, a, b, s in factors:
            e = exps[pos]
            if e >= 2:
                odd, even = (e, e - 1) if e % 2 else (e - 1, e)
                image[exps[:pos] + (e - 2,) + exps[pos + 1:]] = (odd * b + a) * even * s
        return image

    lap = ops.laplacians[subset] = LinearOperator(rule, f"Lap{{{_name(subset)}}}", -2, den)
    return lap


def norm_square_mul(A: Iterable[int], n: int) -> LinearOperator:
    """Multiplication by the squared norm over A, sum of x_i^2 for i in A."""
    subset = normalize_subset(A, n)
    positions = [i - 1 for i in subset]
    return LinearOperator(
        lambda exps: {_shift(exps, pos, 2): 1 for pos in positions},
        f"|x{{{_name(subset)}}}|^2",
        2,
    )


def norm_square_poly(A: Iterable[int], n: int) -> Polynomial:
    return norm_square_mul(A, n)(Polynomial.one(n))


def _degree_diagonal(
    subset: tuple[int, ...], value: Callable[[int], int], descriptor: str, den: int
) -> LinearOperator:
    """The operator scaling each monomial by value(its degree over subset) / den."""
    positions = [i - 1 for i in subset]

    def rule(exps: Monomial) -> Image:
        v = value(sum([exps[pos] for pos in positions]))
        return {exps: v} if v else {}

    return LinearOperator(rule, descriptor, 0, den)


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
    With gamma_A = g / h, A0 scales a monomial of A-degree d by
    (d h + g) / 2h.
    """
    subset = normalize_subset(A, ops.n)
    gam = gamma(ops.params, subset)
    g, h = gam.numerator, gam.denominator
    half = Fraction(1, 2)
    name = _name(subset)
    a0 = _degree_diagonal(subset, lambda d: d * h + g, f"A0{{{name}}}", 2 * h)
    j_plus = LinearOperator.composite([(half, (norm_square_mul(subset, ops.n),))], f"J+{{{name}}}")
    j_minus = LinearOperator.composite([(half, (laplace(ops, subset),))], f"J-{{{name}}}")
    return a0, j_plus, j_minus


def casimir(ops: DunklOperators, A: Iterable[int]) -> LinearOperator:
    """Quadratic invariant of the su(1,1) realization on the set A.

    C_A = 1/4 * ((E_A + gamma_A)^2 - 2(E_A + gamma_A) - |x_A|^2 Lap_A);
    degree preserving, and a symmetry of the full deformed Laplacian.
    With gamma_A = g / h, the diagonal part scales a monomial of A-degree
    d by (d h + g)(d h + g - 2h) / 4h^2.
    """
    subset = normalize_subset(A, ops.n)
    gam = gamma(ops.params, subset)
    g, h = gam.numerator, gam.denominator
    name = _name(subset)
    diagonal = _degree_diagonal(
        subset, lambda d: (d * h + g) * (d * h + g - 2 * h), f"D{{{name}}}", 4 * h * h
    )
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
    its terms over its parts' matrices, each on the degree it acts on; a
    primitive's holds its rule's images over its den.  Both are in lowest
    terms.  A primitive image with a term outside degree k + op.shift
    raises ImageEscapesSpan.
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
    rows: list[dict[int, int]] = [{} for _ in position]
    for j, exps in enumerate(basis):
        for e, x in op.rule(exps).items():
            i = position.get(e)
            if i is None:
                raise ImageEscapesSpan(
                    f"{op.descriptor} maps homogeneous degree {k} to degree {sum(e)},"
                    f" not to its declared degree {k + op.shift}"
                )
            rows[i][j] = x
    matrix = RationalMatrix.from_sparse(rows, op.den, len(basis)).normalized()
    op._matrices[(n, k)] = matrix
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
