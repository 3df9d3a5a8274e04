"""Linear operators on polynomial spaces, built from Dunkl operators.

Every operator shifts the homogeneous degree by a fixed amount, so its
matrix from the monomials of degrees k..kmax to those of degrees
k + shift..kmax + shift, one block per degree, holds its whole action on
those degrees; all the verified identities are degree-homogeneous, so
equality of operators is decided on these exact matrices
(linalg.RationalMatrix), or on an explicit polynomial basis.

An operator holds the image of each monomial as nonzero integer
numerators over one operator-wide denominator ``den``, the form of a
RationalMatrix row.  It is built in one of two ways:

* from coordinate data, as every primitive is.  A coordinate move
  (pos, c) sends x^e to c(e_pos) x^(e + shift at pos), and a sum of moves
  gives T_i, the multiplication by x_i or by |x_A|^2, the full Laplacian
  by the closed form of T_i^2, and J+ (|x_A|^2 / 2).  A restriction
  (moves_at) is some of an operator's moves over a den, sharing their
  coefficients and kept values, kept on that operator: every Lap_A is
  the full Laplacian's moves at A over its den, and J- is Lap_A's over
  twice that.  A degree diagonal (positions, v) scales x^e by v(its
  degree over positions), which gives A0 and the diagonal part D_A of
  C_A.  The operator keeps each coefficient's values, evaluated once per
  exponent or A-degree, and both its rule on one monomial and its
  matrices are read from them;
* as a composite: a list of terms (c, (op_1, op_2, ...)) of one shift,
  standing for the sum of c * op_1 op_2 ..., the linalg.Term shape with
  operators in place of matrices: C_A and L_ij.  Its den is the lcm of
  the terms' denominators, so each term adds an integer multiple of its
  parts' integer images.

One loop, ``apply``, takes den times an operator on a sparse vector of
integer coefficients, a tower lift's or a polynomial's numerators, and
keeps the image of each monomial it meets; calling the operator on a
polynomial puts that over the polynomial's den times the operator's.  A
primitive keeps its matrix on each range of degrees it is asked for,
over its den in lowest terms.  A move's block is filled from the shared
index table poly.coordinate_moves, and a diagonal's from
poly.subset_degrees.  A sweep asks each operator for one range and reads
every factor of a check as a leading block of it (relations.DegreeSum),
so no coefficient is evaluated twice.  A composite's matrix is one
linalg.product_sum over its parts' matrices, each on the range of
degrees it acts on, built anew.

The coordinate data certify where an operator acts: its ``support`` is
the positions of its moves or diagonal, and for a composite the union
over its factors.  An operator with support in a set S of variables acts
on x_S alone, so materialize_on_monomials can read it on the monomials of
those variables only, re-indexing the same data onto the same shared
tables; relations.DegreeSum.local_first proves checks that way.

The composite builders take a DunklOperators object, the Dunkl data of
one parameter set built once, in place of the parameters, so all
operators built from one object share the T_i, the x_i and the one
full Laplacian, whose kept restrictions are the Lap_A, with their kept
images and matrices: a sweep computes each of them once, and each T_i^2
coefficient once per coordinate and exponent.

Index conventions follow the coordinate notation: operator builders take
1-based variable indices, and subsets are subsets of {1, .., n}.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Callable, Iterable, Mapping, Sequence

from .linalg import InconsistentSystem, RationalMatrix, product_sum, solve_in_span
from .poly import (
    Monomial,
    ParameterSet,
    Polynomial,
    coordinate_moves,
    poly_space_dim,
    subset_degrees,
)

# den times the image of one monomial: nonzero integers keyed by exponent tuples
Image = dict[Monomial, int]
# one term c * op_1 op_2 ... of a composite operator; op_1 acts last
OperatorTerm = tuple[int | Fraction, Sequence["LinearOperator"]]
# an integer coefficient of one exponent, or of one degree over a subset
Coefficient = Callable[[int], int]


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

    It is built by ``moving`` or ``moves_at``, which set ``moves``, by
    ``degree_diagonal``, which sets ``diagonal``, or by ``composite``,
    which sets ``terms``; the other two are None.  rule(exps), read from
    that data, returns den times the image of the monomial with exponent
    tuple exps, as a fresh dict of nonzero integers keyed by exponent
    tuples.  ``apply`` is the linear extension of the rule on integer
    coefficients, and calling the operator on a polynomial p is apply on
    p's numerators over p.den * den.  For the operator's lifetime,
    ``apply`` keeps each monomial's image, materialize_on_monomials a
    primitive's matrix of each range of degrees, keyed by (n, k, kmax)
    with k raised to the first degree holding a row or a column, and each
    move or diagonal the values of its coefficient, indexed by exponent or
    A-degree, and ``moves_at`` each restriction, keyed by its positions
    and den; kept images are never handed out, every call returns its own
    terms.
    """

    __slots__ = (
        "rule", "descriptor", "shift", "den", "terms", "moves", "diagonal",
        "_images", "_matrices", "_restrictions",
    )

    def __init__(
        self,
        descriptor: str,
        shift: int,
        den: int,
        moves: tuple[tuple[int, Coefficient, list[int]], ...] | None = None,
        diagonal: tuple[tuple[int, ...], Coefficient, list[int]] | None = None,
        terms: list[OperatorTerm] | None = None,
    ):
        self.descriptor = descriptor
        self.shift = shift
        self.den = den
        self.moves = moves
        self.diagonal = diagonal
        self.terms = terms
        if moves is not None:
            self.rule = _moves_rule(moves, shift)
        elif diagonal is not None:
            self.rule = _diagonal_rule(*diagonal)
        else:
            self.rule = _terms_rule(terms, den)
        self._images: dict[Monomial, Image] = {}
        self._matrices: dict[tuple[int, int, int], RationalMatrix] = {}
        self._restrictions: dict[tuple[tuple[int, ...], int], LinearOperator] = {}

    @classmethod
    def moving(
        cls, moves: Iterable[tuple[int, Coefficient]], descriptor: str, shift: int, den: int = 1
    ) -> "LinearOperator":
        """The sum of the coordinate moves (pos, c): x^e to c(e_pos) x^(e + shift at pos).

        pos is 0-based, and c(e) is an integer, den times the coefficient;
        it is evaluated once per exponent e >= -shift, and below that the
        move has no image.  ``moves`` holds (pos, c, values), values[e]
        the kept c(e), or 0 below -shift.
        """
        return cls(descriptor, shift, den, moves=tuple([(pos, c, []) for pos, c in moves]))

    def moves_at(self, positions: Iterable[int], descriptor: str, den: int) -> "LinearOperator":
        """The sum of this move operator's moves at the 0-based positions, over den, kept here.

        Each move keeps its coefficient and the list of its kept values,
        so all restrictions evaluate each coefficient once between them.
        The restriction is kept on this operator, keyed by the positions of
        its moves and den: a repeated request returns the same operator,
        with its kept images and matrices, under the first descriptor.  All
        the moves over this operator's den are this operator.
        """
        positions = set(positions)
        steps = tuple([step for step in self.moves if step[0] in positions])
        if len(steps) == len(self.moves) and den == self.den:
            return self
        key = (tuple([pos for pos, _, _ in steps]), den)
        op = self._restrictions.get(key)
        if op is None:
            op = self._restrictions[key] = LinearOperator(descriptor, self.shift, den, moves=steps)
        return op

    @classmethod
    def degree_diagonal(
        cls, positions: Iterable[int], value: Coefficient, descriptor: str, den: int
    ) -> "LinearOperator":
        """The operator scaling x^e by value(s) / den, s its degree over the 0-based positions.

        value is evaluated once per degree s, and s is 0 for every monomial
        when there are no positions; ``diagonal`` holds (positions, value,
        values), values[s] the kept value(s).
        """
        return cls(descriptor, 0, den, diagonal=(tuple(positions), value, []))

    @classmethod
    def composite(cls, terms: list[OperatorTerm], descriptor: str) -> "LinearOperator":
        """The sum of c * op_1 op_2 ... over terms (c, (op_1, op_2, ...)) of one shift.

        den is the lcm of the terms' c.denominator * op_1.den * op_2.den ...,
        so each term's integer images enter scaled by an integer.  No
        terms, a term with no factors, or terms of different shifts raise
        ValueError: every image lands on the degree the shift declares.
        """
        if not terms:
            raise ValueError(f"{descriptor} has no terms")
        if (empty := next((term for term in terms if not term[1]), None)) is not None:
            raise ValueError(f"the term {empty} of {descriptor} has no factors")
        shifts = sorted({sum(op.shift for op in factors) for _, factors in terms})
        if len(shifts) > 1:
            raise ValueError(f"the terms of {descriptor} shift the degree by {shifts}, not by one")
        den = lcm(*[_term_den(c, factors) for c, factors in terms])
        return cls(descriptor, shifts[0], den, terms=terms)

    @property
    def support(self) -> frozenset[int]:
        """The 0-based positions the operator reads and moves, from its coordinate data.

        A move operator's are the positions of its moves, a degree
        diagonal's its positions, and a composite's the union over its
        factors.  Operators whose supports are disjoint commute, and on n
        variables an operator with support in S is its action on the
        variables of S tensored with the identity.
        """
        if self.moves is not None:
            return frozenset([pos for pos, _, _ in self.moves])
        if self.diagonal is not None:
            return frozenset(self.diagonal[0])
        return frozenset().union(*[op.support for _, factors in self.terms for op in factors])

    def apply(self, terms: Mapping[Monomial, int], out: Image | None = None) -> Image:
        """den * self(terms) added into out (a fresh dict by default), without cancelled terms.

        terms maps exponent tuples to integer coefficients, and so does
        the result.  The returned dict may be a new one.
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
        return Polynomial._reduced(p.n, self.apply(p.terms), p.den * self.den)

    def __repr__(self) -> str:
        return f"LinearOperator({self.descriptor})"


def _moves_rule(steps, shift: int) -> Callable[[Monomial], Image]:
    """The rule of the (pos, c, values) steps: each move's image read from its kept values."""
    lowest = -shift if shift < 0 else 0

    def rule(exps: Monomial) -> Image:
        image = {}
        for pos, c, values in steps:
            e = exps[pos]
            try:
                x = values[e]
            except IndexError:
                _grow(values, c, lowest, e)
                x = values[e]
            if x:
                image[exps[:pos] + (e + shift,) + exps[pos + 1:]] = x
        return image

    return rule


def _diagonal_rule(
    positions: tuple[int, ...], value: Coefficient, values: list[int]
) -> Callable[[Monomial], Image]:
    """The rule of a degree diagonal: each monomial scaled by the kept value of its degree."""

    def rule(exps: Monomial) -> Image:
        s = sum([exps[pos] for pos in positions])
        try:
            x = values[s]
        except IndexError:
            _grow(values, value, 0, s)
            x = values[s]
        return {exps: x} if x else {}

    return rule


def _term_den(c: int | Fraction, factors: Sequence[LinearOperator]) -> int:
    return c.denominator * prod(op.den for op in factors)


def _terms_rule(terms: list[OperatorTerm], den: int) -> Callable[[Monomial], Image]:
    """The rule of a composite over den, from its parts' kept images.

    Each term enters with its integer scale over den; the monomial, times
    the scale, passes through the factors from the innermost out.
    """
    scaled = [(c.numerator * (den // _term_den(c, factors)), factors) for c, factors in terms]

    def rule(exps: Monomial) -> Image:
        out: Image = {}
        for scale, factors in scaled:
            image = {exps: scale}
            for op in reversed(factors[1:]):
                image = op.apply(image)
            out = factors[0].apply(image, out)
        return out

    return rule


def _name(subset: tuple[int, ...]) -> str:
    return ",".join(map(str, subset))


def _grow(values: list[int], c: Coefficient, lowest: int, upto: int) -> None:
    """Extend values to index upto with c(e), or 0 for e below lowest."""
    for e in range(len(values), upto + 1):
        values.append(c(e) if e >= lowest else 0)


def dunkl(params: ParameterSet, i: int) -> LinearOperator:
    """The deformed derivative T_i = d_i + (mu_i / x_i)(1 - r_i), over den(2 mu_i).

    On a monomial the reflection-difference term contributes 2*mu_i times
    the lowered monomial exactly when the x_i exponent is odd, so the
    coordinate division is always exact and the whole map lowers degree
    by one.  With 2 mu_i = a / b, b T_i x^e is (e_i b + a) x^(e - e_i) for
    odd e_i and e_i b x^(e - e_i) for even e_i.
    """
    two_mu = 2 * params.mu_of(i)
    a, b = two_mu.numerator, two_mu.denominator
    return LinearOperator.moving([(i - 1, lambda e: e * b + a if e % 2 else e * b)], f"T{i}", -1, b)


class DunklOperators:
    """The Dunkl data of one parameter set, built once: T_i, x_i and the full Laplacian.

    ``dunkl[i]`` is T_i and ``coordinates[i]`` the multiplication by x_i
    that ``angular`` reads, for i in 1..n; ``laplacian`` is the sum of
    the T_i^2 over all n variables in closed form, and every Lap_A that
    ``laplace`` returns is its restriction, kept on it.  The composite
    builders, the tower's lift and ck take this object in place of the
    parameters, so every operator built from one object shares these,
    with their kept images and matrices.
    """

    __slots__ = ("params", "n", "dunkl", "coordinates", "laplacian")

    def __init__(self, params: ParameterSet):
        indices = range(1, params.n + 1)
        self.params = params
        self.n = params.n
        self.dunkl = {i: dunkl(params, i) for i in indices}
        self.coordinates = {i: _coordinate_mul(i) for i in indices}
        self.laplacian = _full_laplacian(params)


def _unit(e: int) -> int:
    return 1


def _coordinate_mul(i: int) -> LinearOperator:
    """Multiplication by the coordinate x_i."""
    return LinearOperator.moving([(i - 1, _unit)], f"x{i}", 1)


def laplace(ops: DunklOperators, A: Iterable[int]) -> LinearOperator:
    """The Laplacian over the set A, the sum of T_i^2 for i in A: ops.laplacian's moves at A.

    It is the full Laplacian's restriction to A over its den, kept on it
    (LinearOperator.moves_at), and over all n variables the full
    Laplacian itself; so every Lap_A reads the same kept values of each
    T_i^2 coefficient.
    """
    subset = normalize_subset(A, ops.n)
    full = ops.laplacian
    return full.moves_at([i - 1 for i in subset], f"Lap{{{_name(subset)}}}", full.den)


def _full_laplacian(params: ParameterSet) -> LinearOperator:
    """The sum of T_i^2 over all n variables, over L the lcm of the b.

    T_i x^e = c(e_i) x^(e - e_i), with c(e) = e for even e and e + 2 mu_i
    for odd e, so T_i^2 maps x^e to the one monomial x^(e - 2 e_i) with
    coefficient c(e_i) c(e_i - 1), zero for e_i < 2.  One of e_i and
    e_i - 1 is odd; with 2 mu_i = a / b, L times that coefficient is the
    integer (odd * b + a) * even * (L / b).  The T_i^2 of different i
    lower different exponents, so their images never overlap.
    """
    # The closed form is kept, not derived from the T_i: ck checks the
    # tower, lifted with this Laplacian, by sum_i T_i T_i.  With
    # mu = (3/7, 10^6, 3/7) and T_1's coefficient +1 at e = 3, verify_ck
    # at kmax 4 fails tower-element-harmonic and extension-harmonic at
    # degrees 3 and 4; with a Laplacian derived from that T_1 no
    # harmonicity record fails, and only closed-form-matches-tower does.
    two_mu = [2 * mu for mu in params.mu]
    den = lcm(*(t.denominator for t in two_mu))
    moves = [
        (pos, _square_coefficient(t.numerator, t.denominator, den // t.denominator))
        for pos, t in enumerate(two_mu)
    ]
    return LinearOperator.moving(moves, f"Lap{{{_name(range(1, params.n + 1))}}}", -2, den)


def _square_coefficient(a: int, b: int, s: int) -> Coefficient:
    """The coefficient (odd * b + a) * even * s of T_i^2 over L = b s, at exponents e >= 2."""

    def coefficient(e: int) -> int:
        odd, even = (e, e - 1) if e % 2 else (e - 1, e)
        return (odd * b + a) * even * s

    return coefficient


def norm_square_mul(A: Iterable[int], n: int) -> LinearOperator:
    """Multiplication by the squared norm over A, sum of x_i^2 for i in A."""
    subset = normalize_subset(A, n)
    return LinearOperator.moving([(i - 1, _unit) for i in subset], f"|x{{{_name(subset)}}}|^2", 2)


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
    (d h + g) / 2h.  J+ is the moves of |x_A|^2 over den 2, and J- the
    moves of Lap_A over twice Lap_A's den L, a restriction kept on Lap_A.
    """
    subset = normalize_subset(A, ops.n)
    gam = gamma(ops.params, subset)
    g, h = gam.numerator, gam.denominator
    name = _name(subset)
    positions = [i - 1 for i in subset]
    a0 = LinearOperator.degree_diagonal(positions, lambda d: d * h + g, f"A0{{{name}}}", 2 * h)
    j_plus = LinearOperator.moving([(pos, _unit) for pos in positions], f"J+{{{name}}}", 2, 2)
    lap = laplace(ops, subset)
    j_minus = lap.moves_at(positions, f"J-{{{name}}}", 2 * lap.den)
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
    positions = [i - 1 for i in subset]
    diagonal = LinearOperator.degree_diagonal(
        positions, lambda d: (d * h + g) * (d * h + g - 2 * h), f"D{{{name}}}", 4 * h * h
    )
    nrm_lap = (norm_square_mul(subset, ops.n), laplace(ops, subset))
    return LinearOperator.composite([(1, (diagonal,)), (Fraction(-1, 4), nrm_lap)], f"C{{{name}}}")


def angular(ops: DunklOperators, i: int, j: int) -> LinearOperator:
    """Deformed angular momentum x_i T_j - x_j T_i; requires i != j."""
    if i == j:
        raise ValueError("angular momentum needs two distinct indices")
    return LinearOperator.composite(
        [(1, (ops.coordinates[i], ops.dunkl[j])), (-1, (ops.coordinates[j], ops.dunkl[i]))],
        f"L{i}{j}",
    )


def materialize_on_monomials(
    op: LinearOperator, n: int, k: int, kmax: int, variables: tuple[int, ...] | None = None
) -> RationalMatrix:
    """Matrix of op on the monomials of degrees k..kmax in n variables, one block per degree.

    Block d maps the columns monomial_basis(n, d) to the rows
    monomial_basis(n, d + op.shift), blocks in degree order; a negative
    degree gives an empty block, and (op, n, k, k) is the matrix on degree
    k.  The n variables are op's positions 0..n-1, or, given
    ``variables``, the n sorted 0-based positions it lists, which must
    hold op's support: each position of op's coordinate data is read at
    its index in variables, so op acts on those variables alone.  The
    degrees below min(0, -shift) hold no row and no column, so k is
    raised to it first and such ranges share one matrix.  A composite's
    is the product sum of its terms over its parts' matrices, each on the
    range it acts on, and is not kept; a primitive's is kept per range
    and variables, over its den.  A move's block is read from the index
    tables of poly.coordinate_moves and a diagonal's from those of
    poly.subset_degrees, with each coefficient's kept values, and the
    common factor of those values and den is divided out first.  All are
    in lowest terms, so a range holds the integers of its lowest-terms
    blocks over the lcm of their dens.
    """
    k = max(k, min(0, -op.shift))
    if variables == tuple(range(n)):
        variables = None
    if op.terms is not None:
        products = []
        for c, factors in op.terms:
            matrices, d = [], 0
            for factor in reversed(factors):
                matrices.append(materialize_on_monomials(factor, n, k + d, kmax + d, variables))
                d += factor.shift
            products.append((c, matrices[::-1]))
        return product_sum(products).normalized()
    key = (n if variables is None else variables, k, kmax)
    matrix = op._matrices.get(key)
    if matrix is not None:
        return matrix
    if op.moves is not None:
        matrix = _moves_matrix(op, n, k, kmax, variables)
    else:
        matrix = _diagonal_matrix(op, n, k, kmax, variables)
    op._matrices[key] = matrix
    return matrix


def _local(pos: int, variables: tuple[int, ...] | None) -> int:
    """A 0-based position at its index in variables (itself when variables is None)."""
    return pos if variables is None else variables.index(pos)


def _moves_matrix(
    op: LinearOperator, n: int, k: int, kmax: int, variables: tuple[int, ...] | None
) -> RationalMatrix:
    """A move operator's matrix on degrees k..kmax, from the shared move tables."""
    shift, degrees = op.shift, range(k, kmax + 1)
    lowest = max(0, -shift)
    moves = []
    for pos, c, values in op.moves:
        _grow(values, c, lowest, kmax)
        pos = _local(pos, variables)
        moves.append((values, [coordinate_moves(n, d, pos, shift) for d in degrees]))
    g = gcd(op.den, *(values[e] for values, tables in moves for table in tables for e, _ in table))
    rows: list[dict[int, int]] = []
    ncols = 0
    for t, d in enumerate(degrees):
        block = [{} for _ in range(poly_space_dim(n, d + shift))]
        for values, tables in moves:
            for e, pairs in tables[t]:
                x = values[e] // g
                if x:
                    for i, j in pairs:
                        block[i][ncols + j] = x
        rows += block
        ncols += poly_space_dim(n, d)
    return RationalMatrix.from_sparse(rows, op.den // g, ncols)


def _diagonal_matrix(
    op: LinearOperator, n: int, k: int, kmax: int, variables: tuple[int, ...] | None
) -> RationalMatrix:
    """A degree diagonal's matrix on degrees k..kmax, from the shared A-degree tables."""
    positions, value, values = op.diagonal
    positions = tuple([_local(pos, variables) for pos in positions])
    _grow(values, value, 0, kmax)
    tables = [subset_degrees(n, d, positions) for d in range(k, kmax + 1)]
    g = gcd(op.den, *(values[s] for s in set().union(*tables)))
    scaled = [x // g for x in values]
    rows: list[dict[int, int]] = []
    for table in tables:
        start = len(rows)
        rows += [{j: x} if (x := scaled[s]) else {} for j, s in enumerate(table, start)]
    return RationalMatrix.from_sparse(rows, op.den // g, len(rows))


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

    try:
        coeffs = solve_in_span(basis, [op(q) for q in basis])
    except InconsistentSystem as exc:
        raise ImageEscapesSpan(str(exc)) from exc
    rows: list[dict[int, int]] = [{} for _ in basis]
    for j, image in enumerate(coeffs.sparse_rows):
        for i, x in image.items():
            rows[i][j] = x
    return RationalMatrix.from_sparse(rows, coeffs.den, len(basis))
