"""Exact matrix arithmetic and linear solves."""

import json
import re
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from racah_dunkl import (
    Chain,
    ConnectionMatrix,
    InconsistentSystem,
    ParameterSet,
    Polynomial,
    RationalMatrix,
    build_basis_tower,
    connection_matrix,
    matrix_rank,
    path,
    solve_in_span,
)
from racah_dunkl.linalg import _elimination_rows, _gauss_jordan, product_sum
from racah_dunkl.relations import DegreeSum

from reference import block_diagonal, degree_sum_basis, reference_product_sum


def F(a, b=1):
    return Fraction(a, b)


def vectors(dense):
    """Dense vectors as the polynomials a solve reads: entry i is the coefficient of x1^i."""
    return [Polynomial(1, {(i,): x for i, x in enumerate(v)}) for v in dense]


def rank(dense):
    """matrix_rank of dense vectors, read as the integer numerators of vectors(dense)."""
    return matrix_rank([p.terms for p in vectors(dense)])


def solve(columns, targets):
    """solve_in_span's coefficient rows as dense Fraction lists.

    The returned matrix must have one row per target and one column per
    basis column, and store ints (never floats) in lowest terms.
    """
    got = solve_in_span(columns, targets)
    assert got.shape == (len(targets), len(columns))
    assert_lowest_terms(got)
    return got.to_fractions()


def test_from_fractions_and_back():
    m = RationalMatrix.from_fractions([[F(1, 2), F(1, 3)], [F(0), F(-2)]])
    assert m.at(0, 0) == F(1, 2)
    assert m.to_fractions() == [[F(1, 2), F(1, 3)], [F(0), F(-2)]]


def test_ragged_rows_are_rejected():
    with pytest.raises(ValueError, match="ragged rows: row 1 has 2 entries, row 0 has 1"):
        RationalMatrix.from_fractions([[F(1)], [F(1), F(2)]])
    with pytest.raises(ValueError, match="ragged rows: row 1 has 1 entries, row 0 has 2"):
        RationalMatrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged rows: row 2 has 0 entries"):
        RationalMatrix([[1], [2], []], 3)
    assert RationalMatrix([]).shape == RationalMatrix.from_fractions([]).shape == (0, 0)
    assert RationalMatrix([[], []]).shape == (2, 0)


def test_add_mul_against_reference():
    a = RationalMatrix.from_fractions([[F(1, 2), F(2)], [F(-1), F(1, 3)]])
    b = RationalMatrix.from_fractions([[F(3), F(0)], [F(1, 5), F(1)]])
    total = a + b
    assert total.to_fractions() == [[F(7, 2), F(2)], [F(-4, 5), F(4, 3)]]
    prod = a * b
    # manual product
    assert prod.to_fractions() == [
        [F(1, 2) * 3 + 2 * F(1, 5), F(2)],
        [F(-3) + F(1, 3) * F(1, 5), F(1, 3)],
    ]


def test_commutator_and_identity():
    a = RationalMatrix.from_fractions([[F(0), F(1)], [F(0), F(0)]])
    b = RationalMatrix.from_fractions([[F(0), F(0)], [F(1), F(0)]])
    comm = a * b - b * a
    assert comm.to_fractions() == [[F(1), F(0)], [F(0), F(-1)]]
    assert (a * RationalMatrix.identity(2)) == a
    assert not comm.is_zero
    assert (comm - comm).is_zero


def test_diag_multiplication():
    a = RationalMatrix.from_fractions([[F(1), F(2)], [F(3), F(4)]])
    d = [F(1, 2), F(3)]
    right = a.mul_diag_right(d)
    assert right.to_fractions() == [[F(1, 2), F(6)], [F(3, 2), F(12)]]
    left = a.mul_diag_left(d)
    assert left.to_fractions() == [[F(1, 2), F(1)], [F(9), F(12)]]
    full = a * RationalMatrix.diagonal(d)
    assert full == right


def test_product_drops_cancelled_entries():
    a = RationalMatrix([[1, 1], [1, -1]])
    b = RationalMatrix([[1, 1], [-1, 1]])
    assert (a * b).sparse_rows == [{1: 2}, {0: 2}]
    cancelled = RationalMatrix([[1, 1]]) * RationalMatrix([[1], [-1]])
    assert cancelled.sparse_rows == [{}]
    assert cancelled.is_zero and DegreeSum(2, 0).column_witnesses(cancelled) == [None]


def test_scale_and_equality_cross_denominator():
    a = RationalMatrix([[2, 4]], 2)
    b = RationalMatrix([[1, 2]], 1)
    assert a == b
    assert a.scale(F(1, 2)).to_fractions() == [[F(1, 2), F(1)]]


def test_solve_in_span():
    cols = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    target = [F(2), F(3), F(5)]
    (sol,) = solve(vectors(cols), vectors([target]))
    assert sol == [F(2), F(3)]
    with pytest.raises(InconsistentSystem):
        solve_in_span(vectors(cols), vectors([[F(1), F(0), F(0)]]))
    with pytest.raises(ValueError):
        solve_in_span(vectors([[F(1), F(2)], [F(2), F(4)]]), vectors([[F(1), F(2)]]))


def test_matrix_rank():
    assert rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert rank([[F(0), F(0)]]) == 0
    assert matrix_rank([{0: 2, 1: -4}, {0: -1, 1: 2}, {}]) == 1


def test_polynomial_terms_are_sparse_vectors():
    x, y = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    columns = [x + y, x - y]
    (sol,) = solve(columns, [x.scale(3) + y])
    assert sol == [F(2), F(1)]
    # x1 x2 is a monomial that no column has
    with pytest.raises(InconsistentSystem):
        solve_in_span(columns, [x * y])
    # each vector is read over its own den: (3x + y)/5 is
    # 4/5 (x + y)/2 + 3/5 (x - y)/3
    halves = [(x + y).scale(F(1, 2)), (x - y).scale(F(1, 3))]
    (sol,) = solve(halves, [(x.scale(3) + y).scale(F(1, 5))])
    assert sol == [F(4, 5), F(3, 5)]
    assert matrix_rank([p.terms for p in halves + columns]) == 2
    # the zero polynomial has no terms: it is the zero vector
    with pytest.raises(ValueError, match="linearly dependent"):
        solve_in_span([x, Polynomial.zero(2)], [x])


# -- sparse storage against a dense Fraction reference ------------------------

# three entries in four are zero; the nonzeros carry mixed denominators
entries = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)
sizes = st.integers(min_value=1, max_value=5)
scalars = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=-4, max_value=4).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
)


def dense(nrows, ncols):
    return st.lists(
        st.lists(entries, min_size=ncols, max_size=ncols),
        min_size=nrows,
        max_size=nrows,
    )


def ref_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def ref_add(a, b, sign=1):
    return [[x + sign * y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def ref_scale(a, c):
    return [[x * c for x in row] for row in a]


def assert_lowest_terms(m):
    """Only nonzero ints are stored, and den > 0 shares no factor with all of them."""
    g = m.den
    for row in m.sparse_rows:
        assert all(0 <= j < m.ncols and isinstance(x, int) and x for j, x in row.items())
        g = gcd(g, *row.values())
    assert m.den > 0 and g == 1


@st.composite
def square_pairs(draw):
    n = draw(sizes)
    return draw(dense(n, n)), draw(dense(n, n))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_product_matches_dense_reference(data):
    r, k, c = data.draw(sizes), data.draw(sizes), data.draw(sizes)
    a, b = data.draw(dense(r, k)), data.draw(dense(k, c))
    prod = RationalMatrix.from_fractions(a) * RationalMatrix.from_fractions(b)
    assert prod.shape == (r, c)
    assert prod.to_fractions() == ref_mul(a, b)
    assert_lowest_terms(prod)


@settings(max_examples=80, deadline=None)
@given(square_pairs())
def test_sum_difference_commutator_match_reference(pair):
    a, b = pair
    ma, mb = RationalMatrix.from_fractions(a), RationalMatrix.from_fractions(b)
    for got, want in (
        (ma + mb, ref_add(a, b)),
        (ma - mb, ref_add(a, b, -1)),
        (-ma, ref_scale(a, -1)),
        (ma * mb - mb * ma, ref_add(ref_mul(a, b), ref_mul(b, a), -1)),
    ):
        assert got.to_fractions() == want
        assert_lowest_terms(got)
    assert (ma - ma).is_zero


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_scale_matches_reference(data):
    a = data.draw(dense(data.draw(sizes), data.draw(sizes)))
    c = data.draw(scalars)
    m = RationalMatrix.from_fractions(a)
    got = m.scale(c)
    assert got.to_fractions() == ref_scale(a, c)
    assert_lowest_terms(got)
    assert m.scale(0).is_zero and m.scale(0).den == 1


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_diagonal_products_match_reference(data):
    r, c = data.draw(sizes), data.draw(sizes)
    a = data.draw(dense(r, c))
    left = data.draw(st.lists(entries, min_size=r, max_size=r))
    right = data.draw(st.lists(entries, min_size=c, max_size=c))
    m = RationalMatrix.from_fractions(a)
    got_left = m.mul_diag_left(left)
    got_right = m.mul_diag_right(right)
    assert got_left.to_fractions() == [[x * v for x in row] for row, v in zip(a, left)]
    assert got_right.to_fractions() == [[x * v for x, v in zip(row, right)] for row in a]
    assert_lowest_terms(got_left)
    assert_lowest_terms(got_right)
    assert got_right == m * RationalMatrix.diagonal(right)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_equality_and_hash_across_denominators(data):
    r, c = data.draw(sizes), data.draw(sizes)
    a = data.draw(dense(r, c))
    t = data.draw(st.integers(min_value=2, max_value=30))
    m = RationalMatrix.from_fractions(a)
    # same rationals stored over a larger, and a negative, denominator
    for den in (m.den * t, -m.den * t):
        sign = 1 if den > 0 else -1
        other = RationalMatrix([[sign * t * x for x in row] for row in m.rows], den)
        assert other.den == m.den * t
        assert other == m and m == other
        assert hash(other) == hash(m)
        assert other.to_fractions() == a
    i, j = data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, c - 1))
    bumped = [list(row) for row in a]
    bumped[i][j] += Fraction(1, t)
    assert RationalMatrix.from_fractions(bumped) != m
    assert RationalMatrix.from_fractions(a) != RationalMatrix([[0] * (c + 1)] * r)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_zero_test_first_column_and_dense_views(data):
    r, c = data.draw(sizes), data.draw(sizes)
    a = data.draw(dense(r, c))
    m = RationalMatrix.from_fractions(a)
    assert_lowest_terms(m)
    assert m.is_zero == (not any(any(row) for row in a))
    space = DegreeSum(2, r)  # at least r ambient monomials
    assert space.column_witnesses(m) == reference_witnesses(2, degree_sum_basis(space), a, c)
    view = m.rows
    assert all(isinstance(x, int) for row in view for x in row)
    assert [[Fraction(x, m.den) for x in row] for row in view] == a
    assert m.to_fractions() == a
    assert [[m.at(i, j) for j in range(c)] for i in range(r)] == a
    view[0][0] += 1  # the dense view is a copy
    assert m.to_fractions() == a


# -- the product-sum kernel behind every product ---------------------------------


@st.composite
def factors(draw, nrows, ncols):
    """A factor and its dense entries: diagonal (when square) or general.

    A general factor may be stored over a multiple of its lowest
    denominator, so the terms of one sum carry unequal denominators.
    """
    if nrows == ncols and draw(st.booleans()):
        values = draw(st.lists(entries, min_size=nrows, max_size=nrows))
        dense_values = [[values[i] if i == j else Fraction(0) for j in range(nrows)]
                        for i in range(nrows)]
        return RationalMatrix.diagonal(values), dense_values
    a = draw(dense(nrows, ncols))
    m = RationalMatrix.from_fractions(a)
    t = draw(st.integers(min_value=1, max_value=6))
    rows = [{j: x * t for j, x in row.items()} for row in m.sparse_rows]
    return RationalMatrix.from_sparse(rows, m.den * t, ncols), a


@st.composite
def product_terms(draw):
    """Terms c * A_1 (* A_2 (* A_3 (* A_4))) of one shape, with their dense values."""
    r, c = draw(sizes), draw(sizes)
    terms, values = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        dims = [r] + [draw(sizes) for _ in range(draw(st.integers(0, 3)))] + [c]
        drawn = [draw(factors(a, b)) for a, b in zip(dims, dims[1:])]
        coeff = draw(scalars)
        product = drawn[0][1]
        for _, dense_factor in drawn[1:]:
            product = ref_mul(product, dense_factor)
        terms.append((coeff, tuple(m for m, _ in drawn)))
        values.append(ref_scale(product, coeff))
    return (r, c), terms, values


def reference_witnesses(n, basis, dense_matrix, ncols):
    """Per column, the polynomial of its entries on the basis (row i on
    basis[i]) as text, or None for a zero column."""
    out = []
    for j in range(ncols):
        p = Polynomial(n, {basis[i]: row[j] for i, row in enumerate(dense_matrix)})
        out.append(None if p.is_zero else p.to_text())
    return out


@settings(max_examples=100, deadline=None)
@given(product_terms())
def test_product_sum_matches_dense_reference(drawn):
    (r, c), terms, values = drawn
    want = values[0]
    for value in values[1:]:
        want = ref_add(want, value)
    got = product_sum(terms)
    assert got.shape == (r, c)
    assert got.to_fractions() == want
    # one denominator: the lcm of the term denominators, with no reduction
    assert got.den == lcm(*(
        Fraction(coeff).denominator * prod(m.den for m in fs) for coeff, fs in terms
    ))
    # only nonzero entries are stored, so the zero test is exact
    assert all(isinstance(x, int) and x for row in got.sparse_rows for x in row.values())
    assert got.is_zero == (not any(any(row) for row in want))
    norm = got.normalized()
    assert norm == got
    assert_lowest_terms(norm)
    # adding every term again with the opposite sign cancels exactly
    cancelled = product_sum(terms + [(-coeff, fs) for coeff, fs in terms])
    assert cancelled.sparse_rows == [{} for _ in range(r)]
    assert cancelled.is_zero
    # each column of a block-diagonal discrepancy (the sum, an all-zero
    # block and the sum that cancels) reads as the polynomial of its entries
    # on the ambient monomials, the same whether or not it is reduced
    zero = RationalMatrix.from_sparse([{}, {}], 1, 2)
    space = DegreeSum(2, 2 * r + 2)  # at least 2r + 2 ambient monomials
    want_witnesses = reference_witnesses(2, degree_sum_basis(space), want, c) + [None] * (2 + c)
    assert space.column_witnesses(block_diagonal([got, zero, cancelled])) == want_witnesses
    assert space.column_witnesses(block_diagonal([norm, zero, cancelled])) == want_witnesses


def test_product_sum_rejects_mismatched_shapes():
    a, b = RationalMatrix.identity(2), RationalMatrix.identity(3)
    wide = RationalMatrix.from_sparse([{2: 1}, {}], 1, 3)
    with pytest.raises(ValueError, match="cannot multiply"):
        product_sum([(1, (a, b))])
    with pytest.raises(ValueError, match="shape mismatch"):
        product_sum([(1, (a,)), (1, (b,))])
    with pytest.raises(ValueError, match="at least one term"):
        product_sum([])
    # the 2nd and 3rd factor of a chain, and a one-factor term against a
    # two-factor one, give the reference's messages
    for terms, message in (
        ([(1, (a, a, b))], "cannot multiply (2, 2) by (3, 3)"),
        ([(1, (a,)), (Fraction(1, 2), (a, wide))], "shape mismatch: (2, 2) vs (2, 3)"),
    ):
        for kernel in (product_sum, reference_product_sum):
            with pytest.raises(ValueError, match=re.escape(message)):
                kernel(terms)


# -- the row walk against the items walk it replaced -----------------------------


numerators = st.one_of(
    st.integers(min_value=-9, max_value=9), st.integers(min_value=-10**12, max_value=10**12)
).filter(bool)


@st.composite
def sweep_factor(draw, nrows, ncols, filled=False):
    """A factor shaped like a sweep's, with each row's keys stored in a drawn order.

    Diagonal, block-diagonal (consecutive row and column blocks, cut
    alike) or general; most rows hold no entry or one.  A filled factor
    holds at least one entry in each row its shape allows one in.
    """
    kind = draw(st.sampled_from(["diagonal", "blocks", "general"]))
    if kind == "diagonal":
        allowed = [range(i, i + 1) if i < ncols else range(0) for i in range(nrows)]
    elif kind == "blocks":
        cuts = sorted(draw(st.lists(st.integers(0, min(nrows, ncols)), max_size=3)))
        row_ends = [0] + cuts + [nrows]
        col_ends = [0] + cuts + [ncols]
        allowed = [None] * nrows
        for b in range(len(row_ends) - 1):
            for i in range(row_ends[b], row_ends[b + 1]):
                allowed[i] = range(col_ends[b], col_ends[b + 1])
    else:
        allowed = [range(ncols)] * nrows
    rows = []
    for cols in allowed:
        size = draw(st.sampled_from([1, 1, 2, 3] if filled else [0, 0, 0, 1, 1, 2, 3]))
        keys = draw(st.lists(
            st.sampled_from(cols), min_size=int(filled), max_size=size, unique=True
        )) if cols else []
        rows.append({j: draw(numerators) for j in keys})
    den = draw(st.integers(min_value=1, max_value=12))
    return RationalMatrix.from_sparse(rows, den, ncols)


@st.composite
def sweep_terms(draw):
    """Terms c * A_1 (* A_2 (* A_3 (* A_4))) of one shape, some with c = 0, some cancelling.

    Every arity of ``product_sum``'s walk is drawn: one factor, two, and
    chains with one or two middle factors.
    """
    r, c = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    terms = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        dims = [r] + [draw(st.integers(0, 8)) for _ in range(draw(st.integers(0, 3)))] + [c]
        coeff = draw(st.one_of(st.just(0), scalars, st.integers(-10**6, 10**6)))
        # the factors after a chain's first are filled, or its product would
        # almost always vanish
        chain = len(dims) > 3
        terms.append((coeff, tuple(
            draw(sweep_factor(a, b, filled=chain and i > 0))
            for i, (a, b) in enumerate(zip(dims, dims[1:]))
        )))
    if draw(st.booleans()):  # the sum cancels to zero
        terms += [(-coeff, factors) for coeff, factors in terms]
    return terms


def assert_same_sum(got, want):
    assert (got.den, got.shape, got.sparse_rows) == (want.den, want.shape, want.sparse_rows)
    assert [list(row) for row in got.sparse_rows] == [list(row) for row in want.sparse_rows]


@settings(max_examples=200, deadline=None)
@given(sweep_terms())
def test_product_sum_row_walk_is_the_items_walk(terms):
    # same den, shape, sparse rows and key order in every row as the loop
    # that walked every row of the first factor and read rows by .items()
    assert_same_sum(product_sum(terms), reference_product_sum(terms))


class UnreadableRow(dict):
    """An empty row that fails the test if it is ever iterated."""

    def __iter__(self):
        raise AssertionError("an empty row of the first factor was iterated")

    keys = values = items = __iter__


def test_product_sum_never_iterates_an_empty_row_of_a_first_factor():
    plain_rows = [{1: 2, 0: -3}, {}, {0: 3}, {}, {}]
    rows = [row or UnreadableRow() for row in plain_rows]
    first = RationalMatrix.from_sparse(rows, 2, 2)
    plain = RationalMatrix.from_sparse(plain_rows, 2, 2)
    b = RationalMatrix.from_sparse([{1: 5, 0: 1}, {1: 7}], 3, 2)
    # the last shape, one term 1/q * A, is the reference's row-sharing shortcut
    for shape in ([(1, (0, b))], [(2, (0,)), (1, (0, b))], [(Fraction(-1, 3), (0, b, b))],
                  [(1, (0, b)), (-1, (0, b))], [(Fraction(1, 3), (0,))]):
        got = product_sum([(c, (first,) + fs[1:]) for c, fs in shape])
        assert_same_sum(got, reference_product_sum([(c, (plain,) + fs[1:]) for c, fs in shape]))


# -- the arithmetic methods as cases of product_sum ------------------------------


@st.composite
def operands(draw, nrows, ncols):
    """A matrix and its dense entries, in lowest terms or not.

    Besides reduced ``from_fractions`` matrices it draws ``from_sparse``
    rows over a multiple of their lowest denominator and unreduced
    ``product_sum`` outputs.
    """
    kind = draw(st.sampled_from(("reduced", "multiple", "product_sum")))
    if kind == "product_sum":
        inner = draw(sizes)
        (a, dense_a), (b, dense_b) = draw(factors(nrows, inner)), draw(factors(inner, ncols))
        return product_sum([(1, (a, b))]), ref_mul(dense_a, dense_b)
    a = draw(dense(nrows, ncols))
    m = RationalMatrix.from_fractions(a)
    if kind == "multiple":
        t = draw(st.integers(min_value=2, max_value=6))
        rows = [{j: x * t for j, x in row.items()} for row in m.sparse_rows]
        m = RationalMatrix.from_sparse(rows, m.den * t, ncols)
    return m, a


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_arithmetic_methods_on_unreduced_operands(data):
    r, c = data.draw(sizes), data.draw(sizes)
    (ma, a), (mb, b) = data.draw(operands(r, c)), data.draw(operands(r, c))
    coeff = data.draw(scalars)
    left = data.draw(st.lists(entries, min_size=r, max_size=r))
    right = data.draw(st.lists(entries, min_size=c, max_size=c))
    for got, want in (
        (ma + mb, ref_add(a, b)),
        (ma - mb, ref_add(a, b, -1)),
        (ma.scale(coeff), ref_scale(a, coeff)),
        (ma.scale(0), ref_scale(a, 0)),
        (ma.scale(F(-3, 2)), ref_scale(a, F(-3, 2))),
        (ma.mul_diag_left(left), [[x * v for x in row] for row, v in zip(a, left)]),
        (ma.mul_diag_right(right), [[x * v for x, v in zip(row, right)] for row in a]),
    ):
        assert got.shape == (r, c)
        assert got.to_fractions() == want
        assert_lowest_terms(got)
    assert ma.scale(0).den == 1
    # unary minus keeps its operand's denominator and negates each stored entry
    neg = -ma
    assert neg.to_fractions() == ref_scale(a, -1)
    assert neg.den == ma.den
    assert neg.sparse_rows == [{j: -x for j, x in row.items()} for row in ma.sparse_rows]


def test_arithmetic_methods_error_paths():
    a, b = RationalMatrix.identity(2), RationalMatrix.identity(3)
    with pytest.raises(ValueError, match=r"shape mismatch: \(2, 2\) vs \(3, 3\)"):
        a + b
    with pytest.raises(ValueError, match=r"shape mismatch: \(2, 2\) vs \(3, 3\)"):
        a - b
    with pytest.raises(ValueError, match="diagonal length does not match column count"):
        a.mul_diag_right([F(1)] * 3)
    with pytest.raises(ValueError, match="diagonal length does not match row count"):
        a.mul_diag_left([F(1)])
    # scale is the one way to scale a matrix
    with pytest.raises(TypeError):
        a * 2
    with pytest.raises(TypeError):
        2 * a
    with pytest.raises(TypeError):
        a * F(1, 2)


# -- the one elimination behind solve_in_span and matrix_rank ------------------

# mostly-zero draws give singular and rank-deficient matrices; dense draws are
# mostly invertible.  Both also draw plain ints, which vectors() keeps as
# numerators over 1.
sparse_entries = st.one_of(
    st.just(Fraction(0)), st.just(0), st.integers(-2, 2).map(Fraction), st.integers(-7, 7)
)
dense_entries = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=4), st.integers(-7, 7)
)
small = st.integers(min_value=1, max_value=4)


def cofactor_det(m):
    if not m:
        return Fraction(1)
    return sum(
        (-1) ** j * x * cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j, x in enumerate(m[0])
        if x
    )


def minor_rank(m):
    """Size of the largest nonzero minor."""
    nrows, ncols = len(m), len(m[0])
    for size in range(min(nrows, ncols), 0, -1):
        for rows in combinations(range(nrows), size):
            for cols in combinations(range(ncols), size):
                if cofactor_det([[m[i][j] for j in cols] for i in rows]):
                    return size
    return 0


def combine(columns, coeffs):
    return [sum((c * col[i] for c, col in zip(coeffs, columns)), Fraction(0))
            for i in range(len(columns[0]))]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_elimination_matches_cofactor_oracles(data):
    nrows, ncols = data.draw(small), data.draw(small)  # either may be the larger
    columns = data.draw(st.lists(
        st.lists(sparse_entries, min_size=nrows, max_size=nrows), min_size=ncols, max_size=ncols
    ))
    minor = minor_rank(columns)
    assert rank(columns) == minor
    assert rank(zip(*columns)) == minor
    coeffs = data.draw(st.lists(dense_entries, min_size=ncols, max_size=ncols))
    target = combine(columns, coeffs)
    if minor < ncols:
        with pytest.raises(ValueError, match="linearly dependent"):
            solve_in_span(vectors(columns), vectors([target]))
    else:
        (sol,) = solve(vectors(columns), vectors([target]))
        assert combine(columns, sol) == target
        assert sol == coeffs  # independent columns: the solution is unique


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_target_outside_span_is_inconsistent(data):
    size = data.draw(st.integers(min_value=2, max_value=4))
    columns = data.draw(st.lists(
        st.lists(dense_entries, min_size=size, max_size=size), min_size=size, max_size=size
    ))
    assume(cofactor_det(columns) != 0)
    kept = data.draw(st.integers(min_value=1, max_value=size - 1))
    coeffs = data.draw(st.lists(dense_entries, min_size=kept, max_size=kept))
    inside = combine(columns[:kept], coeffs)
    (sol,) = solve(vectors(columns[:kept]), vectors([inside]))
    assert sol == coeffs
    # the next column of an invertible matrix is outside the span of the first ones
    outside = [x + y for x, y in zip(inside, columns[kept])]
    with pytest.raises(InconsistentSystem):
        solve_in_span(vectors(columns[:kept]), vectors([inside, outside]))


# -- the elimination on sparse rows: blocks, permutations, exact cancellation --

block_entries = st.one_of(st.just(Fraction(0)), dense_entries)


@st.composite
def permuted_block_diagonal(draw, max_blocks=3, max_size=3):
    """A block-diagonal matrix with its rows and columns permuted, and its blocks.

    Some blocks get a row that is a multiple of another row, so the
    elimination cancels that row to exact zeros.
    """
    blocks = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_blocks))):
        nrows = draw(st.integers(min_value=1, max_value=max_size))
        ncols = draw(st.integers(min_value=1, max_value=max_size))
        block = draw(st.lists(
            st.lists(block_entries, min_size=ncols, max_size=ncols),
            min_size=nrows, max_size=nrows,
        ))
        if nrows > 1 and draw(st.booleans()):
            i, j = draw(st.lists(
                st.integers(min_value=0, max_value=nrows - 1), min_size=2, max_size=2, unique=True
            ))
            factor = draw(dense_entries.filter(bool))
            block[i] = [factor * x for x in block[j]]
        blocks.append(block)
    nrows = sum(len(b) for b in blocks)
    ncols = sum(len(b[0]) for b in blocks)
    full = [[Fraction(0)] * ncols for _ in range(nrows)]
    r0 = c0 = 0
    for block in blocks:
        for i, row in enumerate(block):
            full[r0 + i][c0:c0 + len(row)] = row
        r0, c0 = r0 + len(block), c0 + len(block[0])
    row_order = draw(st.permutations(range(nrows)))
    col_order = draw(st.permutations(range(ncols)))
    return [[full[i][j] for j in col_order] for i in row_order], blocks


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sparse_elimination_on_permuted_blocks(data):
    matrix, blocks = data.draw(permuted_block_diagonal())
    minor = sum(minor_rank(block) for block in blocks)  # blocks add their ranks
    assert rank(matrix) == minor
    columns = [list(col) for col in zip(*matrix)]
    assert rank(columns) == minor
    coeffs = data.draw(st.lists(dense_entries, min_size=len(columns), max_size=len(columns)))
    target = combine(columns, coeffs)
    if minor < len(columns):
        with pytest.raises(ValueError, match="linearly dependent"):
            solve_in_span(vectors(columns), vectors([target]))
    else:
        # rows beyond the rank cancel to exact zeros in the target column
        (sol,) = solve(vectors(columns), vectors([target]))
        assert combine(columns, sol) == target
        assert sol == coeffs


def test_elimination_is_exact_on_integer_input():
    # a pivot inverse taken as 1 / int would be a float: 1/3 inexact, and
    # 98 * (1/49) != 2, which leaves a spurious second pivot
    assert solve(vectors([[3]]), vectors([[1]])) == [[F(1, 3)]]
    assert matrix_rank([{0: 49, 1: 1}, {0: 98, 1: 2}]) == 1


def test_cancelled_entries_leave_the_rows():
    # the second row cancels to zero: it must neither offer a zero pivot
    # nor count as a leftover entry below the pivots
    assert rank([[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(0), F(1)]]) == 2
    (sol,) = solve(vectors([[F(1), F(1), F(2)]]), vectors([[F(3), F(3), F(6)]]))
    assert sol == [F(3)]


# -- the integer elimination against the Fraction elimination it replaced -----


def reference_rows(vectors):
    """Sparse rows of the matrix whose j-th column is vectors[j], entries as given."""
    row_of = {}
    for j, vector in enumerate(vectors):
        for key, x in vector.items():
            if x:
                row_of.setdefault(key, {})[j] = x
    return list(row_of.values())


def reference_gauss_jordan(rows, ncols):
    """Gauss-Jordan elimination in Fractions: each pivot row scaled to a pivot of 1."""
    nrows = len(rows)
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        pivot = next((r for r in range(row, nrows) if col in rows[r]), None)
        if pivot is None:
            continue
        if pivot != row:
            rows[row], rows[pivot] = rows[pivot], rows[row]
        inv = Fraction(1) / rows[row][col]  # exact on int entries too
        pivot_row = rows[row] = {c: x * inv for c, x in rows[row].items()}
        for r, other in enumerate(rows):
            factor = other.get(col)
            if factor is None or r == row:
                continue
            for c, y in pivot_row.items():
                x = other.get(c)
                if x is None:
                    other[c] = -factor * y
                else:
                    x -= factor * y
                    if x:
                        other[c] = x
                    else:
                        del other[c]
        pivots.append(col)
    return pivots


def reference_solve(columns, targets):
    """solve_in_span over reference_gauss_jordan: pivot rows hold the coefficients."""
    ncols = len(columns)
    aug = reference_rows(list(columns) + list(targets))
    if len(reference_gauss_jordan(aug, ncols)) < ncols:
        raise ValueError("columns are linearly dependent")
    if any(aug[ncols:]):
        raise InconsistentSystem("target outside the span of the given columns")
    coeffs = [{} for _ in targets]
    for j, row in enumerate(aug[:ncols]):
        for c, x in row.items():
            if c >= ncols:
                coeffs[c - ncols][j] = x
    return RationalMatrix._from_rational_rows(coeffs, ncols)


# ints, small fractions and fractions with 30-digit denominators
mixed_entries = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)),
)


def sparse_combine(vectors, coeffs):
    out = {}
    for c, vector in zip(coeffs, vectors):
        for key, x in vector.items():
            out[key] = out.get(key, 0) + c * x
    return out


@st.composite
def linear_systems(draw):
    """Sparse columns and targets over nine keys, mixing ints and Fractions.

    The drawn columns are independent; sometimes one more is inserted, a
    combination of the others.  Targets are combinations of the columns or free vectors,
    which mostly lie outside the span.  Sometimes one equation (key) is a
    multiple of another, so its row cancels during the elimination.
    """
    keys = st.tuples(st.integers(0, 2), st.integers(0, 2))
    vector = st.dictionaries(keys, mixed_entries.filter(bool), min_size=1, max_size=6)
    columns = draw(st.lists(vector, min_size=1, max_size=4))
    # column j holds a nonzero at diagonal[j], which the later columns lack:
    # a triangular minor makes the columns independent
    diagonal = draw(st.lists(keys, min_size=len(columns), max_size=len(columns), unique=True))
    for j, key in enumerate(diagonal):
        columns[j][key] = draw(mixed_entries.filter(bool))
        for later in columns[j + 1:]:
            later.pop(key, None)
    if draw(st.integers(0, 2)) == 2:
        coeffs = draw(st.lists(mixed_entries, min_size=len(columns), max_size=len(columns)))
        columns.insert(draw(st.integers(0, len(columns))), sparse_combine(columns, coeffs))
    targets = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            coeffs = draw(st.lists(mixed_entries, min_size=len(columns), max_size=len(columns)))
            targets.append(sparse_combine(columns, coeffs))
        else:
            targets.append(draw(vector))
    if draw(st.booleans()):
        src, dst = draw(st.lists(keys, min_size=2, max_size=2, unique=True))
        factor = draw(mixed_entries.filter(bool))
        for vector in columns + targets:
            if src in vector:
                vector[dst] = factor * vector[src]
            else:
                vector.pop(dst, None)
    return columns, targets


def solve_outcome(solver, columns, targets):
    """The solved matrix's shape, den and sparse rows, or the error's type and message."""
    try:
        w = solver(columns, targets)
    except ValueError as exc:
        return type(exc), str(exc)
    return w.shape, w.den, w.sparse_rows


def polynomials(system):
    """The drawn sparse vectors (keys are exponent tuples in two variables) as polynomials."""
    return [Polynomial(2, vector) for vector in system]


@settings(max_examples=80, deadline=None)
@given(linear_systems())
def test_integer_elimination_matches_the_fraction_reference(system):
    # solve_in_span eliminates each polynomial's numerators and reads the
    # coefficients over the dens; the reference eliminates the drawn
    # Fractions as they are
    columns, targets = system
    got = solve_outcome(solve_in_span, polynomials(columns), polynomials(targets))
    assert got == solve_outcome(reference_solve, columns, targets)
    for drawn in (columns, targets, columns + targets):
        numerators = [p.terms for p in polynomials(drawn)]
        assert matrix_rank(numerators) == len(reference_gauss_jordan(reference_rows(drawn), len(drawn)))


@settings(max_examples=80, deadline=None)
@given(linear_systems())
def test_integer_rows_are_multiples_of_the_fraction_rows(system):
    # on the same numerators, the integer elimination makes the same swaps
    # and pivots as the Fraction one, and each of its rows is a nonzero
    # multiple of the Fraction row; a row it combined is divided by the gcd
    # of its entries.  The pivot columns are those of the drawn Fractions
    # too, since each vector's den scales one column.
    columns, targets = system
    numerators = [p.terms for p in polynomials(columns + targets)]
    rows = _elimination_rows(numerators)
    given_rows = {id(row): dict(row) for row in rows}
    ref = reference_rows(numerators)
    pivots = reference_gauss_jordan(reference_rows(columns + targets), len(columns))
    assert _gauss_jordan(rows, len(columns)) == reference_gauss_jordan(ref, len(columns)) == pivots
    for row, ref_row in zip(rows, ref):
        assert all(type(x) is int for x in row.values())
        assert row.keys() == ref_row.keys()
        if row:
            first = next(iter(ref_row))
            ratio = row[first] / Fraction(ref_row[first])
            assert all(x == ratio * ref_row[c] for c, x in row.items())
            if row != given_rows[id(row)]:
                assert gcd(*row.values()) == 1


# -- connection matrices on integer numerators against the Fraction reference --


def reference_connection(source, target):
    """connection_matrix's W by reference_solve on the elements' Fraction coefficients."""
    def coefficients(elements):
        return [dict(el.poly.sorted_terms()) for el in elements]

    return reference_solve(coefficients(target), coefficients(source))


connection_mu = st.one_of(
    st.sampled_from([Fraction(10**6), Fraction(1, 9)]),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
    st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)),
)


@settings(max_examples=3, deadline=None)
@given(st.data())
def test_integer_connection_matches_the_fraction_reference(data):
    # connection_matrix solves on the towers' integer numerators and reads
    # W over their denominators; on every edge of both walks, at every
    # degree, W must be the Fraction solve on the polynomials, in the same
    # lowest-terms rows and the same exported text
    for n, kmax, start, goal in ((4, 6, (1, 2, 3, 4), (3, 4, 2, 1)),
                                 (5, 4, (1, 2, 3, 4, 5), (4, 5, 3, 2, 1))):
        mu = data.draw(st.lists(connection_mu, min_size=n, max_size=n), label=f"mu{n}")
        params = ParameterSet(n, tuple(mu))
        vertices = [Chain.from_order(start)] + path(Chain.from_order(start), Chain.from_order(goal))
        for k in range(kmax + 1):
            bases = {chain: build_basis_tower(params, k, chain.order) for chain in vertices}
            for a, b in zip(vertices, vertices[1:]):
                w = connection_matrix(params, bases[a], bases[b])
                ref = reference_connection(bases[a], bases[b])
                assert (w.matrix.den, w.matrix.sparse_rows) == (ref.den, ref.sparse_rows)
                assert w.matrix == ref
                text = json.dumps(w.to_json_obj(), sort_keys=True)
                expected = ConnectionMatrix(w.from_labels, w.to_labels, ref).to_json_obj()
                assert text == json.dumps(expected, sort_keys=True)
