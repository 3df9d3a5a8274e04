"""Operator builders against their textbook definitions, at drawn mu.

The primitive builders are monomial rules with integer images over one
denominator, and the composites are product sums over them; each
operator keeps its matrices and the images it applies.  The oracles
below are written with Polynomial arithmetic and the reflection and
coordinate division of tests/reference.py, so they share no code with
the rules.
Also checked: kept images never leak into or out of a call, every matrix
is the one read from the oracles' Fraction images, permuting the
variables together with mu permutes every operator, and every Polynomial
operation and operator call returns integer numerators over one
denominator in lowest terms, with the coefficients of a one-Fraction-per-
term reference.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racah_dunkl import (
    DunklOperators,
    ParameterSet,
    Polynomial,
    angular,
    casimir,
    dunkl,
    laplace,
    materialize_on_monomials,
    monomial_basis,
    norm_square_mul,
    su11_triple,
)
from racah_dunkl.operators import ImageEscapesSpan, LinearOperator, _coordinate_mul

from reference import (
    block_diagonal,
    divide_by_coordinate,
    norm_square_poly,
    partial_derivative,
    reflect,
    restrict_to_zero,
)

BIG = 10**6
mu_values = st.one_of(
    st.builds(Fraction, st.integers(1, BIG), st.integers(1, BIG)),
    st.integers(1, 4).map(Fraction),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
)
coeffs = st.fractions(min_value=-10, max_value=10, max_denominator=12).filter(bool)


@st.composite
def cases(draw):
    """Parameters, two polynomials, a subset A and two distinct indices."""
    n = draw(st.integers(2, 4))
    params = ParameterSet(n, tuple(draw(st.lists(mu_values, min_size=n, max_size=n))))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    p, q = (
        Polynomial(n, draw(st.dictionaries(exps, coeffs, max_size=5))) for _ in range(2)
    )
    A = tuple(draw(st.sets(st.integers(1, n), min_size=1)))
    i, j = draw(st.permutations(range(1, n + 1)))[:2]
    return params, p, q, A, i, j


# -- textbook definitions ---------------------------------------------------


def t_oracle(params, i, p):
    # T_i p = d_i p + mu_i (p - r_i p) / x_i
    return partial_derivative(p, i) + divide_by_coordinate(p - reflect(p, i), i).scale(
        params.mu_of(i)
    )


def lap_oracle(params, A, p):
    total = Polynomial.zero(params.n)
    for i in A:
        total = total + t_oracle(params, i, t_oracle(params, i, p))
    return total


def euler_oracle(A, p):
    total = Polynomial.zero(p.n)
    for i in A:
        total = total + Polynomial.variable(p.n, i) * partial_derivative(p, i)
    return total


def gamma_oracle(params, A):
    return Fraction(len(A), 2) + sum(params.mu_of(i) for i in A)


def casimir_oracle(params, A, p):
    # C_A = 1/4 ((E+gamma)^2 - 2(E+gamma) - |x_A|^2 Lap_A)
    gam = gamma_oracle(params, A)
    shifted = euler_oracle(A, p) + p.scale(gam)
    shifted2 = euler_oracle(A, shifted) + shifted.scale(gam)
    nrm_lap = norm_square_poly(A, p.n) * lap_oracle(params, A, p)
    return (shifted2 - shifted.scale(2) - nrm_lap).scale(Fraction(1, 4))


def angular_oracle(params, i, j, p):
    x = Polynomial.variable
    return x(p.n, i) * t_oracle(params, j, p) - x(p.n, j) * t_oracle(params, i, p)


def su11_oracles(params, A):
    half = Fraction(1, 2)
    gam = gamma_oracle(params, A)
    return (
        lambda p: (euler_oracle(A, p) + p.scale(gam)).scale(half),
        lambda p: (norm_square_poly(A, p.n) * p).scale(half),
        lambda p: lap_oracle(params, A, p).scale(half),
    )


def builders_with_oracles(params, A, i, j):
    """(operator, textbook function) pairs for every builder."""
    n = params.n
    ops = DunklOperators(params)
    pairs = [
        (ops.dunkl[i], lambda p: t_oracle(params, i, p)),
        (dunkl(params, i), lambda p: t_oracle(params, i, p)),
        (laplace(ops, A), lambda p: lap_oracle(params, A, p)),
        (casimir(ops, A), lambda p: casimir_oracle(params, A, p)),
        (angular(ops, i, j), lambda p: angular_oracle(params, i, j, p)),
        (norm_square_mul(A, n), lambda p: norm_square_poly(A, n) * p),
    ]
    return pairs + list(zip(su11_triple(ops, A), su11_oracles(params, A)))


# -- properties ---------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(cases())
def test_builders_match_textbook_definitions(case):
    params, p, q, A, i, j = case
    for op, oracle in builders_with_oracles(params, A, i, j):
        assert op(p) == oracle(p), op.descriptor
        assert op(p + q) == oracle(p) + oracle(q), op.descriptor


@settings(max_examples=40, deadline=None)
@given(cases())
def test_kept_images_never_leak(case):
    # p, then q, then p again on one operator; a caller that mutates a
    # result's terms must not reach the operator's kept images
    params, p, q, A, i, j = case
    for op, oracle in builders_with_oracles(params, A, i, j):
        first = op(p)
        expected_q = oracle(q)
        assert op(q) == expected_q, op.descriptor
        again = op(p)
        assert again == first == oracle(p), op.descriptor
        for exps in p.terms:
            op(Polynomial.monomial(params.n, exps)).terms.clear()
        first.terms.clear()
        again.terms.clear()
        assert op(p) == oracle(p), op.descriptor
        assert op(q) == expected_q, op.descriptor


@settings(max_examples=20, deadline=None)
@given(cases(), st.integers(0, 3))
def test_matrix_columns_are_monomial_images(case, k):
    # every matrix on degree k, a product sum over the parts' matrices for
    # the composites, holds the operator's own images and the textbook ones;
    # the matrix is built first, before any image of the operator exists
    params, _, _, A, i, j = case
    n = params.n
    basis = monomial_basis(n, k)
    for op, oracle in builders_with_oracles(params, A, i, j):
        targets = monomial_basis(n, k + op.shift)
        matrix = materialize_on_monomials(op, n, k, k)
        assert matrix.shape == (len(targets), len(basis)), op.descriptor
        images = [op(Polynomial.monomial(n, exps)) for exps in basis]
        for col, (exps, image) in enumerate(zip(basis, images)):
            column = Polynomial(n, {t: matrix.at(row, col) for row, t in enumerate(targets)})
            assert column == image == oracle(Polynomial.monomial(n, exps)), op.descriptor
        # materializing keeps the images intact for later calls
        assert [op(Polynomial.monomial(n, e)) for e in basis] == images


def reference_matrix(oracle, n, k, shift):
    """(den, sparse rows) of the oracle's Fraction images on degree k, over their lcm."""
    targets = {exps: row for row, exps in enumerate(monomial_basis(n, k + shift))}
    images = [
        dict(oracle(Polynomial.monomial(n, exps)).sorted_terms()) for exps in monomial_basis(n, k)
    ]
    den = lcm(1, *(c.denominator for image in images for c in image.values()))
    rows = [{} for _ in targets]
    for col, image in enumerate(images):
        for exps, c in image.items():
            rows[targets[exps]][col] = c.numerator * (den // c.denominator)
    return den, rows


@settings(max_examples=20, deadline=None)
@given(cases())
def test_matrices_are_the_oracle_images_over_their_lcm(case):
    # a primitive's integer images over its den, normalized, and a composite's
    # product sum are stored exactly as the Fraction images of the textbook
    # oracles, put over the lcm of their denominators
    params, _, _, A, i, j = case
    n = params.n
    for op, oracle in builders_with_oracles(params, A, i, j):
        for k in range(5):
            matrix = materialize_on_monomials(op, n, k, k)
            den, rows = reference_matrix(oracle, n, k, op.shift)
            assert (matrix.den, matrix.sparse_rows) == (den, rows), (op.descriptor, k)


degree_ranges = st.sampled_from([(0, 3), (-2, 2), (-2, -1), (1, 4), (2, 1), (0, -1), (3, 3)])


@settings(max_examples=25, deadline=None)
@given(cases(), degree_ranges, degree_ranges)
def test_range_matrix_is_the_per_degree_blocks_on_one_diagonal(case, first, second):
    # T_i, x_i, |x_A|^2, Lap_A, A0, J+, J-, C_A and L_ij on two ranges of
    # degrees: the per-degree matrices of separate operators on one diagonal
    # over the lcm of their dens, with the same den and sparse rows.  Three
    # operator sets: ranges straight from the rules (the second range
    # overlapping the first's kept matrix), the per-degree reference, and
    # ranges asked for after the per-degree blocks are kept
    params, _, _, A, i, j = case
    n = params.n

    def operators():
        return [op for op, _ in builders_with_oracles(params, A, i, j)] + [_coordinate_mul(i)]

    def per_degree(op, k, kmax):
        blocks = [materialize_on_monomials(op, n, d, d) for d in range(k, kmax + 1)]
        return block_diagonal(blocks)

    for ranged, single, reused in zip(operators(), operators(), operators()):
        for k, kmax in (first, second):
            want = per_degree(single, k, kmax)
            per_degree(reused, k, kmax)
            rows = sum(len(monomial_basis(n, d + single.shift)) for d in range(k, kmax + 1))
            cols = sum(len(monomial_basis(n, d)) for d in range(k, kmax + 1))
            assert want.shape == (rows, cols), single.descriptor
            for op in (ranged, reused):
                whole = materialize_on_monomials(op, n, k, kmax)
                assert whole.shape == want.shape, op.descriptor
                assert (whole.den, whole.sparse_rows) == (want.den, want.sparse_rows), (
                    op.descriptor, k, kmax
                )


def test_range_primitive_image_of_a_wrong_degree_inside_the_range_raises():
    # declared degree preserving, but degree 1 goes to degree 2, which the
    # range 0..3 holds: each image is looked up in its own degree's rows
    def rule(exps):
        if sum(exps) == 1:
            return {(exps[0] + 1,) + exps[1:]: 1}
        return {exps: 1}

    bad = LinearOperator(rule, "bad")
    with pytest.raises(ImageEscapesSpan, match="bad maps homogeneous degree 1 to degree 2,"
                       " not to its declared degree 1"):
        materialize_on_monomials(bad, 3, 0, 3)
    # degree 0 alone, and the range 2..3, hold no such image
    assert materialize_on_monomials(bad, 3, 0, 0).shape == (1, 1)
    assert materialize_on_monomials(bad, 3, 2, 3).shape == (16, 16)


def permute(sigma, p):
    """sigma . p: the variable x_i of p becomes x_sigma(i)."""
    out = {}
    for exps, c in p.sorted_terms():
        moved = [0] * p.n
        for pos, e in enumerate(exps):
            moved[sigma[pos] - 1] = e
        out[tuple(moved)] = c
    return Polynomial(p.n, out)


@settings(max_examples=40, deadline=None)
@given(cases(), st.data())
def test_permuting_variables_with_mu_permutes_every_operator(case, data):
    # O_{sigma(A)} at mu o sigma^-1 applied to sigma.p equals sigma.(O_A p) at mu
    params, p, _, A, i, j = case
    n = params.n
    sigma = data.draw(st.permutations(range(1, n + 1)))
    moved_mu = [None] * n
    for pos, m in enumerate(params.mu):
        moved_mu[sigma[pos] - 1] = m
    moved = ParameterSet(n, tuple(moved_mu))
    sA = tuple(sigma[a - 1] for a in A)
    si, sj = sigma[i - 1], sigma[j - 1]
    ops, moved_ops = DunklOperators(params), DunklOperators(moved)
    pairs = [
        (dunkl(params, i), dunkl(moved, si)),
        (laplace(ops, A), laplace(moved_ops, sA)),
        (casimir(ops, A), casimir(moved_ops, sA)),
        (angular(ops, i, j), angular(moved_ops, si, sj)),
        *zip(su11_triple(ops, A), su11_triple(moved_ops, sA)),
    ]
    sp = permute(sigma, p)
    for op, moved_op in pairs:
        assert moved_op(sp) == permute(sigma, op(p)), op.descriptor


# -- canonical form of every result --------------------------------------------


def fractions(p):
    """p's coefficients, one Fraction per term."""
    return dict(p.sorted_terms())


def reference_sum(*parts):
    """The sum of (exponents, Fraction) pairs, one Fraction per term, zeros dropped."""
    out = {}
    for part in parts:
        for exps, c in part:
            out[exps] = out.get(exps, 0) + c
    return {exps: c for exps, c in out.items() if c}


def reference_product(a, b):
    return reference_sum(
        (tuple(x + y for x, y in zip(ea, eb)), ca * cb) for ea, ca in a.items() for eb, cb in b.items()
    )


def lowered(exps, pos):
    return exps[:pos] + (exps[pos] - 1,) + exps[pos + 1:]


def assert_canonical(result, expected, what):
    """result is ints over a positive den in lowest terms, with the expected coefficients."""
    assert type(result.den) is int and result.den > 0, what
    assert all(type(x) is int and x for x in result.terms.values()), what
    assert gcd(result.den, *result.terms.values()) == 1, what
    assert {e: result.coefficient(e) for e in result.terms} == expected, what


@settings(max_examples=60, deadline=None)
@given(cases(), coeffs, st.integers(0, 8))
def test_every_result_is_in_lowest_terms(case, c, which):
    # equal polynomials compare by their terms and den, so a result that is
    # not in lowest terms would make == silently false
    params, p, q, A, i, j = case
    pos = i - 1
    a, b = fractions(p), fractions(q)
    divisible = p - restrict_to_zero(p, i)
    op, _ = builders_with_oracles(params, A, i, j)[which]  # one of the nine builders
    image = {}
    for exps, x in a.items():
        for e, y in op.apply({exps: 1}).items():
            image[e] = image.get(e, 0) + x * Fraction(y, op.den)
    checks = [
        ("p + q", p + q, reference_sum(a.items(), b.items())),
        ("p - q", p - q, reference_sum(a.items(), ((e, -x) for e, x in b.items()))),
        ("p - p", p - p, {}),
        ("p * q", p * q, reference_product(a, b)),
        ("c p", p.scale(c), reference_sum((e, x * c) for e, x in a.items())),
        ("d_i p", partial_derivative(p, i),
         reference_sum((lowered(e, pos), x * e[pos]) for e, x in a.items() if e[pos])),
        ("r_i p", reflect(p, i), reference_sum((e, -x if e[pos] % 2 else x) for e, x in a.items())),
        ("p at x_i = 0", restrict_to_zero(p, i), reference_sum((e, x) for e, x in a.items() if not e[pos])),
        ("p / x_i", divide_by_coordinate(divisible, i),
         reference_sum((lowered(e, pos), x) for e, x in a.items() if e[pos])),
        (op.descriptor, op(p), reference_sum(image.items())),
    ]
    for what, result, expected in checks:
        assert_canonical(result, expected, what)
