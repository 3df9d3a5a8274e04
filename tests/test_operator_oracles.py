"""Operator builders against their textbook definitions, at drawn mu.

The primitive builders are monomial rules with integer images over one
denominator, and the composites are product sums over them; each
operator keeps its matrices and the images it applies.  The oracles
below are written with Polynomial methods only (derivative, reflection,
coordinate division, products), so they share no code with the rules.
Also checked: kept images never leak into or out of a call, every matrix
is the one read from the oracles' Fraction images, and permuting the
variables together with mu permutes every operator.
"""

from fractions import Fraction
from math import lcm

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
    norm_square_poly,
    su11_triple,
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
    return p.partial_derivative(i) + (p - p.reflect(i)).divide_by_coordinate(i).scale(
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
        total = total + Polynomial.variable(p.n, i) * p.partial_derivative(i)
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
        matrix = materialize_on_monomials(op, n, k)
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
    images = [oracle(Polynomial.monomial(n, exps)).terms for exps in monomial_basis(n, k)]
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
            matrix = materialize_on_monomials(op, n, k)
            den, rows = reference_matrix(oracle, n, k, op.shift)
            assert (matrix.den, matrix.sparse_rows) == (den, rows), (op.descriptor, k)


def permute(sigma, p):
    """sigma . p: the variable x_i of p becomes x_sigma(i)."""
    out = {}
    for exps, c in p.terms.items():
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
