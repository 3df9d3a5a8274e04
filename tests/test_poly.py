"""Polynomial arithmetic, coordinate operations, and serialization."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racah_dunkl import ParameterSet, Polynomial, monomial_basis
from racah_dunkl.poly import monomial_positions

from reference import (
    NotDivisible,
    divide_by_coordinate,
    from_text,
    partial_derivative,
    reflect,
    restrict_to_zero,
)

P = from_text


# -- strategies -------------------------------------------------------------

coeffs = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
).filter(lambda c: c != 0)


@st.composite
def polynomials(draw, n=None, max_degree=4, max_terms=5):
    if n is None:
        n = draw(st.integers(min_value=1, max_value=4))
    exps = st.tuples(*([st.integers(min_value=0, max_value=max_degree)] * n))
    terms = draw(
        st.dictionaries(exps, coeffs, min_size=0, max_size=max_terms)
    )
    return Polynomial(n, {e: Fraction(c) for e, c in terms.items()})


# -- arithmetic examples ----------------------------------------------------

def test_add_examples():
    x1 = Polynomial.variable(3, 1)
    assert (x1 + (-x1)).is_zero
    assert P(2, "1 * x1^2") + P(2, "1 * x2^2") == P(2, "1 * x1^2 + 1 * x2^2")
    assert P(1, "1/2 * x1") + P(1, "1/3 * x1") == P(1, "5/6 * x1")


def test_mul_examples():
    x1, x2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    assert x1 * x1 == P(2, "1 * x1^2")
    assert (x1 + x2) * (x1 - x2) == P(2, "1 * x1^2 + -1 * x2^2")
    assert (Polynomial.zero(2) * (x1 + x2)).is_zero


def test_mul_degree_additivity():
    p = P(3, "1 * x1^2 + 2 * x2 x3")
    q = P(3, "1/3 * x1 x2 x3")
    assert (p * q).degree() == p.degree() + q.degree()


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        Polynomial.variable(2, 1) + Polynomial.variable(3, 1)
    with pytest.raises(ValueError):
        Polynomial.variable(2, 1) * Polynomial.variable(3, 1)


def test_partial_derivative_examples():
    assert partial_derivative(P(1, "1 * x1^3"), 1) == P(1, "3 * x1^2")
    assert partial_derivative(P(2, "1 * x1"), 2).is_zero
    assert partial_derivative(P(2, "1 * x1 x2"), 1) == P(2, "1 * x2")
    with pytest.raises(IndexError):
        partial_derivative(P(2, "1 * x1"), 3)


def test_reflect_examples():
    assert reflect(P(2, "1 * x1"), 1) == P(2, "-1 * x1")
    p = P(2, "1 * x1^2 + 1 * x2")
    assert reflect(p, 1) == p
    with pytest.raises(IndexError):
        reflect(p, 0)


def test_divide_by_coordinate_examples():
    assert divide_by_coordinate(P(2, "1 * x1^2 x2"), 1) == P(2, "1 * x1 x2")
    assert divide_by_coordinate(P(1, "2 * x1"), 1) == P(1, "2")
    with pytest.raises(NotDivisible):
        divide_by_coordinate(P(2, "1 * x1 + 1 * x2"), 1)


def test_restrict_to_zero_examples():
    p = P(2, "1 * x1^2 + 1 * x1 x2 + 1 * x2^2")
    assert restrict_to_zero(p, 2) == P(2, "1 * x1^2")
    even = P(2, "1 * x1^2 + 5")
    assert restrict_to_zero(even, 1) == P(2, "5")
    assert restrict_to_zero(Polynomial.one(3), 2) == Polynomial.one(3)


# -- properties -------------------------------------------------------------

@given(polynomials(n=3), polynomials(n=3), st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_reflect_is_algebra_morphism(p, q, i):
    assert reflect(p * q, i) == reflect(p, i) * reflect(q, i)
    assert reflect(reflect(p, i), i) == p


@given(polynomials(n=3), st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_coordinate_division_section(p, i):
    shifted = Polynomial.variable(3, i) * p
    assert divide_by_coordinate(shifted, i) == p


@given(polynomials())
@settings(max_examples=80, deadline=None)
def test_text_round_trip(p):
    assert from_text(p.n, p.to_text()) == p


@given(polynomials())
@settings(max_examples=80, deadline=None)
def test_json_round_trip(p):
    # one entry per term of sorted_terms: exponents, then the coefficient's
    # numerator and positive denominator in lowest terms, as decimal strings
    obj = p.to_json_obj()
    read = [(tuple(t["exponents"]), int(t["num"]), int(t["den"])) for t in obj]
    assert [(e, Fraction(num, den)) for e, num, den in read] == p.sorted_terms()
    assert all(den > 0 and gcd(num, den) == 1 for _, num, den in read)
    assert all(t["num"] == str(int(t["num"])) and t["den"] == str(int(t["den"])) for t in obj)
    assert Polynomial(p.n, {e: Fraction(num, den) for e, num, den in read}) == p


@given(polynomials(n=2), polynomials(n=2), polynomials(n=2))
@settings(max_examples=40, deadline=None)
def test_ring_laws(p, q, r):
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r


def test_evaluate():
    p = P(2, "1 * x1^2 + -1 * x2")
    assert p.evaluate([Fraction(1, 2), Fraction(1, 4)]) == 0


# -- monomial order and bases -----------------------------------------------

def test_monomial_basis_counts():
    assert len(monomial_basis(3, 4)) == 15  # C(6,4)
    assert monomial_basis(2, 0) == ((0, 0),)
    assert monomial_basis(1, 5) == ((5,),)


def test_monomial_basis_graded_lex_descending():
    basis = monomial_basis(3, 2)
    assert basis[0] == (2, 0, 0)
    assert basis[-1] == (0, 0, 2)
    assert list(basis) == sorted(basis, reverse=True)


def test_monomial_basis_and_positions_are_enumerated_once():
    basis = monomial_basis(3, 4)
    assert monomial_basis(3, 4) is basis
    positions = monomial_positions(3, 4)
    assert monomial_positions(3, 4) is positions
    assert [positions[exps] for exps in basis] == list(range(len(basis)))
    with pytest.raises(TypeError):
        positions[(9, 9, 9)] = 0
    assert monomial_positions(3, -1) == {}


def test_canonical_text_is_sorted():
    p = P(2, "1 * x2^2 + 1 * x1 x2 + 1 * x1^2 + 2")
    assert p.to_text() == "1 * x1^2 + 1 * x1 x2 + 1 * x2^2 + 2"


# -- parameter sets ----------------------------------------------------------

def test_parameter_set_validation():
    ps = ParameterSet.make(["1/2", "1/3"])
    assert ps.n == 2 and ps.mu_of(2) == Fraction(1, 3)
    with pytest.raises(ValueError):
        ParameterSet.make(["1/2", "-1/3"])
    with pytest.raises(ValueError):
        ParameterSet.make(["1/2", "0"])
    with pytest.raises(ValueError):
        ParameterSet(3, (Fraction(1, 2),))
    with pytest.raises(ValueError, match="is a float; pass an int, a Fraction or a 'p/q' string"):
        ParameterSet.make([0.1, 0.2, 0.3])
    assert ParameterSet.make([1, Fraction(1, 3), "2/7"]).mu == (1, Fraction(1, 3), Fraction(2, 7))


def test_polynomial_refuses_inexact_coefficients():
    # 0.1 would be stored as 3602879701896397/36028797018963968: refuse it as mu is
    message = "is a float; pass an int, a Fraction or a 'p/q' string"
    one = Polynomial.one(2)
    for build in (
        lambda: Polynomial(2, {(1, 0): 0.1}),
        lambda: Polynomial.monomial(2, (1, 0), 0.1),
        lambda: Polynomial.constant(2, 0.5),
        lambda: one.scale(0.3),
        lambda: one * 0.3,
        lambda: 0.3 * one,
        lambda: one.evaluate([0.5, 1]),
    ):
        with pytest.raises(ValueError, match=message):
            build()
    with pytest.raises(ValueError, match="is a complex"):
        Polynomial.constant(2, 1j)
    exact = Polynomial(2, {(1, 0): 1, (0, 1): Fraction(1, 3), (0, 0): "2/7"})
    assert (exact.terms, exact.den) == ({(1, 0): 21, (0, 1): 7, (0, 0): 6}, 21)
    assert exact.sorted_terms() == [((1, 0), 1), ((0, 1), Fraction(1, 3)), ((0, 0), Fraction(2, 7))]
    assert Polynomial.monomial(2, (1, 0), "1/10") == exact.scale(0) + P(2, "1/10 * x1")
    assert one.scale("1/3") == Polynomial.constant(2, Fraction(1, 3))


def test_parameter_set_default_distinct():
    ps = ParameterSet.default(4)
    assert ps.mu == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5))
    assert len(set(ps.mu)) == 4
