"""Operators the tests break on purpose, each built from coordinate data.

A mutant is edited moves, an edited diagonal, or a composite of the real
operator and a one-monomial map, so its support is read from its data
like every other operator's:

* ``one_monomial_map(source, target)`` sends x^source to x^target and
  every other monomial to 0.  It is a composite of one factor per
  position: a move whose coefficient is 1 at the exponent source[p]
  alone where target[p] differs, else a diagonal over p whose value is 1
  at the degree source[p] alone;
* ``with_extra_image(op, source, extra)`` is op plus that map from
  source to extra;
* ``broken_dunkl`` is T_1 with T_1 x1^2 = 2 x1 made 3 x1;
* ``doubled_lowering`` is su11_triple with the moves of J- doubled;
* ``swapped_laplace`` is laplace with the odd and even factors of each
  T_i^2 coefficient swapped.
"""

from __future__ import annotations

from math import lcm

from racah_dunkl import operators, su11_triple
from racah_dunkl.operators import LinearOperator

REAL_DUNKL = operators.dunkl


def _indicator(at: int):
    return lambda e: int(e == at)


def one_monomial_map(source: tuple[int, ...], target: tuple[int, ...]) -> LinearOperator:
    """The map x^source to x^target, every other monomial to 0."""
    factors = []
    for pos, (e, f) in enumerate(zip(source, target)):
        name, at = f"x{pos + 1}^{e}", _indicator(e)
        if e == f:
            factors.append(LinearOperator.degree_diagonal((pos,), at, f"[{name}]", 1))
        else:
            factors.append(LinearOperator.moving([(pos, at)], f"{name}->{f}", f - e))
    return LinearOperator.composite([(1, tuple(factors))], f"{source}->{target}")


def with_extra_image(op: LinearOperator, source, extra) -> LinearOperator:
    """op, with the monomial ``extra`` added to source's image."""
    return LinearOperator.composite(
        [(1, (op,)), (1, (one_monomial_map(source, extra),))], f"{op.descriptor}'"
    )


def broken_dunkl(params, i):
    """T_i, with T_1 x1^2 = 2 x1 made 3 x1: one image wrong, at degree 2."""
    op = REAL_DUNKL(params, i)
    if i != 1:
        return op
    return with_extra_image(op, (2,) + (0,) * (params.n - 1), (1,) + (0,) * (params.n - 1))


def doubled_lowering(ops, A):
    """su11_triple with J- doubled, as its moves with doubled coefficients."""
    a0, jp, jm = su11_triple(ops, A)
    moves = [(pos, _doubled(c)) for pos, c, _ in jm.moves]
    return a0, jp, LinearOperator.moving(moves, "2J-", jm.shift, jm.den)


def _doubled(c):
    return lambda e: 2 * c(e)


def swapped_laplace(ops, A):
    """laplace with the odd and even factors of each T_i^2 coefficient swapped."""
    subset = tuple(sorted(set(A)))
    two_mu = [(i - 1, 2 * ops.params.mu_of(i)) for i in subset]
    den = lcm(*(t.denominator for _, t in two_mu))
    moves = [(pos, _swapped(t.numerator, t.denominator, den // t.denominator)) for pos, t in two_mu]
    return LinearOperator.moving(moves, "swapped", -2, den)


def _swapped(a: int, b: int, s: int):
    """(even * b + a) * odd * s in place of laplace's (odd * b + a) * even * s."""

    def coefficient(e: int) -> int:
        odd, even = (e, e - 1) if e % 2 else (e - 1, e)
        return (even * b + a) * odd * s

    return coefficient
