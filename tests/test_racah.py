"""Scalar spectral data and the three-term recurrence machinery."""

from fractions import Fraction

import pytest

from racah_dunkl import (
    DunklOperators,
    ParameterSet,
    Polynomial,
    RacahParameters,
    build_basis_tower,
    casimir,
    module_dimension,
    module_tridiagonal_data,
    parity_blocks,
    racah_parameters,
    racah_recurrence_polys,
    recurrence_coefficients,
    spectral_data,
    tridiagonal_check,
)

P3 = ParameterSet.make(["1/2", "1/3", "1/4"])
HALVES = ParameterSet.make(["1/2", "1/2", "1/2"])


def test_spectral_data_examples():
    sd = spectral_data(HALVES, (0, 0, 0), 0)
    assert sd.lambda123 == Fraction(3, 4)
    assert sd.lambda1 == Fraction(-1, 4)
    assert sd.omega(0) == sd.sigma * (sd.sigma - 2) / 4


def test_spectral_data_needs_three_variables():
    with pytest.raises(ValueError):
        spectral_data(ParameterSet.default(4), (0, 0, 0, 0), 2)
    with pytest.raises(ValueError):
        spectral_data(P3, (0, 2, 0), 2)


def test_omega_strictly_increasing_for_positive_parameters():
    sd = spectral_data(P3, (1, 1, 0), 4)
    values = [sd.omega(k) for k in range(6)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_racah_parameters_examples():
    rp = racah_parameters(HALVES, (0, 0, 0), 2)
    assert rp.alpha == 0
    rp2 = racah_parameters(HALVES, (0, 1, 0), 3)
    assert rp2.beta == 1
    assert rp2.tau == (rp2.gamma + rp2.delta + 1) * (rp2.gamma + rp2.delta) / 4


def test_racah_parameters_invariant_enforced():
    with pytest.raises(ValueError):
        RacahParameters(Fraction(0), Fraction(0), Fraction(1), Fraction(1), Fraction(7))


def test_u0_squared_vanishes():
    sd = spectral_data(P3, (0, 0, 0), 4)
    rp = racah_parameters(P3, (0, 0, 0), 4)
    _, u2 = recurrence_coefficients(sd, rp, 0)
    assert u2 == 0


def test_b0_cancels_a_vanishing_omega_zero():
    # sigma = mu1 + mu2 + eps1 + eps2 + 1 = 2 makes omega_0 vanish, and
    # lambda2 - lambda1 with it: B_0 is the realized diagonal of C23
    eps, d3 = (0, 0, 0), 2
    sd = spectral_data(HALVES, eps, d3)
    rp = racah_parameters(HALVES, eps, d3)
    assert sd.omega(0) == 0 and sd.lambda2 == sd.lambda1
    b0, u2 = recurrence_coefficients(sd, rp, 0)
    tower = build_basis_tower(HALVES, d3)
    basis = [tower[p] for p in parity_blocks(tower)[eps]]
    c23 = casimir(DunklOperators(HALVES), (2, 3))
    assert tridiagonal_check(HALVES, c23, basis).block_diagonal(eps)[0] == b0
    assert u2 == 0


def test_module_dimension():
    assert module_dimension((0, 0, 0), 4) == 3
    assert module_dimension((1, 1, 0), 4) == 2
    assert module_dimension((1, 0, 0), 4) == 0  # parity mismatch
    assert module_dimension((0, 0, 0), -2) == 0


def test_truncation_one_past_module():
    # U_k^2 vanishes at k = module dimension (factor k + beta + delta)
    eps, d3 = (0, 0, 0), 6
    m = module_dimension(eps, d3)
    sd = spectral_data(P3, eps, d3)
    rp = racah_parameters(P3, eps, d3)
    assert recurrence_coefficients(sd, rp, m)[1] == 0
    assert all(recurrence_coefficients(sd, rp, k)[1] > 0 for k in range(1, m))


def test_recurrence_polys_structure():
    eps, d3 = (0, 0, 0), 4
    sd = spectral_data(P3, eps, d3)
    rp = racah_parameters(P3, eps, d3)
    polys = racah_recurrence_polys(rp, sd, 3)
    assert polys[0] == Polynomial.one(1)
    b0, _ = recurrence_coefficients(sd, rp, 0)
    x = Polynomial.variable(1, 1)
    assert polys[1] == x - Polynomial.constant(1, b0 + rp.tau)
    for k, poly in enumerate(polys):
        assert poly.degree() == k
        assert poly.coefficient((k,)) == 1  # monic


def test_shift_consistency():
    # H_k(x + tau) equals the polynomial generated by the unshifted
    # recurrence x P_k = P_{k+1} + B_k P_k + U_k^2 P_{k-1}
    eps, d3 = (0, 1, 1), 6
    sd = spectral_data(P3, eps, d3)
    rp = racah_parameters(P3, eps, d3)
    m = module_dimension(eps, d3)
    shifted = racah_recurrence_polys(rp, sd, m)

    x = Polynomial.variable(1, 1)
    unshifted = [Polynomial.one(1)]
    prev = Polynomial.zero(1)
    for k in range(m):
        b_k, u2_k = recurrence_coefficients(sd, rp, k)
        nxt = (x - Polynomial.constant(1, b_k)) * unshifted[-1] - prev.scale(u2_k)
        prev = unshifted[-1]
        unshifted.append(nxt)

    # polynomials of degree <= m agree iff they agree at m + 1 points
    for k in range(m + 1):
        for t in range(m + 2):
            v = Fraction(t, 3)
            assert shifted[k].evaluate([v + rp.tau]) == unshifted[k].evaluate([v])


def test_tridiagonal_data_against_realized_matrix():
    # frozen oracle values come from the realized matrix of the second-pair
    # invariant on the fixed-parity module basis (see test_connection for
    # the materialization route)
    from racah_dunkl import casimir, materialize
    from reference import module_basis

    eps, d3 = (0, 0, 0), 4
    basis = module_basis(P3, eps, d3)
    c23 = casimir(DunklOperators(P3), (2, 3))
    matrix = materialize(c23, 3, [el.poly for el in basis]).to_fractions()
    diag, offsq = module_tridiagonal_data(P3, eps, d3)
    assert [matrix[k][k] for k in range(3)] == diag
    assert [matrix[k][k - 1] * matrix[k - 1][k] for k in (1, 2)] == offsq


def test_recurrence_table_json_deterministic():
    from racah_dunkl import recurrence_table_json

    rows = recurrence_table_json(P3, (0, 0, 0), 4)
    assert rows == recurrence_table_json(P3, (0, 0, 0), 4)
    assert [row["k"] for row in rows] == [0, 1, 2, 3]
    assert rows[0]["U2_k"] == "0"
    assert len(rows[3]["H_k"]) == 4
