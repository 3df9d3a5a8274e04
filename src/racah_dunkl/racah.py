"""Scalar spectral data and the discrete three-term recurrence.

For three variables with fixed parities and fixed total degree, the
module spanned by the tower basis is finite dimensional; the second-pair
invariant acts tridiagonally on it.  This module computes the central
eigenvalues, the tridiagonal coefficients B_k and U_k^2, the recurrence
parameters alpha..delta with their shift tau, and the monic polynomials
generated by the shifted recurrence.  Everything is a pure function on
rationals.

Normalized bases would introduce square roots, so the off-diagonal data
is carried as the squares U_k^2 (products of paired off-diagonal matrix
entries); all statements about the normalized picture are verified in
this square form, which has identical content and stays rational.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .poly import Frozen, ParameterSet, Polynomial


class RacahParameters(Frozen):
    __slots__ = ("alpha", "beta", "gamma", "delta", "tau")

    def __init__(self, alpha: Fraction, beta: Fraction, gamma: Fraction, delta: Fraction,
                 tau: Fraction) -> None:
        expected = (gamma + delta + 1) * (gamma + delta) / 4
        if tau != expected:
            raise ValueError(f"tau = {tau} is inconsistent; expected {expected}")
        super().__init__(alpha, beta, gamma, delta, tau)

    @classmethod
    def derive(
        cls, alpha: Fraction, beta: Fraction, gamma: Fraction, delta: Fraction
    ) -> "RacahParameters":
        tau = (gamma + delta + 1) * (gamma + delta) / 4
        return cls(alpha, beta, gamma, delta, tau)


class SpectralData(Frozen):
    __slots__ = ("sigma", "lambda1", "lambda2", "lambda3", "lambda123")  # Fractions

    def omega(self, k: int) -> Fraction:
        """Eigenvalue of the first-pair invariant at the k-th module vector."""
        return Fraction(2 * k + self.sigma) * (2 * k + self.sigma - 2) / 4


def _require_rank_one_frame(params: ParameterSet, epsilon: Sequence[int]) -> None:
    if params.n != 3:
        raise ValueError("spectral data needs a three-variable frame")
    if len(epsilon) != 3 or any(e not in (0, 1) for e in epsilon):
        raise ValueError(f"epsilon {tuple(epsilon)} must be three parity bits")


def spectral_data(
    params: ParameterSet, epsilon: Sequence[int], d3: int
) -> SpectralData:
    """Central eigenvalues and the omega spectrum for a fixed-parity module.

    The frame is effective: for an embedded three-block realization, pass
    the permuted or aggregated parameters of the blocks.
    """
    _require_rank_one_frame(params, epsilon)
    mu = params.mu
    eps = tuple(epsilon)
    half = Fraction(1, 2)
    lams = tuple(
        (eps[i] + mu[i] + half) * (eps[i] + mu[i] - Fraction(3, 2)) / 4 for i in range(3)
    )
    mu_sum = mu[0] + mu[1] + mu[2]
    lambda123 = (d3 + mu_sum + Fraction(3, 2)) * (d3 + mu_sum - half) / 4
    sigma = mu[0] + mu[1] + eps[0] + eps[1] + 1
    return SpectralData(sigma, lams[0], lams[1], lams[2], lambda123)


def racah_parameters(
    params: ParameterSet, epsilon: Sequence[int], d3: int
) -> RacahParameters:
    """Recurrence parameters alpha, beta, gamma, delta and the shift tau."""
    _require_rank_one_frame(params, epsilon)
    mu = params.mu
    e1, e2, e3 = tuple(epsilon)
    half = Fraction(1, 2)
    alpha = mu[0] + e1 - half
    beta = mu[1] + e2 - half
    gam = -mu[2] - Fraction(d3 + 1 - e1 - e2 + e3, 2)
    delta = -mu[1] - Fraction(d3 + 1 - e1 + e2 - e3, 2)
    return RacahParameters.derive(alpha, beta, gam, delta)


def module_dimension(epsilon: Sequence[int], d3: int) -> int:
    """Number of admissible first norm powers for fixed parities and degree."""
    rem = d3 - sum(epsilon)
    if rem < 0 or rem % 2:
        return 0
    return rem // 2 + 1


def recurrence_coefficients(
    sd: SpectralData, rp: RacahParameters, k: int
) -> tuple[Fraction, Fraction]:
    """The diagonal entry B_k and squared off-diagonal U_k^2, exactly.

    B_k = (lambda123 + lambda1 + lambda2 + lambda3 - omega_k
           - (lambda2 - lambda1)(lambda3 - lambda123) / omega_k) / 2,
    which is pinned by the structure equations of the quadratic algebra:
    the diagonal of the second-pair invariant in the first-pair eigenbasis
    satisfies 2 omega_k B_k + omega_k^2 + d omega_k + e = 0 with d the
    negated sum of the four central eigenvalues.

    U_k^2 carries the product denominator
    (2k+a+b-1)(2k+a+b)^2(2k+a+b+1); it equals the classical product
    A_{k-1} C_k of the discrete-recurrence coefficients with parameters
    (a, b, g, d), vanishes at k = 0 and again one step past the module
    dimension, and is positive strictly inside.

    omega_0 = sigma (sigma - 2) / 4 vanishes at sigma = 2 together with
    lambda2 - lambda1 = (beta - alpha)(sigma - 2) / 4, so B_0 takes their
    cancelled ratio (beta - alpha) / sigma, where sigma > 0 for positive
    mu; omega_k > 0 for k >= 1.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    omega_k = sd.omega(k)
    if k == 0:
        ratio = (rp.beta - rp.alpha) / sd.sigma
    else:
        ratio = (sd.lambda2 - sd.lambda1) / omega_k
    lambdas = sd.lambda123 + sd.lambda1 + sd.lambda2 + sd.lambda3
    b_k = (lambdas - omega_k - ratio * (sd.lambda3 - sd.lambda123)) / 2

    if k == 0:
        return b_k, Fraction(0)
    a, b, g, d = rp.alpha, rp.beta, rp.gamma, rp.delta
    num = (
        Fraction(k)
        * (k + b)
        * (k + a - d)
        * (k + a + b - g)
        * (k + a)
        * (k + a + b)
        * (k + g)
        * (k + b + d)
    )
    den = (2 * k + a + b - 1) * (2 * k + a + b) ** 2 * (2 * k + a + b + 1)
    return b_k, num / den


def module_tridiagonal_data(
    params: ParameterSet, epsilon: Sequence[int], d3: int
) -> tuple[list[Fraction], list[Fraction]]:
    """Diagonal B_0..B_{m-1} and off-diagonal squares U_1^2..U_{m-1}^2.

    m is the module dimension for the given parities and degree; an empty
    module yields two empty lists.
    """
    _, coefficients = _module_coefficients(params, epsilon, d3)
    return [b_k for b_k, _ in coefficients], [u2_k for _, u2_k in coefficients[1:]]


def _module_coefficients(
    params: ParameterSet, epsilon: Sequence[int], d3: int
) -> tuple[Fraction | None, list[tuple[Fraction, Fraction]]]:
    """tau and the pairs (B_k, U_k^2), k < m the module dimension; an empty module has neither."""
    m = module_dimension(epsilon, d3)
    if m == 0:
        return None, []
    sd = spectral_data(params, epsilon, d3)
    rp = racah_parameters(params, epsilon, d3)
    return rp.tau, [recurrence_coefficients(sd, rp, k) for k in range(m)]


def racah_recurrence_polys(
    rp: RacahParameters, sd: SpectralData, k_max: int
) -> list[Polynomial]:
    """Monic polynomials H_0..H_{k_max} of the shifted recurrence.

    The recurrence is x H_k = H_{k+1} + (B_k + tau) H_k + U_k^2 H_{k-1}
    in the shifted variable, with H_{-1} = 0 and H_0 = 1; each H_k is a
    univariate Polynomial with exact coefficients.
    """
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    return _shifted_recurrence(rp.tau, [recurrence_coefficients(sd, rp, k) for k in range(k_max)])


def _shifted_recurrence(
    tau: Fraction, coefficients: list[tuple[Fraction, Fraction]]
) -> list[Polynomial]:
    """H_0..H_m of the shifted recurrence, from the m pairs (B_k, U_k^2)."""
    x = Polynomial.variable(1, 1)
    polys = [Polynomial.one(1)]
    prev = Polynomial.zero(1)
    for b_k, u2_k in coefficients:
        nxt = (x - Polynomial.constant(1, b_k + tau)) * polys[-1] - prev.scale(u2_k)
        prev = polys[-1]
        polys.append(nxt)
    return polys


def recurrence_table_json(
    params: ParameterSet, epsilon: Sequence[int], d3: int
) -> list[dict]:
    """Rows {k, B_k, U2_k, H_k coefficients} for the whole module."""
    tau, coefficients = _module_coefficients(params, epsilon, d3)
    if not coefficients:
        return []
    polys = _shifted_recurrence(tau, coefficients)
    rows = [{"k": k, "B_k": str(b), "U2_k": str(u2)} for k, (b, u2) in enumerate(coefficients)]
    rows.append({"k": len(coefficients)})
    for k, row in enumerate(rows):
        row["H_k"] = [str(polys[k].coefficient((t,))) for t in range(k + 1)]
    return rows
