"""Harmonic bases of the deformed Laplacian via one-variable extensions.

A degree-k polynomial in m variables that is annihilated by the deformed
Laplacian lifts to a harmonic polynomial in m+1 variables of prescribed
parity in the new variable; the lift is a finite alternating sum whose
j-th term carries the j-th Laplacian power.  Iterating the lift from the
constants, interleaved with multiplications by squared norms, produces a
basis of the degree-k harmonics in all n variables.  Each basis element
is a joint eigenfunction of the tower of quadratic invariants attached to
the prefixes of the variable order, with eigenvalues given in closed form
by casimir_eigenvalue.

Labels are positional: for a label with variable order (o_1, .., o_n),
epsilon[m] is the parity used when variable o_{m+1} is adjoined and
ell[m] is the squared-norm power inserted after that step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd, lcm
from typing import Iterable, Iterator, Sequence

from .linalg import matrix_rank, solve_in_span
from .operators import (
    DunklOperators,
    LinearOperator,
    casimir,
    gamma,
    laplace,
    norm_square_mul,
    norm_square_poly,
)
from .poly import Monomial, ParameterSet, Polynomial, monomial_basis
from .report import Report, first_witness


def raising_factorial(x: Fraction, j: int) -> Fraction:
    """x (x+1) ... (x+j-1)."""
    out = Fraction(1)
    for t in range(j):
        out *= x + t
    return out


def falling_factorial(x: Fraction | int, j: int) -> Fraction:
    """x (x-1) ... (x-j+1)."""
    out = Fraction(1)
    for t in range(j):
        out *= x - t
    return out


def poly_space_dim(n: int, k: int) -> int:
    """Dimension of the homogeneous degree-k polynomials in n variables."""
    if k < 0:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    return comb(n + k - 1, k)


def harmonic_space_dim(n: int, k: int) -> int:
    """Dimension of the degree-k harmonics in n variables."""
    return poly_space_dim(n - 1, k) + poly_space_dim(n - 1, k - 1)


@dataclass(frozen=True)
class HarmonicLabel:
    """Index data of one tower basis element.

    order is the variable sequence of the construction (innermost first),
    epsilon the parities per step, ell the squared-norm powers inserted
    between consecutive steps.
    """

    order: tuple[int, ...]
    epsilon: tuple[int, ...]
    ell: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.order)
        if sorted(self.order) != list(range(1, n + 1)):
            raise ValueError(f"order {self.order} is not a permutation of 1..{n}")
        if len(self.epsilon) != n or any(e not in (0, 1) for e in self.epsilon):
            raise ValueError(f"epsilon {self.epsilon} must be a 0/1 vector of length {n}")
        if len(self.ell) != n - 1 or any(l < 0 for l in self.ell):
            raise ValueError(f"ell {self.ell} must be {n - 1} non-negative integers")

    @property
    def n(self) -> int:
        return len(self.order)

    @property
    def degree(self) -> int:
        return sum(self.epsilon) + 2 * sum(self.ell)

    def partial_degree(self, m: int) -> int:
        """Degree of the intermediate harmonic after the m-th extension step."""
        if not 1 <= m <= self.n:
            raise IndexError(f"step {m} out of range 1..{self.n}")
        return sum(self.epsilon[:m]) + 2 * sum(self.ell[: m - 1])

    def prefix(self, m: int) -> tuple[int, ...]:
        """The first m variables of the order, as a sorted subset."""
        return tuple(sorted(self.order[:m]))

    def variable_parities(self) -> tuple[int, ...]:
        """Parities keyed by variable (index i-1 holds the parity in x_i)."""
        out = [0] * self.n
        for pos, var in enumerate(self.order):
            out[var - 1] = self.epsilon[pos]
        return tuple(out)

    def to_json_obj(self) -> dict:
        return {
            "order": list(self.order),
            "epsilon": list(self.epsilon),
            "ell": list(self.ell),
        }


IntegerTerms = dict[Monomial, int]


@dataclass(frozen=True)
class HarmonicBasisElement:
    """One realized tower element: the polynomial terms / den, labelled.

    terms maps each monomial to its nonzero integer numerator over the
    positive denominator den, as the tower computed them, in lowest terms;
    solves read them as they are, and callers must not modify them.  The
    Polynomial ``poly`` is built on its first read and kept.
    """

    label: HarmonicLabel
    terms: IntegerTerms
    den: int
    _poly: Polynomial | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def poly(self) -> Polynomial:
        p = self._poly
        if p is None:
            p = _polynomial(self.label.n, self.terms, self.den)
            object.__setattr__(self, "_poly", p)
        return p


def ck_extend(
    params: ParameterSet,
    vars_done: Sequence[int],
    new_var: int,
    parity: int,
    p: Polynomial,
) -> Polynomial:
    """Lift p to a harmonic in vars_done + {new_var} of given parity.

    The lift is sum_j (-1)^j x_new^(2j+parity) Lap^j p / (4^j j! c^(j))
    with c = mu_new + 1/2 + parity and c^(j) the raising factorial; the
    sum is finite because the Laplacian over vars_done kills p eventually.
    Requires p homogeneous and supported on vars_done.  p is read as
    integer numerators over the lcm of its denominators and handed to
    _lift with operators.laplace, and the result becomes a Polynomial.
    """
    n = params.n
    vars_done = tuple(dict.fromkeys(vars_done))
    if parity not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {parity}")
    if not 1 <= new_var <= n:
        raise IndexError(f"variable index {new_var} out of range 1..{n}")
    if new_var in vars_done:
        raise ValueError(f"x{new_var} is already among the extended variables")
    if p.n != n:
        raise ValueError(f"dimension mismatch: polynomial has {p.n}, parameters have {n}")
    if not p.is_homogeneous():
        raise ValueError("input to the extension must be homogeneous")
    outside = p.support_variables() - set(vars_done)
    if outside:
        raise ValueError(f"input involves variables outside vars_done: {sorted(outside)}")
    lap = laplace(DunklOperators(params), vars_done) if vars_done else None
    den = lcm(1, *(c.denominator for c in p.terms.values()))
    terms = {exps: c.numerator * (den // c.denominator) for exps, c in p.terms.items()}
    return _polynomial(n, *_lift(params, lap, new_var, parity, terms, den))


def _polynomial(n: int, terms: IntegerTerms, den: int) -> Polynomial:
    """The Polynomial with the given nonzero numerators over den > 0."""
    return Polynomial._trusted(n, {exps: Fraction(x, den) for exps, x in terms.items()})


def _lift(
    params: ParameterSet,
    lap: LinearOperator | None,
    new_var: int,
    parity: int,
    terms: IntegerTerms,
    den: int,
) -> tuple[IntegerTerms, int]:
    """ck_extend of terms / den, without the input checks, in lowest terms.

    lap is operators.laplace over vars_done, or None when vars_done is empty.
    The input is p = terms / den with nonzero integer numerators and
    den > 0; the result is returned the same way, with its content (the
    gcd of the numerators and the denominator) divided out.

    p must not involve x_new, as ck_extend requires, and neither does any
    Laplacian power of p.  So each term x_new^(2j+parity) Lap^j p is
    written by placing the exponent of x_new in the monomials of Lap^j p,
    and the terms of different j, holding different powers of x_new,
    never overlap.  With L = lap.den, Lap^j p = Q_j / (den L^j) for the
    integer Q_j = (L Lap)^j terms.  With 2c = 2 mu_new + 1 + 2 parity =
    a / b in lowest terms, formed from the integers of mu_new, the
    coefficient of the j-th term is (-b)^j / prod_{i <= j} f_i with
    f_i = 2i (a + (2i - 2) b), so all terms share the denominator
    den * N_J, N_j = prod_{i <= j} f_i L, J the last nonzero power, and the
    j-th term's numerators are (-b)^j (N_J / N_j) Q_j.
    """
    mu = params.mu_of(new_var)
    a, b = 2 * mu.numerator + (1 + 2 * parity) * mu.denominator, mu.denominator
    g = gcd(a, b)
    a, b = a // g, b // g
    pos = new_var - 1

    powers = [terms]
    if lap is not None:
        q = lap.apply(terms)
        while q:
            powers.append(q)
            q = lap.apply(q)
    # scales[j] = (-b)^j N_J / N_j, built from j = J down
    scales = [0] * len(powers)
    ratio = 1
    for j in range(len(powers) - 1, -1, -1):
        scales[j] = (-b) ** j * ratio
        if j:
            ratio *= 2 * j * (a + (2 * j - 2) * b) * lap.den

    out: IntegerTerms = {}
    for j, (q, scale) in enumerate(zip(powers, scales)):
        power = (2 * j + parity,)
        for exps, x in q.items():
            out[exps[:pos] + power + exps[pos + 1:]] = scale * x
    den *= ratio
    g = gcd(den, *out.values())
    if g > 1:
        out = {exps: x // g for exps, x in out.items()}
        den //= g
    return out, den


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Non-negative integer tuples with the given sum, in ascending lex order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_labels(
    n: int, k: int, order: Sequence[int] | None = None
) -> list[HarmonicLabel]:
    """All labels of total degree k, in the canonical deterministic order.

    Enumeration is lexicographic in the reversed parity vector, then in
    the reversed norm-power vector, which fixes basis ordering for every
    matrix built on these labels.
    """
    order = tuple(order) if order is not None else tuple(range(1, n + 1))
    labels: list[HarmonicLabel] = []
    for eps_rev in product((0, 1), repeat=n):
        rem = k - sum(eps_rev)
        if rem < 0 or rem % 2:
            continue
        for ell_rev in _compositions(rem // 2, n - 1):
            labels.append(
                HarmonicLabel(order, tuple(reversed(eps_rev)), tuple(reversed(ell_rev)))
            )
    return labels


def build_basis_tower(
    params: ParameterSet, k: int, order: Sequence[int] | None = None
) -> list[HarmonicBasisElement]:
    """The realized harmonic basis of degree k for the given variable order.

    Each label is realized by the alternating tower of extensions and
    norm multiplications, in the order of enumerate_labels.  The order
    must be a permutation of 1..n.  One operators.laplace and one
    operators.norm_square_mul per prefix of the order are shared by all
    labels, each an integer monomial rule in closed form (no T_i rule is
    evaluated) with its kept images, and the intermediate harmonic of each
    (epsilon, ell) prefix is realized only once.  The intermediates are
    integer numerators over one positive denominator: a norm
    multiplication (den 1) keeps the denominator and adds integers, and
    each _lift divides out its content.  Each element keeps its numerators
    and denominator; no Fraction is formed until its ``poly`` is read.
    """
    if k < 0:
        raise ValueError("degree must be non-negative")
    n = params.n
    if order is not None and sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"order {tuple(order)} is not a permutation of 1..{n}")
    labels = enumerate_labels(n, k, order)
    if not labels:
        return []
    o = labels[0].order
    ops = DunklOperators(params)
    laps = [None] + [laplace(ops, o[:m]) for m in range(1, n)]
    norms = [None] + [norm_square_mul(o[:m], n) for m in range(1, n)]
    # (epsilon[:m], ell[:m-1]) -> harmonic after the m-th extension step
    steps: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[IntegerTerms, int]] = {}
    elements = []
    for label in labels:
        eps, ell = label.epsilon, label.ell
        h, den = {(0,) * n: 1}, 1
        for m in range(1, n + 1):
            key = (eps[:m], ell[: m - 1])
            known = steps.get(key)
            if known is not None:
                h, den = known
                continue
            if m > 1:
                for _ in range(ell[m - 2]):
                    h = norms[m - 1].apply(h)
            h, den = steps[key] = _lift(params, laps[m - 1], o[m - 1], eps[m - 1], h, den)
        elements.append(HarmonicBasisElement(label, h, den))
    return elements


def jacobi_closed_form(params: ParameterSet, label: HarmonicLabel) -> Polynomial:
    """Closed-form product expansion of a tower basis element.

    Each extension step contributes a terminating hypergeometric factor in
    the ratio -x^2 / |x_prefix|^2; expanding it with the powers of the
    prefix norm clears every denominator, so the result is an exact
    polynomial.  It must coincide with the tower element of the same
    label, which is the correctness oracle relating the two constructions.
    """
    n = params.n
    if label.n != n:
        raise ValueError("label dimension does not match parameters")
    o = label.order
    exps = [0] * n
    exps[o[0] - 1] = label.epsilon[0]
    h = Polynomial.monomial(n, exps)
    deg = label.epsilon[0]
    for m in range(2, n + 1):
        done = o[: m - 1]
        power = label.ell[m - 2]
        eps = label.epsilon[m - 1]
        var = o[m - 1]
        gam = gamma(params, done)
        base = params.mu_of(var) + Fraction(1, 2) + eps
        nrm = norm_square_poly(done, n)
        total = Polynomial.zero(n)
        for j in range(power + 1):
            coeff = (
                Fraction((-1) ** j)
                * falling_factorial(power, j)
                * falling_factorial(deg + power - 1 + gam, j)
                / (factorial(j) * raising_factorial(base, j))
            )
            mono = [0] * n
            mono[var - 1] = 2 * j + eps
            total = total + Polynomial.monomial(n, mono, coeff) * nrm ** (power - j) * h
        h = total
        deg += 2 * power + eps
    return h


def casimir_eigenvalue(params: ParameterSet, label: HarmonicLabel, m: int) -> Fraction:
    """Eigenvalue of the prefix invariant C over the first m order variables.

    The realized element of the label is an eigenfunction with eigenvalue
    (d + g)(d + g - 2)/4, where d is the label's partial degree at step m
    and g the gamma constant of the prefix subset.
    """
    if not 2 <= m <= label.n:
        raise IndexError(f"prefix length {m} out of range 2..{label.n}")
    d = label.partial_degree(m)
    gam = gamma(params, label.prefix(m))
    return (d + gam) * (d + gam - 2) / 4


def fischer_decompose(
    params: ParameterSet, p: Polynomial
) -> list[tuple[int, Polynomial]]:
    """Split a homogeneous p into norm-power times harmonic components.

    Returns the pairs (j, h) with p equal to the sum of |x|^(2j) h over
    the returned entries, each h harmonic of degree deg(p) - 2j; zero
    components are omitted.  The splitting is found by one exact linear
    solve against the realized harmonic bases of the admissible degrees.
    """
    n = params.n
    if p.n != n:
        raise ValueError("dimension mismatch")
    if not p.is_homogeneous():
        raise ValueError("only homogeneous polynomials decompose")
    if p.is_zero:
        return []
    k = p.degree()
    full = tuple(range(1, n + 1))
    nrm = norm_square_poly(full, n)

    span: list[Polynomial] = []
    tags: list[tuple[int, Polynomial]] = []
    for j in range(k // 2 + 1):
        nrm_pow = nrm**j
        for element in build_basis_tower(params, k - 2 * j):
            span.append(nrm_pow * element.poly)
            tags.append((j, element.poly))

    coeffs = solve_in_span([q.terms for q in span], [p.terms])

    components: dict[int, Polynomial] = {}
    for t in coeffs.sparse_rows[0]:
        j, harmonic = tags[t]
        components[j] = components.get(j, Polynomial.zero(n)) + harmonic.scale(coeffs.at(0, t))
    return [(j, components[j]) for j in sorted(components) if not components[j].is_zero]


def verify_power_action(
    params: ParameterSet, h: Polynomial, ell: int, j: int, k: int
) -> Report:
    """Check the Laplacian-power action on norm multiples of a harmonic.

    For h harmonic of degree ell and j <= k, the j-th Laplacian power of
    |x|^(2k) h equals 4^j (k)_j (ell+k-1+g)_j |x|^(2(k-j)) h with falling
    factorials and g the gamma constant of the full variable set.
    """
    n = params.n
    if j > k or j < 0:
        raise ValueError("need 0 <= j <= k")
    full = tuple(range(1, n + 1))
    lap = laplace(DunklOperators(params), full)
    if not h.is_homogeneous() or (not h.is_zero and h.degree() != ell):
        raise ValueError(f"h is not homogeneous of degree {ell}")
    if not lap(h).is_zero:
        raise ValueError("h is not harmonic")
    report = Report()
    _add_power_action(report, (ell, j, k), lap, norm_square_poly(full, n), gamma(params, full), h)
    return report


def _add_power_action(
    report: Report, index: tuple, lap: LinearOperator, nrm: Polynomial, gam: Fraction,
    h: Polynomial,
) -> None:
    """Record the power action at index (ell, j, k, ...) on |x|^(2k) h.

    A non-harmonic h fails with its Laplacian as the witness.
    """
    ell, j, k = index[:3]
    lhs = nrm**k * h
    for _ in range(j):
        lhs = lap(lhs)
    factor = (
        Fraction(4) ** j
        * falling_factorial(k, j)
        * falling_factorial(ell + k - 1 + gam, j)
    )
    rhs = (nrm ** (k - j) * h).scale(factor)
    report.add("laplacian-power-action", index, ell + 2 * k, first_witness([lap(h), lhs - rhs]))


def _dunkl_laplacian(ops: DunklOperators, h: Polynomial) -> Polynomial:
    """The sum of T_i(T_i(h)) over all i: the harmonicity oracle of verify ck,
    which shares no code with the closed-form rule of operators.laplace."""
    total = Polynomial.zero(ops.n)
    for t in ops.dunkl.values():
        total = total + t(t(h))
    return total


def verify_tower(params: ParameterSet, kmax: int) -> Report:
    """Tower bases are harmonic, correctly sized, and linearly independent."""
    n = params.n
    ops = DunklOperators(params)
    report = Report()
    for k in range(kmax + 1):
        elements = build_basis_tower(params, k)
        witness = first_witness(_dunkl_laplacian(ops, el.poly) for el in elements)
        report.add("tower-element-harmonic", (), k, witness)

        expected = harmonic_space_dim(n, k)
        count = len(elements)
        report.add("tower-count", (), k, None if count == expected else f"{count} != {expected}")

        rank = matrix_rank([el.poly.terms for el in elements])
        witness = None if rank == count else f"rank {rank} < {count}"
        report.add("tower-linear-independence", (), k, witness)
    return report


def verify_extension_restrictions(params: ParameterSet, kmax: int) -> Report:
    """Injectivity witnesses of the extension maps, on every monomial input.

    The even extension restricts back to its input at x_new = 0; the odd
    extension does so after one derivative in the new variable; both
    extensions land in the kernel of the full Laplacian, sum_i T_i T_i.
    """
    n = params.n
    if n < 2:
        raise ValueError("extensions need at least two variables")
    new = n
    ops = DunklOperators(params)
    lap_done = laplace(ops, range(1, n))
    report = Report()
    for k in range(kmax + 1):
        even_bad = odd_bad = harm_bad = None
        for exps in monomial_basis(n - 1, k):
            terms = {exps + (0,): 1}
            p = Polynomial.monomial(n, exps + (0,))
            ext0 = _polynomial(n, *_lift(params, lap_done, new, 0, terms, 1))
            ext1 = _polynomial(n, *_lift(params, lap_done, new, 1, terms, 1))
            if even_bad is None and ext0.restrict_to_zero(new) != p:
                even_bad = p.to_text()
            if odd_bad is None and ext1.partial_derivative(new).restrict_to_zero(new) != p:
                odd_bad = p.to_text()
            if harm_bad is None and not (
                _dunkl_laplacian(ops, ext0).is_zero and _dunkl_laplacian(ops, ext1).is_zero
            ):
                harm_bad = p.to_text()
        report.add("extension-restriction-even", (), k, even_bad)
        report.add("extension-derivative-restriction-odd", (), k, odd_bad)
        report.add("extension-harmonic", (), k, harm_bad)
    return report


def verify_closed_form(params: ParameterSet, kmax: int) -> Report:
    """The product closed form equals the tower element, label by label."""
    report = Report()
    for k in range(kmax + 1):
        witness = None
        bad_label: tuple = ()
        for el in build_basis_tower(params, k):
            closed = jacobi_closed_form(params, el.label)
            if el.poly != closed:
                witness = (closed - el.poly).to_text()
                bad_label = (el.label.epsilon, el.label.ell)
                break
        report.add("closed-form-matches-tower", bad_label, k, witness)
    return report


def verify_spectral_action(
    params: ParameterSet, kmax: int, order: Sequence[int] | None = None
) -> Report:
    """Prefix invariants act on every tower element by the closed eigenvalue."""
    n = params.n
    order = tuple(order) if order is not None else tuple(range(1, n + 1))
    ops = DunklOperators(params)
    invariants = {m: casimir(ops, order[:m]) for m in range(2, n + 1)}
    report = Report()
    for k in range(kmax + 1):
        for el in build_basis_tower(params, k, order):
            for m in range(2, n + 1):
                value = casimir_eigenvalue(params, el.label, m)
                witness = first_witness([invariants[m](el.poly) - el.poly.scale(value)])
                report.add("spectral-action", (m, el.label.epsilon, el.label.ell), k, witness)
    return report


def verify_power_action_sweep(
    params: ParameterSet, ell_max: int, k_max: int
) -> Report:
    """Laplacian-power identity over all tower harmonics and admissible j, k.

    A tower element that is not harmonic fails every check it enters, with
    its Laplacian as the witness.
    """
    full = tuple(range(1, params.n + 1))
    lap = laplace(DunklOperators(params), full)
    nrm = norm_square_poly(full, params.n)
    gam = gamma(params, full)
    report = Report()
    for ell in range(ell_max + 1):
        for t, el in enumerate(build_basis_tower(params, ell)):
            for k in range(k_max + 1):
                for j in range(k + 1):
                    _add_power_action(report, (ell, j, k, t), lap, nrm, gam, el.poly)
    return report


def basis_to_json_obj(elements: Iterable[HarmonicBasisElement]) -> list[dict]:
    return [
        {
            "label": el.label.to_json_obj(),
            "degree": el.label.degree,
            "polynomial": el.poly.to_json_obj(),
        }
        for el in elements
    ]


def dimension_table(n: int, kmax: int) -> list[tuple[int, int, int]]:
    """Rows (n, k, dim of the degree-k harmonics) for k = 0..kmax."""
    return [(n, k, harmonic_space_dim(n, k)) for k in range(kmax + 1)]
