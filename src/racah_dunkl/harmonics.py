"""Harmonic bases of the deformed Laplacian via one-variable extensions.

A degree-k harmonic in m variables lifts to a harmonic in m+1 variables
of prescribed parity in the new variable, by a finite alternating sum
over its Laplacian powers.  Iterating the lift from the constants,
interleaved with multiplications by squared norms, gives a basis of the
degree-k harmonics in n variables (the tower), whose elements are joint
eigenfunctions of the prefix invariants with eigenvalues in closed form
(casimir_eigenvalue).  The lifts run on integer numerators over one
denominator, so each element is its label and a Polynomial wrapping
those as they are.  The ck, lemma3 and eigen checks (verify_ck,
verify_power_action_sweep, verify_spectral_action) put the elements of
degrees 0..kmax as the columns of one matrix H on a relations.DegreeSum,
each tower built once, and state each identity as one product sum on H,
read per column.  verify_ck also compares H with the closed forms J of
the same labels (_closed_forms: terminating hypergeometric products,
formed without any lift) and checks the lifts of every monomial by the
same product sums.

Labels are positional: for a label with variable order (o_1, .., o_n),
epsilon[m] is the parity used when variable o_{m+1} is adjoined and
ell[m] is the squared-norm power inserted after that step.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial, gcd, lcm
from typing import Iterable, Iterator, Sequence

from .linalg import RationalMatrix, matrix_rank, product_sum
from .operators import (
    DunklOperators,
    LinearOperator,
    casimir,
    gamma,
    laplace,
    norm_square_mul,
)
from .poly import (
    Frozen,
    Monomial,
    ParameterSet,
    Polynomial,
    _set,
    exponent_columns,
    monomial_basis,
    poly_space_dim,
)
from .relations import DegreeSum
from .report import Report


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


def harmonic_space_dim(n: int, k: int) -> int:
    """Dimension of the degree-k harmonics in n variables."""
    return poly_space_dim(n - 1, k) + poly_space_dim(n - 1, k - 1)


class HarmonicLabel(Frozen):
    """Index data of one tower basis element.

    order is the variable sequence of the construction (innermost first),
    epsilon the parities per step, ell the squared-norm powers inserted
    between consecutive steps.  Each is stored as a tuple.
    """

    __slots__ = ("order", "epsilon", "ell")

    def __init__(self, order: Iterable[int], epsilon: Iterable[int], ell: Iterable[int]) -> None:
        order, epsilon, ell = tuple(order), tuple(epsilon), tuple(ell)
        n = len(order)
        if sorted(order) != list(range(1, n + 1)):
            raise ValueError(f"order {order} is not a permutation of 1..{n}")
        if len(epsilon) != n or any(e not in (0, 1) for e in epsilon):
            raise ValueError(f"epsilon {epsilon} must be a 0/1 vector of length {n}")
        if len(ell) != n - 1 or any(l < 0 for l in ell):
            raise ValueError(f"ell {ell} must be {n - 1} non-negative integers")
        super().__init__(order, epsilon, ell)

    @classmethod
    def _trusted(
        cls, order: tuple[int, ...], epsilon: tuple[int, ...], ell: tuple[int, ...]
    ) -> "HarmonicLabel":
        """Wrap the three tuples as they are, without the checks.

        The caller guarantees a label that __init__ accepts: order a
        permutation of 1..n, epsilon n bits and ell n - 1 non-negative ints.
        """
        self = object.__new__(cls)
        _set(self, "order", order)
        _set(self, "epsilon", epsilon)
        _set(self, "ell", ell)
        return self

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


class HarmonicBasisElement(Frozen):
    """One realized tower element: its label and its polynomial."""

    __slots__ = ("label", "poly")

    def __init__(self, label: HarmonicLabel, poly: Polynomial) -> None:
        _set(self, "label", label)
        _set(self, "poly", poly)


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
    Requires p homogeneous and supported on vars_done.  p's numerators
    and denominator go to _lift, with the DunklOperators of params and
    operators.laplace over vars_done, as they are, and so does the result.
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
    ops = DunklOperators(params)
    lap = laplace(ops, vars_done) if vars_done else None
    return Polynomial._trusted(n, *_lift(ops, lap, new_var, parity, p.terms, p.den))


def _lift(
    ops: DunklOperators,
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
    integer Q_j = (L Lap)^j terms.  The j-th step divides by 4j(c + j - 1),
    c as in ck_extend, which is T_new^2's coefficient at the exponent
    2j + parity; it is read from the full Laplacian's move at x_new, which
    holds M times it, M = ops.laplacian.den, so no mu is read.  With
    L = g s and M = g t, g = gcd(L, M), f_j = s times that move's integer
    and N_j = f_1 ... f_j, the j-th term is (-t)^j Q_j / (den N_j): all
    terms share the denominator den * N_J, J the last nonzero power, and
    the j-th term's numerators are (-t)^j (N_J / N_j) Q_j.  Every
    operators.laplace over ops is over M, so s = t = 1 and the L^j of Q_j
    cancels.
    """
    pos = new_var - 1
    _, factor, _ = ops.laplacian.moves[pos]

    powers, s, t = [terms], 1, 1
    if lap is not None:
        g = gcd(lap.den, ops.laplacian.den)
        s, t = lap.den // g, ops.laplacian.den // g
        q = lap.apply(terms)
        while q:
            powers.append(q)
            q = lap.apply(q)
    # scales[j] = (-t)^j N_J / N_j, built from j = J down
    scales = [0] * len(powers)
    ratio = 1
    for j in range(len(powers) - 1, -1, -1):
        scales[j] = (-t) ** j * ratio
        if j:
            ratio *= s * factor(2 * j + parity)

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
    matrix built on these labels.  The order (default 1..n) is checked
    once, and ValueError is raised unless it is a permutation of 1..n,
    even when k yields no label; the labels are then built through
    HarmonicLabel._trusted, since every parity and norm-power vector
    enumerated here is well formed.
    """
    order = tuple(order) if order is not None else tuple(range(1, n + 1))
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"order {order} is not a permutation of 1..{n}")
    labels: list[HarmonicLabel] = []
    for eps_rev in product((0, 1), repeat=n):
        rem = k - sum(eps_rev)
        if rem < 0 or rem % 2:
            continue
        epsilon = tuple(reversed(eps_rev))
        for ell_rev in _compositions(rem // 2, n - 1):
            labels.append(HarmonicLabel._trusted(order, epsilon, tuple(reversed(ell_rev))))
    return labels


def build_basis_tower(
    params: ParameterSet, k: int, order: Sequence[int] | None = None
) -> list[HarmonicBasisElement]:
    """The realized harmonic basis of degree k for the given variable order.

    Each label is realized by the alternating tower of extensions and
    norm multiplications, in the order of enumerate_labels, which raises
    ValueError unless the order is a permutation of 1..n.  One
    DunklOperators serves every lift: its full Laplacian gives each
    step's factors, and its restrictions (operators.laplace), one per
    prefix of the order, with one operators.norm_square_mul per prefix,
    are shared by all labels, each an integer move in closed form (no
    T_i is applied) with its kept images.  The intermediate harmonic of
    each (epsilon, ell) prefix is realized only once.  The intermediates
    are integer numerators over one positive denominator: a norm
    multiplication (den 1) keeps the denominator and adds integers, and
    each _lift divides out its content.  Each element's polynomial wraps
    the last lift's numerators and denominator as they are.
    """
    if k < 0:
        raise ValueError("degree must be non-negative")
    n = params.n
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
            h, den = steps[key] = _lift(ops, laps[m - 1], o[m - 1], eps[m - 1], h, den)
        elements.append(HarmonicBasisElement(label, Polynomial._trusted(n, h, den)))
    return elements


def _closed_forms(params: ParameterSet, labels: Sequence[HarmonicLabel]) -> list[Polynomial]:
    """The closed-form product expansion of the tower element of each label.

    The labels share one variable order.  The first step gives x_v^epsilon[0], v the first order variable.  Step
    m >= 2 turns the product h so far, of degree d over the prefix A of
    the first m - 1 order variables, into the terminating hypergeometric
    sum_j c_j x_v^(2j+eps) |x_A|^(2(l-j)) h, v the m-th variable, eps its
    parity and l = ell[m-2], with c_j = (-1)^j (l)_j (d + l - 1 + gamma_A)_j
    / (j! (mu_v + 1/2 + eps)^(j)), (.)_j the falling and (.)^(j) the
    raising factorial.  Each product runs on integer numerators over one
    denominator: the norm powers by operators.norm_square_mul, the powers
    of x_v placed as exponents, since h does not hold x_v, and the c_j
    over the lcm of their denominators.  As in build_basis_tower, the
    product after each (epsilon[:m], ell[:m-1]) prefix is formed once; no
    lift and no Laplacian is used, so it must coincide with the tower
    element of the same label independently.
    """
    if not labels:
        return []
    n, o = params.n, labels[0].order
    norms = [None] + [norm_square_mul(o[:m], n) for m in range(1, n)]
    gammas = [None] + [gamma(params, o[:m]) for m in range(1, n)]
    steps: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[IntegerTerms, int]] = {}
    closed = []
    for label in labels:
        eps, ell = label.epsilon, label.ell
        h, den = {(0,) * n: 1}, 1
        for m in range(1, n + 1):
            key = (eps[:m], ell[: m - 1])
            if key not in steps:
                coeffs = [Fraction(1)]
                if m > 1:
                    l = ell[m - 2]
                    top = label.partial_degree(m - 1) + l - 1 + gammas[m - 1]
                    base = params.mu_of(o[m - 1]) + Fraction(1, 2) + eps[m - 1]
                    coeffs = [
                        (-1) ** j * falling_factorial(l, j) * falling_factorial(top, j)
                        / (factorial(j) * raising_factorial(base, j))
                        for j in range(l + 1)
                    ]
                powers = [h]  # |x_A|^(2i) h
                for _ in coeffs[1:]:
                    powers.append(norms[m - 1].apply(powers[-1]))
                scale = lcm(*(c.denominator for c in coeffs))
                pos, out = o[m - 1] - 1, {}
                for j, (c, q) in enumerate(zip(coeffs, reversed(powers))):
                    num, power = c.numerator * (scale // c.denominator), (2 * j + eps[m - 1],)
                    for exps, x in q.items():
                        out[exps[:pos] + power + exps[pos + 1:]] = num * x
                g = gcd(den * scale, *out.values())
                steps[key] = {exps: x // g for exps, x in out.items()}, den * scale // g
            h, den = steps[key]
        closed.append(Polynomial._trusted(n, h, den))
    return closed


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


def _first_per_degree(kmax: int, degrees: Iterable[int], found: Iterable) -> list:
    """Per degree 0..kmax, the first item of found at that degree that is not None."""
    first = [None] * (kmax + 1)
    for k, x in zip(degrees, found):
        if first[k] is None:
            first[k] = x
    return first


def verify_ck(params: ParameterSet, kmax: int) -> Report:
    """The Cauchy-Kovalevskaia construction of the harmonics, on degrees 0..kmax.

    The towers of degrees 0..kmax, each built once, are the columns of H
    on the ambient monomials of degrees 0..kmax + 1; the even and odd
    lifts into x_n of every monomial p in x_1..x_{n-1} of degree <= kmax
    are the columns of E0 and E1, and the inputs p those of P.  Each
    identity is one product sum, read per column:

    * harmonicity: sum_i T_i T_i on [H | E0 | E1], the T_i materialized
      from their own moves, so it shares no code with operators.laplace;
    * restrictions: R0 E0 - P and R0 d E1 - P, R0 setting x_n = 0 and d
      the derivative in x_n, each witnessed by its first failing input p;
    * closed form: J - H, J the terminating hypergeometric products of
      _closed_forms, which never lift; a failing element's record carries
      its (epsilon, ell).

    Each relation is recorded once per degree, witnessed by its first
    failing column: the tower records for every degree (harmonicity,
    count, linear independence), then the extension records (even
    restriction, odd derivative restriction, harmonicity of the lifts),
    then the closed form.
    """
    n = params.n
    if n < 2:
        raise ValueError("extensions need at least two variables")
    top = kmax + 1  # the odd lift of a degree-kmax input has degree kmax + 1
    space = DegreeSum(n, top)
    ops = DunklOperators(params)
    towers = [build_basis_tower(params, k) for k in range(kmax + 1)]
    elements = [el for tower in towers for el in tower]
    polys = [el.poly for el in elements]
    degrees = [el.label.degree for el in elements]
    lap = laplace(ops, range(1, n))
    inputs, input_degrees = [], []
    for k in range(kmax + 1):
        for exps in monomial_basis(n - 1, k):
            inputs.append(Polynomial.monomial(n, exps + (0,)))
            input_degrees.append(k)
    evens, odds = (
        [Polynomial._trusted(n, *_lift(ops, lap, n, parity, p.terms, 1)) for p in inputs]
        for parity in (0, 1)
    )

    def first_failing_input(found) -> list[str | None]:
        """Per degree, the first input whose column in found is not None, as text."""
        texts = (p.to_text() if bad else None for p, bad in zip(inputs, found))
        return _first_per_degree(kmax, input_degrees, texts)

    squares = []
    h_lifts = space.columns(polys + evens + odds)
    for i in range(1, n + 1):
        t = space.materialize(ops.dunkl[i])
        squares.append((1, (space.lead(t, top - 2, top - 1), t, h_lifts)))
    laplacians = space.column_witnesses(product_sum(squares))
    harmonic = _first_per_degree(kmax, degrees, laplacians[: len(polys)])
    lifts, m = laplacians[len(polys):], len(inputs)
    lifted = first_failing_input(a or b for a, b in zip(lifts[:m], lifts[m:]))

    # R0 sets x_n = 0: a 0/1 mask on the rows of degree <= kmax, where both restrictions land
    x_n = [e for k in range(kmax + 1) for e in exponent_columns(n, k)[n - 1]]
    kept = [{i: 1} if not e else {} for i, e in enumerate(x_n)]
    r0_top, r0 = (RationalMatrix.from_sparse(kept, 1, space.ends[c + 1]) for c in (top, kmax))
    d = space.materialize(LinearOperator.moving([(n - 1, lambda e: e)], f"d/dx{n}", -1))
    p = DegreeSum(n, kmax).columns(inputs)
    even, odd = (
        first_failing_input(space.column_witnesses(product_sum(terms)))
        for terms in (
            [(1, (r0_top, space.columns(evens))), (-1, (p,))],
            [(1, (r0, d, space.columns(odds))), (-1, (p,))],
        )
    )

    closed = space.columns(_closed_forms(params, [el.label for el in elements]))
    diff = product_sum([(1, (closed,)), (-1, (space.columns(polys),))])
    mismatches = [
        ((el.label.epsilon, el.label.ell), witness) if witness else None
        for el, witness in zip(elements, space.column_witnesses(diff))
    ]

    report = Report()
    for k, tower in enumerate(towers):
        report.add("tower-element-harmonic", (), k, harmonic[k])
        expected = harmonic_space_dim(n, k)
        count = len(tower)
        report.add("tower-count", (), k, None if count == expected else f"{count} != {expected}")
        rank = matrix_rank([el.poly.terms for el in tower])
        witness = None if rank == count else f"rank {rank} < {count}"
        report.add("tower-linear-independence", (), k, witness)
    for k in range(kmax + 1):
        report.add("extension-restriction-even", (), k, even[k])
        report.add("extension-derivative-restriction-odd", (), k, odd[k])
        report.add("extension-harmonic", (), k, lifted[k])
    for k, found in enumerate(_first_per_degree(kmax, degrees, mismatches)):
        label, witness = found or ((), None)
        report.add("closed-form-matches-tower", label, k, witness)
    return report


def verify_spectral_action(
    params: ParameterSet, kmax: int, order: Sequence[int] | None = None
) -> Report:
    """Prefix invariants act on every tower element by the closed eigenvalue.

    With the towers of degrees <= kmax the columns of H, each prefix
    invariant C_m is one product sum C_m H - H Lambda_m, Lambda_m the
    diagonal of the closed eigenvalues, read per element.
    """
    n = params.n
    order = tuple(order) if order is not None else tuple(range(1, n + 1))
    ops = DunklOperators(params)
    invariants = {m: casimir(ops, order[:m]) for m in range(2, n + 1)}
    space = DegreeSum(n, kmax)
    elements = [el for k in space.degrees for el in build_basis_tower(params, k, order)]
    labels, h = [el.label for el in elements], space.columns([el.poly for el in elements])
    witnesses = []
    for m, c in invariants.items():
        values = RationalMatrix.diagonal([casimir_eigenvalue(params, label, m) for label in labels])
        diff = product_sum([(1, (space.materialize(c), h)), (-1, (h, values))])
        witnesses.append(space.column_witnesses(diff))
    report = Report()
    for label, column in zip(labels, zip(*witnesses)):
        for m, witness in zip(invariants, column):
            report.add("spectral-action", (m, label.epsilon, label.ell), label.degree, witness)
    return report


def verify_power_action_sweep(
    params: ParameterSet, ell_max: int, k_max: int
) -> Report:
    """Laplacian-power identity over all tower harmonics and admissible j, k.

    With the towers of degrees ell <= ell_max the columns of H, each
    0 <= j <= k <= k_max is one product sum Lap^j N^k H - N^(k-j) H D, N
    the multiplication by |x|^2, D = 4^j (k)_j (ell + k - 1 + gamma)_j per
    column.  A non-harmonic element fails every check, witnessed by Lap h.
    """
    n = params.n
    full = tuple(range(1, n + 1))
    space = DegreeSum(n, ell_max, ell_max + 2 * k_max)
    towers = [build_basis_tower(params, ell) for ell in space.degrees]
    h = space.columns([el.poly for elements in towers for el in elements])
    cols = [(ell, t) for ell, elements in enumerate(towers) for t in range(len(elements))]
    ops = DunklOperators(params)
    lap, nrm = space.materialize(laplace(ops, full)), space.materialize(norm_square_mul(full, n))
    base = gamma(params, full) - 1  # ell + k - 1 + gamma is base + ell + k
    lap_h = space.column_witnesses(space.lead(lap, ell_max - 2, ell_max) * h)
    powers = [h]  # N^k H, with rows of degree <= ell_max + 2k
    for top in range(ell_max + 2, ell_max + 2 * k_max + 1, 2):
        powers.append(space.lead(nrm, top, top - 2) * powers[-1])
    witnesses = {}
    for k, lhs in enumerate(powers):
        for j in range(k + 1):
            top = ell_max + 2 * (k - j)
            if j:  # Lap^j N^k H
                lhs = space.lead(lap, top, top + 2) * lhs
            d = RationalMatrix.diagonal([falling_factorial(base + ell + k, j) for ell, _ in cols])
            terms = [(1, (lhs,)), (-(4**j) * falling_factorial(k, j), (powers[k - j], d))]
            witnesses[j, k] = space.column_witnesses(product_sum(terms))
    report = Report()
    for c, (ell, t) in enumerate(cols):
        for (j, k), found in witnesses.items():
            report.add("laplacian-power-action", (ell, j, k, t), ell + 2 * k, lap_h[c] or found[c])
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
