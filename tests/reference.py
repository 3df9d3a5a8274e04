"""Reference routines that the tests check the package against.

No command or sweep of the package runs these; each is either an
independent second route to something the package computes, or a piece
of one:

* ``from_text`` parses the text that ``Polynomial.to_text`` writes, so a
  test can state a witness or an expected polynomial as text;
* ``reflect`` and ``divide_by_coordinate`` build the textbook Dunkl
  operator T_i p = d_i p + mu_i (p - r_i p) / x_i, with
  ``partial_derivative``; ``restrict_to_zero`` sets x_i = 0,
  ``polynomial_power`` takes p^k by repeated squaring and
  ``norm_square_poly`` is |x_A|^2, each by Polynomial arithmetic;
* ``dunkl_rule``, ``coordinate_rule``, ``laplace_rule``,
  ``norm_square_rule``, ``a0_rule`` and ``casimir_diagonal_rule`` are the
  primitives as closed-form rules on one monomial (a ``Rule``: the image
  function with its descriptor, shift and den), the form the package
  built them in before it read them from coordinate data;
  ``Rule.apply`` is a rule's linear extension and ``rule_matrix`` its
  matrix, filled by the rule loop that ``materialize_on_monomials`` ran
  before every operator was coordinate data or a composite;
* ``fischer_decompose`` splits a polynomial into norm powers times
  harmonics by one solve against the tower bases;
* ``module_basis`` and ``rank_one_overlap`` check, at n = 3, that the
  connection coefficients between two chain orders follow the discrete
  three-term recurrence;
* ``connected_by_paths`` checks that the recoupling graph is connected by
  walking ``path`` from one chain to every other;
* ``per_degree_su11`` and ``per_degree_laplacian_commute`` run the su(1,1)
  and [C_A, Lap] sweeps degree by degree, on the rectangular matrices of
  one degree each, with ``one_block_witness``;
* ``block_diagonal`` puts matrices on one diagonal over the lcm of their
  dens;
* ``reference_product_sum`` is ``linalg.product_sum`` as it was written
  before its row walk read only stored entries: every row, empty or not,
  is tested in Python, and every row is read through ``.items()``;
* ``reference_tower``, ``reference_extension_restrictions``,
  ``reference_closed_form``, ``reference_spectral_action`` and
  ``reference_power_action_sweep`` are the ck, eigen and lemma3 checks as
  they were written before they became product sums on one tower matrix:
  each applies the operators to every element's Polynomial and records
  its first nonzero discrepancy (``first_witness``), with the Dunkl
  Laplacian sum_i T_i(T_i(h)) (``dunkl_laplacian_of``), one power-action
  check at a time (``add_power_action``) and the closed form of one label
  at a time (``jacobi_closed_form``).  ``reference_ck`` concatenates the
  three ck reports, as ``verify ck`` once did.  They look up
  ``build_basis_tower``, ``casimir_eigenvalue`` and ``raising_factorial``
  here, so a test patches both routes;
* ``build_parser`` is the argparse parser of the command line, as it was
  before ``cli.parse_args`` read one command table, so a test can compare
  the namespaces and the parse errors of both.
"""

from __future__ import annotations

import argparse
import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial, lcm
from typing import Callable, Iterable, NamedTuple, Sequence

from racah_dunkl import (
    Chain,
    ConnectionMatrix,
    DunklOperators,
    HarmonicBasisElement,
    HarmonicLabel,
    ParameterSet,
    Polynomial,
    RacahParameters,
    RationalMatrix,
    SpectralData,
    build_basis_tower,
    casimir,
    casimir_eigenvalue,
    harmonic_space_dim,
    laplace,
    materialize,
    materialize_on_monomials,
    monomial_basis,
    norm_square_mul,
    parity_blocks,
    path,
    racah_parameters,
    racah_recurrence_polys,
    solve_in_span,
    spectral_data,
)
from racah_dunkl import connection, relations
from racah_dunkl.cli import (
    VERIFY_SUITES,
    cmd_basis,
    cmd_connect,
    cmd_graph,
    cmd_racah,
    cmd_spectrum,
    cmd_verify,
)
from racah_dunkl.harmonics import _lift, falling_factorial, raising_factorial
from racah_dunkl.linalg import Term, matrix_rank, product_sum
from racah_dunkl.operators import ImageEscapesSpan, LinearOperator, gamma, normalize_subset
from racah_dunkl.poly import monomial_positions
from racah_dunkl.report import Report


# -- polynomials --------------------------------------------------------------


def from_text(n: int, text: str) -> Polynomial:
    """The polynomial written as ``to_text`` writes it, e.g. ``1/2 * x1^2 x2 + -3``."""
    text = text.strip()
    if text == "0":
        return Polynomial.zero(n)
    terms: dict[tuple[int, ...], Fraction] = {}
    for raw in text.split("+"):
        token = raw.strip()
        if not token:
            raise ValueError(f"empty term in {text!r}")
        exps = [0] * n
        if "*" in token:
            coeff_part, vars_part = token.split("*", 1)
            coeff = Fraction(coeff_part.strip())
            for factor in vars_part.split():
                name, _, power = factor.partition("^")
                if not name.startswith("x"):
                    raise ValueError(f"bad variable token {factor!r}")
                idx = int(name[1:])
                if not 1 <= idx <= n:
                    raise ValueError(f"variable index {idx} out of range 1..{n}")
                exps[idx - 1] += int(power) if power else 1
        else:
            coeff = Fraction(token)
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return Polynomial(n, terms)


class NotDivisible(ValueError):
    """Raised when a coordinate division would leave the polynomial ring."""


def _position(p: Polynomial, i: int) -> int:
    if not 1 <= i <= p.n:
        raise IndexError(f"variable index {i} out of range 1..{p.n}")
    return i - 1


def reflect(p: Polynomial, i: int) -> Polynomial:
    """The sign flip x_i -> -x_i: negates the terms odd in x_i."""
    pos = _position(p, i)
    return Polynomial(
        p.n, {e: Fraction(-x if e[pos] % 2 else x, p.den) for e, x in p.terms.items()}
    )


def divide_by_coordinate(p: Polynomial, i: int) -> Polynomial:
    """The exact quotient by x_i; every term must have a positive exponent in x_i."""
    pos = _position(p, i)
    out = {}
    for exps, x in p.terms.items():
        e = exps[pos]
        if e == 0:
            raise NotDivisible(f"term with exponents {exps} has no factor x{i}")
        out[exps[:pos] + (e - 1,) + exps[pos + 1:]] = Fraction(x, p.den)
    return Polynomial(p.n, out)


def polynomial_power(p: Polynomial, k: int) -> Polynomial:
    """p to the k-th power, by repeated squaring."""
    if k < 0:
        raise ValueError("negative powers are not polynomials")
    result = Polynomial.one(p.n)
    base = p
    while k:
        if k & 1:
            result = result * base
        base_needed = k >> 1
        if base_needed:
            base = base * base
        k = base_needed
    return result


def partial_derivative(p: Polynomial, i: int) -> Polynomial:
    """Formal partial derivative with respect to x_i."""
    pos = _position(p, i)
    out = {
        exps[:pos] + (exps[pos] - 1,) + exps[pos + 1:]: Fraction(x * exps[pos], p.den)
        for exps, x in p.terms.items()
        if exps[pos]
    }
    return Polynomial(p.n, out)


def restrict_to_zero(p: Polynomial, i: int) -> Polynomial:
    """Set x_i = 0: keep only terms with exponent 0 in x_i."""
    pos = _position(p, i)
    return Polynomial(p.n, {e: Fraction(x, p.den) for e, x in p.terms.items() if e[pos] == 0})


def norm_square_poly(A, n: int) -> Polynomial:
    """The squared norm over A, sum of x_i^2 for i in A."""
    return norm_square_mul(A, n)(Polynomial.one(n))


# -- the primitives as closed-form rules ------------------------------------------


class Rule(NamedTuple):
    """A primitive given by image(exps), den times the image of x^exps as nonzero integers."""

    image: Callable[[tuple[int, ...]], dict[tuple[int, ...], int]]
    descriptor: str
    shift: int
    den: int = 1

    def apply(self, terms) -> dict[tuple[int, ...], int]:
        """den times the rule on integer coefficients, without cancelled terms."""
        out: dict[tuple[int, ...], int] = {}
        for exps, x in terms.items():
            for e, y in self.image(exps).items():
                out[e] = out.get(e, 0) + x * y
        return {e: x for e, x in out.items() if x}


def rule_matrix(rule: Rule, n: int, k: int, kmax: int) -> RationalMatrix:
    """The rule's matrix on degrees k..kmax, from its image of each monomial.

    k is first raised to min(0, -shift), as materialize_on_monomials does;
    each image is looked up in the positions of its own degree d + shift
    alone, and a term outside them raises ImageEscapesSpan.
    """
    k = max(k, min(0, -rule.shift))
    rows: list[dict[int, int]] = []
    ncols = 0
    for d in range(k, kmax + 1):
        basis, block = monomial_basis(n, d), len(rows)
        position = monomial_positions(n, d + rule.shift)
        rows.extend({} for _ in position)
        for j, exps in enumerate(basis, ncols):
            for e, x in rule.image(exps).items():
                i = position.get(e)
                if i is None:
                    raise ImageEscapesSpan(
                        f"{rule.descriptor} maps homogeneous degree {d} to degree {sum(e)},"
                        f" not to its declared degree {d + rule.shift}"
                    )
                rows[block + i][j] = x
        ncols += len(basis)
    return RationalMatrix.from_sparse(rows, rule.den, ncols).normalized()


def _shift(exps, pos, by):
    return exps[:pos] + (exps[pos] + by,) + exps[pos + 1:]


def _name(subset):
    return ",".join(map(str, subset))


def dunkl_rule(params: ParameterSet, i: int) -> Rule:
    """T_i: with 2 mu_i = a / b, b T_i x^e is (e_i b + a) or e_i b times x^(e - e_i)."""
    pos = i - 1
    two_mu = 2 * params.mu_of(i)
    a, b = two_mu.numerator, two_mu.denominator

    def image(exps):
        e = exps[pos]
        if e == 0:
            return {}
        return {_shift(exps, pos, -1): e * b + a if e % 2 else e * b}

    return Rule(image, f"T{i}", -1, b)


def coordinate_rule(i: int) -> Rule:
    """Multiplication by the coordinate x_i."""
    pos = i - 1
    return Rule(lambda exps: {_shift(exps, pos, 1): 1}, f"x{i}", 1)


def laplace_rule(params: ParameterSet, A) -> Rule:
    """Lap_A over L, the lcm of the b over A: (odd * b + a) * even * (L / b) per T_i^2."""
    subset = normalize_subset(A, params.n)
    two_mu = [(i - 1, 2 * params.mu_of(i)) for i in subset]
    den = lcm(*(t.denominator for _, t in two_mu))
    factors = [(pos, t.numerator, t.denominator, den // t.denominator) for pos, t in two_mu]

    def image(exps):
        out = {}
        for pos, a, b, s in factors:
            e = exps[pos]
            if e >= 2:
                odd, even = (e, e - 1) if e % 2 else (e - 1, e)
                out[exps[:pos] + (e - 2,) + exps[pos + 1:]] = (odd * b + a) * even * s
        return out

    return Rule(image, f"Lap{{{_name(subset)}}}", -2, den)


def norm_square_rule(A, n: int) -> Rule:
    """Multiplication by the squared norm over A, sum of x_i^2 for i in A."""
    subset = normalize_subset(A, n)
    positions = [i - 1 for i in subset]
    return Rule(
        lambda exps: {_shift(exps, pos, 2): 1 for pos in positions},
        f"|x{{{_name(subset)}}}|^2",
        2,
    )


def _degree_diagonal(subset, value, descriptor, den) -> Rule:
    """The rule scaling each monomial by value(its degree over subset) / den."""
    positions = [i - 1 for i in subset]

    def image(exps):
        v = value(sum([exps[pos] for pos in positions]))
        return {exps: v} if v else {}

    return Rule(image, descriptor, 0, den)


def a0_rule(params: ParameterSet, A) -> Rule:
    """A0 of su11_triple: with gamma_A = g / h, (d h + g) / 2h on A-degree d."""
    subset = normalize_subset(A, params.n)
    gam = gamma(params, subset)
    g, h = gam.numerator, gam.denominator
    return _degree_diagonal(subset, lambda d: d * h + g, f"A0{{{_name(subset)}}}", 2 * h)


def casimir_diagonal_rule(params: ParameterSet, A) -> Rule:
    """D_A, the diagonal part of C_A: (d h + g)(d h + g - 2h) / 4h^2 on A-degree d."""
    subset = normalize_subset(A, params.n)
    gam = gamma(params, subset)
    g, h = gam.numerator, gam.denominator
    return _degree_diagonal(
        subset, lambda d: (d * h + g) * (d * h + g - 2 * h), f"D{{{_name(subset)}}}", 4 * h * h
    )


# -- harmonic decomposition -----------------------------------------------------


def fischer_decompose(params: ParameterSet, p: Polynomial) -> list[tuple[int, Polynomial]]:
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
    nrm = norm_square_poly(tuple(range(1, n + 1)), n)

    span: list[Polynomial] = []
    tags: list[tuple[int, Polynomial]] = []
    for j in range(k // 2 + 1):
        nrm_pow = polynomial_power(nrm, j)
        for element in build_basis_tower(params, k - 2 * j):
            span.append(nrm_pow * element.poly)
            tags.append((j, element.poly))

    coeffs = solve_in_span(span, [p])

    components: dict[int, Polynomial] = {}
    for t in coeffs.sparse_rows[0]:
        j, harmonic = tags[t]
        components[j] = components.get(j, Polynomial.zero(n)) + harmonic.scale(coeffs.at(0, t))
    return [(j, components[j]) for j in sorted(components) if not components[j].is_zero]


# -- the rank-one connection coefficients -----------------------------------------


def module_basis(
    params: ParameterSet,
    epsilon: Sequence[int],
    d3: int,
    order: Sequence[int] = (1, 2, 3),
) -> list[HarmonicBasisElement]:
    """Fixed-parity three-variable module basis, ordered by the first norm power.

    epsilon is indexed by variable.  The module is the parity_blocks
    module of epsilon in the degree-d3 tower of the order, so its labels
    carry the positional parities induced by that order.
    """
    if params.n != 3:
        raise ValueError("module bases are three-variable objects")
    tower = build_basis_tower(params, d3, order)
    idx = parity_blocks(tower).get(tuple(epsilon))
    if idx is None:
        raise ValueError(f"no module for parities {tuple(epsilon)} at degree {d3}")
    return [tower[p] for p in idx]


@dataclass
class RankOneOverlap:
    """Connection data of a fixed-parity module between two chain orders."""

    connection: ConnectionMatrix
    tridiagonal: RationalMatrix
    eigenvalues: list[Fraction]
    spectral: SpectralData
    parameters: RacahParameters
    report: Report


def rank_one_overlap(
    params: ParameterSet,
    epsilon: Sequence[int],
    d3: int,
    order: Sequence[int] = (1, 2, 3),
) -> RankOneOverlap:
    """Expand the rotated-order eigenbasis in the base-order one and verify
    that the expansion is governed by the discrete recurrence.

    With phi the base-order module basis and psi the basis for the order
    rotated one step left, the rows of W solve psi_s = sum_k W[s][k] phi_k.
    The normalization-free recurrence statement is checked exactly: the
    monic ratios v_k(s) = (prod_{t<=k} M[t-1][t]) W[s][k] / W[s][0] with M
    the realized tridiagonal matrix satisfy v_k(s) = H_k(mu_s + tau), and
    the top polynomial H_m annihilates the whole shifted spectrum.

    A degenerate spectrum is reported as a failed distinct-spectrum check
    and the ratio checks are skipped, never silently resolved.  W is
    solved by ``connection.connection_matrix``, looked up at call time.
    """
    order = tuple(order)
    rotated = (order[1], order[2], order[0])
    phi = module_basis(params, epsilon, d3, order)
    psi = module_basis(params, epsilon, d3, rotated)
    m = len(phi)

    w = connection.connection_matrix(params, psi, phi)
    pair_op = casimir(DunklOperators(params), (order[1], order[2]))
    tridiagonal = materialize(pair_op, 3, [el.poly for el in phi])
    mus = [casimir_eigenvalue(params, el.label, 2) for el in psi]

    eff_params = ParameterSet.make([params.mu_of(o) for o in order])
    eff_eps = [epsilon[o - 1] for o in order]
    sd = spectral_data(eff_params, eff_eps, d3)
    rp = racah_parameters(eff_params, eff_eps, d3)
    polys = racah_recurrence_polys(rp, sd, m)

    report = Report()
    repeated = None if len(set(mus)) == len(mus) else f"repeated eigenvalues in {mus}"
    report.add("distinct-spectrum", order, d3, repeated)
    if repeated is None:
        uppers = [tridiagonal.at(t - 1, t) for t in range(1, m)]
        for s in range(m):
            w0 = w.at(s, 0)
            vanishing = f"W[{s}][0] = 0" if w0 == 0 else None
            report.add("leading-connection-coefficient-nonzero", (s,), d3, vanishing)
            if w0 == 0:
                continue
            shifted = mus[s] + rp.tau
            scale = Fraction(1)
            mismatch = None
            for k in range(m):
                if k:
                    scale *= uppers[k - 1]
                v_k = scale * w.at(s, k) / w0
                expected = polys[k].evaluate([shifted])
                if v_k != expected:
                    mismatch = f"k={k}: {v_k} != {expected}"
                    break
            report.add("monic-ratios-match-recurrence", (s,), d3, mismatch)
            boundary = polys[m].evaluate([shifted])
            root = None if boundary == 0 else f"H_{m}({shifted}) = {boundary}"
            report.add("recurrence-boundary-root", (s,), d3, root)
    return RankOneOverlap(w, tridiagonal, mus, sd, rp, report)


# -- the recoupling graph -----------------------------------------------------------


def _order_from_prefixes(prefixes: list[frozenset], n: int) -> tuple[int, ...]:
    order: list[int] = sorted(prefixes[0])
    previous = set(prefixes[0])
    for s in prefixes[1:]:
        (new,) = set(s) - previous
        order.append(new)
        previous = set(s)
    (last,) = set(range(1, n + 1)) - previous
    order.append(last)
    return tuple(order)


def reference_neighbors(chain: Chain) -> list[Chain]:
    """Chains whose generator list differs from this one in exactly one spot.

    Replacing the size-m prefix must stay between the neighbouring
    prefixes; the size-2 prefix is only bounded above, which is why every
    vertex has degree n - 1.
    """
    n = chain.n
    prefixes = list(chain.generators)
    out: set[Chain] = set()
    full = frozenset(range(1, n + 1))
    for t, current in enumerate(prefixes):
        above = prefixes[t + 1] if t + 1 < len(prefixes) else full
        below = prefixes[t - 1] if t > 0 else None
        if below is None:
            candidates = [
                frozenset(pair) for pair in permutations(sorted(above), 2)
            ]
        else:
            candidates = [below | {x} for x in above - below]
        for cand in candidates:
            if len(cand) != len(current) or cand == current:
                continue
            replaced = prefixes[:t] + [cand] + prefixes[t + 1:]
            out.add(Chain.from_order(_order_from_prefixes(replaced, n)))
    return sorted(out)


def connected_by_paths(graph) -> bool:
    """Whether path() walks from the first vertex to every other along graph edges."""
    index = {v: i for i, v in enumerate(graph.vertices)}
    edges = set(graph.edges)
    start = graph.vertices[0]
    for goal in graph.vertices[1:]:
        walk = [start] + path(start, goal)
        if walk[-1] != goal:
            return False
        for u, v in zip(walk, walk[1:]):
            if tuple(sorted((index[u], index[v]))) not in edges:
                return False
    return True


# -- the degree-changing sweeps, one degree at a time ----------------------------


def degree_sum_basis(space) -> list[tuple[int, ...]]:
    """A DegreeSum's monomials in its row order: degree 0, then 1, ..., up to its kmax."""
    return [exps for k in space.degrees for exps in monomial_basis(space.n, k)]


def block_diagonal(blocks: Sequence[RationalMatrix]) -> RationalMatrix:
    """The block-diagonal matrix of the given matrices, over the lcm of their dens."""
    den = lcm(*(b.den for b in blocks))
    rows, offset = [], 0
    for b in blocks:
        scale = den // b.den
        rows += [{offset + j: scale * x for j, x in row.items()} for row in b.sparse_rows]
        offset += b.ncols
    return RationalMatrix.from_sparse(rows, den, offset)


def one_block_witness(n: int, basis, diff: RationalMatrix) -> str | None:
    """The first nonzero column of a discrepancy on one basis, as a polynomial."""
    cols = [min(row) for row in diff.sparse_rows if row]
    if not cols:
        return None
    col = min(cols)
    rows = enumerate(diff.sparse_rows)
    return Polynomial(
        n, {basis[i]: Fraction(row[col], diff.den) for i, row in rows if col in row}
    ).to_text()


def _on_degree(op, n: int, d: int) -> RationalMatrix:
    return materialize_on_monomials(op, n, d, d)


def per_degree_su11(params: ParameterSet, kmax: int) -> Report:
    """The su(1,1) brackets of every subset, summed on each degree's own matrices.

    ``su11_triple`` is looked up on the relations module at call time, so
    a patched triple reaches this route and the sweep alike.
    """
    n = params.n
    ops = DunklOperators(params)
    report = Report()
    for A in relations.nonempty_subsets(n):
        a0, jp, jm = relations.su11_triple(ops, A)
        for k in range(kmax + 1):
            a0_k, jp_k, jm_k = (_on_degree(op, n, k) for op in (a0, jp, jm))
            brackets = (
                ("su11-raising", 2, [
                    (1, (_on_degree(a0, n, k + 2), jp_k)), (-1, (jp_k, a0_k)), (-1, (jp_k,)),
                ]),
                ("su11-lowering", -2, [
                    (1, (_on_degree(a0, n, k - 2), jm_k)), (-1, (jm_k, a0_k)), (1, (jm_k,)),
                ]),
                ("su11-bracket", 0, [
                    (1, (_on_degree(jm, n, k + 2), jp_k)),
                    (-1, (_on_degree(jp, n, k - 2), jm_k)),
                    (-2, (a0_k,)),
                ]),
            )
            for relation, shift, terms in brackets:
                witness = one_block_witness(n, monomial_basis(n, k + shift), product_sum(terms))
                report.add(relation, A, k, witness)
    return report


def per_degree_laplacian_commute(params: ParameterSet, kmax: int) -> Report:
    """C_A Lap - Lap C_A for every subset, summed on each degree's own matrices.

    The full Laplacian comes from ``laplace`` on the relations module,
    looked up at call time, so a patched Laplacian reaches both routes.
    """
    n = params.n
    ops = DunklOperators(params)
    lap = relations.laplace(ops, range(1, n + 1))
    report = Report()
    for A in relations.nonempty_subsets(n):
        ca = casimir(ops, A)
        for k in range(kmax + 1):
            lap_k = _on_degree(lap, n, k)
            diff = product_sum([
                (1, (_on_degree(ca, n, k - 2), lap_k)), (-1, (lap_k, _on_degree(ca, n, k))),
            ])
            witness = one_block_witness(n, monomial_basis(n, k - 2), diff)
            report.add("invariant-commutes-with-laplacian", A, k, witness)
    return report


# -- the product kernel, walking every row's items ---------------------------


def reference_product_sum(terms: Sequence[Term]) -> RationalMatrix:
    """The exact sum of c * A_1 * A_2 * ... over the terms, not reduced.

    Each term is (c, factors) with at least one factor; every term's
    product must have the same shape.  The result's denominator is the
    least common multiple of the term denominators (c's times its
    factors'), so each term contributes integers only.  Each output row is
    accumulated in one dict over all terms, entries that cancel are
    dropped, and no gcd is taken: ``is_zero`` needs none, and
    ``normalized`` reduces when lowest terms are wanted.  One term 1/q * A
    shares A's rows, over q times its den, with no copy: J+ and J- are such.
    """
    if not terms:
        raise ValueError("a product sum needs at least one term")
    shape = None
    dens = []
    for c, factors in terms:
        den = c.denominator
        for left, right in zip(factors, factors[1:]):
            if left.ncols != right.nrows:
                raise ValueError(f"cannot multiply {left.shape} by {right.shape}")
        for factor in factors:
            den *= factor.den
        term_shape = (factors[0].nrows, factors[-1].ncols)
        if shape is None:
            shape = term_shape
        elif term_shape != shape:
            raise ValueError(f"shape mismatch: {shape} vs {term_shape}")
        dens.append(den)
    den = lcm(*dens)
    plan = []  # each term as (integer scale, first, middle and last factor rows)
    for (c, factors), term_den in zip(terms, dens):
        if c:
            rows = [f.sparse_rows for f in factors]
            scale = c.numerator * (den // term_den)
            plan.append((scale, rows[0], rows[1:-1], rows[-1] if len(rows) > 1 else None))
    if len(plan) == 1 and plan[0][0] == 1 and plan[0][3] is None:  # 1/q times one matrix
        return RationalMatrix.from_sparse(plan[0][1], den, shape[1])
    out: list[dict[int, int]] = [{} for _ in range(shape[0])]
    for scale, first, middle, last in plan:
        for acc, row in zip(out, first):
            if not row:
                continue
            if last is None:
                for j, x in row.items():
                    if j in acc:
                        acc[j] += scale * x
                    else:
                        acc[j] = scale * x
                continue
            for b_rows in middle:
                tmp: dict[int, int] = {}
                for k, x in row.items():
                    for j, y in b_rows[k].items():
                        if j in tmp:
                            tmp[j] += x * y
                        else:
                            tmp[j] = x * y
                row = tmp
            for k, x in row.items():
                x *= scale
                for j, y in last[k].items():
                    if j in acc:
                        acc[j] += x * y
                    else:
                        acc[j] = x * y
    for i, acc in enumerate(out):
        if not all(acc.values()):  # drop entries that cancelled
            out[i] = {j: v for j, v in acc.items() if v} if any(acc.values()) else {}
    return RationalMatrix.from_sparse(out, den, shape[1])


# -- the per-element harmonic suites -------------------------------------------


def first_witness(discrepancies: Iterable[Polynomial]) -> str | None:
    """Text of the first nonzero polynomial of a lazy stream, else None.

    The stream is consumed only up to its first nonzero member.
    """
    return next((d.to_text() for d in discrepancies if not d.is_zero), None)


def add_power_action(
    report: Report, index: tuple, lap: LinearOperator, nrm: Polynomial, gam: Fraction,
    h: Polynomial,
) -> None:
    """Record the power action at index (ell, j, k, ...) on |x|^(2k) h.

    A non-harmonic h fails with its Laplacian as the witness.
    """
    ell, j, k = index[:3]
    lhs = polynomial_power(nrm, k) * h
    for _ in range(j):
        lhs = lap(lhs)
    factor = (
        Fraction(4) ** j
        * falling_factorial(k, j)
        * falling_factorial(ell + k - 1 + gam, j)
    )
    rhs = (polynomial_power(nrm, k - j) * h).scale(factor)
    report.add("laplacian-power-action", index, ell + 2 * k, first_witness([lap(h), lhs - rhs]))


def dunkl_laplacian_of(ops: DunklOperators, h: Polynomial) -> Polynomial:
    """The sum of T_i(T_i(h)) over all i: the harmonicity oracle of verify ck,
    which shares no code with the closed-form coefficients of operators.laplace."""
    total = Polynomial.zero(ops.n)
    for i in range(1, ops.n + 1):
        t = ops.dunkl[i]
        total = total + t(t(h))
    return total


def reference_tower(params: ParameterSet, kmax: int) -> Report:
    """Tower bases are harmonic, correctly sized, and linearly independent."""
    n = params.n
    ops = DunklOperators(params)
    report = Report()
    for k in range(kmax + 1):
        elements = build_basis_tower(params, k)
        witness = first_witness(dunkl_laplacian_of(ops, el.poly) for el in elements)
        report.add("tower-element-harmonic", (), k, witness)

        expected = harmonic_space_dim(n, k)
        count = len(elements)
        report.add("tower-count", (), k, None if count == expected else f"{count} != {expected}")

        rank = matrix_rank([el.poly.terms for el in elements])
        witness = None if rank == count else f"rank {rank} < {count}"
        report.add("tower-linear-independence", (), k, witness)
    return report


def reference_extension_restrictions(params: ParameterSet, kmax: int) -> Report:
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
            p = Polynomial.monomial(n, exps + (0,))
            ext0 = Polynomial._trusted(n, *_lift(params, lap_done, new, 0, p.terms, p.den))
            ext1 = Polynomial._trusted(n, *_lift(params, lap_done, new, 1, p.terms, p.den))
            if even_bad is None and restrict_to_zero(ext0, new) != p:
                even_bad = p.to_text()
            if odd_bad is None and restrict_to_zero(partial_derivative(ext1, new), new) != p:
                odd_bad = p.to_text()
            if harm_bad is None and not (
                dunkl_laplacian_of(ops, ext0).is_zero and dunkl_laplacian_of(ops, ext1).is_zero
            ):
                harm_bad = p.to_text()
        report.add("extension-restriction-even", (), k, even_bad)
        report.add("extension-derivative-restriction-odd", (), k, odd_bad)
        report.add("extension-harmonic", (), k, harm_bad)
    return report


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
            term = Polynomial.monomial(n, mono, coeff) * polynomial_power(nrm, power - j)
            total = total + term * h
        h = total
        deg += 2 * power + eps
    return h


def reference_closed_form(params: ParameterSet, kmax: int) -> Report:
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


def reference_ck(params: ParameterSet, kmax: int) -> Report:
    """The three ck checks, each building its own towers, their records concatenated."""
    checks = (reference_tower, reference_extension_restrictions, reference_closed_form)
    return Report([result for check in checks for result in check(params, kmax)])


def reference_spectral_action(
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


def reference_power_action_sweep(
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
                    add_power_action(report, (ell, j, k, t), lap, nrm, gam, el.poly)
    return report


# -- the command line ----------------------------------------------------------------


_OPTIONS = {
    "n": dict(type=int, default=3, help="ambient dimension"),
    "mu": dict(help="comma-separated positive rationals, e.g. 1/2,1/3,1/4"),
    "kmax": dict(type=int, default=None, help="degree bound"),
    "k": dict(type=int, required=True, help="homogeneous degree"),
    "out": dict(help="output path (default: stdout)"),
}


def _add_options(
    parser: argparse.ArgumentParser, names: tuple[str, ...], formats: tuple[str, ...] = ()
) -> None:
    """Declare the named shared options, and --format when formats are given."""
    for name in names:
        parser.add_argument("--" + name, **_OPTIONS[name])
    if formats:
        parser.add_argument("--format", default=formats[0], choices=formats)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every main call.

    parse_args keeps no state between calls: each returns a fresh
    namespace, and no option has a mutable default.
    """
    parser = argparse.ArgumentParser(
        prog="racah-dunkl",
        description="exact verification and export tool for the deformed-Laplacian "
        "symmetry algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run an identity-verification suite")
    p.add_argument("suite", choices=VERIFY_SUITES)
    _add_options(p, ("n", "mu", "kmax", "out"))
    p.add_argument("--order", help="variable order for the eigen suite")
    p.add_argument("--blocks", help="embedding blocks, e.g. 1,2;3;4")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("basis", help="export a harmonic basis (json) or dimension table (csv)")
    _add_options(p, ("n", "mu", "k", "out"), ("json", "csv"))
    p.add_argument("--order", help="variable order, e.g. 1,2,3")
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("connect", help="connection matrix between two chain bases")
    _add_options(p, ("n", "mu", "k", "out"), ("json", "csv"))
    p.add_argument("--from", dest="from_order", required=True, help="source variable order")
    p.add_argument("--to", dest="to_order", required=True, help="target variable order")
    p.set_defaults(fn=cmd_connect)

    p = sub.add_parser("graph", help="export the recoupling graph")
    _add_options(p, ("n", "out"), ("json", "dot"))
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("racah", help="export recurrence data of a fixed-parity module")
    _add_options(p, ("n", "mu", "out"))
    p.add_argument("--epsilon", required=True, help="three parity bits, e.g. 0,0,0")
    p.add_argument("--degree", type=int, required=True, help="total degree of the module")
    p.set_defaults(fn=cmd_racah)

    p = sub.add_parser("spectrum", help="eigenvalue table of the chain invariants")
    _add_options(p, ("n", "mu", "k", "out"))
    p.add_argument("--order", help="variable order, e.g. 1,2,3")
    p.set_defaults(fn=cmd_spectrum)

    return parser
