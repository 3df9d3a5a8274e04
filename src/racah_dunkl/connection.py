"""Exact pairing, connection matrices between harmonic bases, and the
tridiagonal-action verification.

The pairing substitutes deformed derivatives for the coordinates of the
left argument and evaluates at the origin.  It is bilinear, symmetric,
positive definite for positive deformation parameters, and turns
coordinate multiplication and the deformed derivative into adjoints of
each other, which makes every quadratic invariant self-adjoint.  It is
diagonal on monomials, so it is computed in closed form as a weighted
dot product of the numerators, with no Dunkl operator.  Basis changes
themselves are computed by direct exact linear solves in monomial
coordinates; the pairing is used only for orthogonality statements.

Connection matrices follow the expansion convention: W[s][k] is the
coefficient of the k-th target element in the s-th source element, so
composition along a chain of bases multiplies in path order,
W(A->C) = W(A->B) W(B->C).  The solve runs on the tower polynomials'
integer numerators and returns W itself as a sparse RationalMatrix, with
no rescale; W and the tridiagonal data stay in that form, and only text
exports read the dense ``entries`` view.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .harmonics import (
    HarmonicBasisElement,
    HarmonicLabel,
    build_basis_tower,
    casimir_eigenvalue,
)
from .linalg import RationalMatrix, matrix_rank, solve_in_span
from .operators import DunklOperators, LinearOperator, casimir, materialize
from .poly import ParameterSet, Polynomial
from .racah import (
    RacahParameters,
    SpectralData,
    racah_parameters,
    racah_recurrence_polys,
    spectral_data,
)
from .report import Report


class SpanMismatch(ValueError):
    """Raised when two bases do not span the same space."""


def fischer_pairing(params: ParameterSet, p: Polynomial, q: Polynomial) -> Fraction:
    """Pairing (p, q) -> constant term of p with coordinates replaced by
    deformed derivatives, applied to q, in closed form.

    T_i x^e = [e_i] x^(e - e_i) with [j] = j for even j and j + 2 mu_i for
    odd j, so the pairing is diagonal on monomials: (x^a, x^b) is zero
    unless a = b, and (x^a, x^a) = w(a), the product over i of
    [1] [2] ... [a_i].  The pairing is the sum of p_a q_a w(a) over the
    integer numerators, divided once by p.den * q.den.
    """
    n = params.n
    if p.n != n or q.n != n:
        raise ValueError("dimension mismatch")
    two_mu = [2 * m for m in params.mu]
    total = Fraction(0)
    for exps, x in p.terms.items():
        y = q.terms.get(exps)
        if y is not None:
            w = Fraction(x * y)
            for e, t in zip(exps, two_mu):
                for j in range(1, e + 1):
                    w *= j + t if j % 2 else j
            total += w
    return total / (p.den * q.den)


@dataclass(frozen=True)
class ConnectionMatrix:
    from_labels: tuple[HarmonicLabel, ...]
    to_labels: tuple[HarmonicLabel, ...]
    matrix: RationalMatrix

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """Dense rows of Fraction entries, the view that the CSV export writes.

        Built by RationalMatrix.to_fractions: a Fraction per stored
        nonzero, one shared zero for the absent entries.
        """
        return tuple(tuple(row) for row in self.matrix.to_fractions())

    def at(self, s: int, k: int) -> Fraction:
        return self.matrix.at(s, k)

    def compose(self, other: "ConnectionMatrix") -> "ConnectionMatrix":
        """W(A->B).compose(W(B->C)) = W(A->C), as one sparse exact product."""
        if self.to_labels != other.from_labels:
            raise ValueError("composition requires matching intermediate bases")
        return ConnectionMatrix(self.from_labels, other.to_labels, self.matrix * other.matrix)

    def to_json_obj(self) -> dict:
        """Labels and entries as strings: str() of each stored nonzero, "0" elsewhere."""
        den, ncols = self.matrix.den, self.matrix.ncols
        entries = []
        for row in self.matrix.sparse_rows:
            text = ["0"] * ncols
            for j, x in row.items():
                text[j] = str(Fraction(x, den))
            entries.append(text)
        return {
            "from": [lab.to_json_obj() for lab in self.from_labels],
            "to": [lab.to_json_obj() for lab in self.to_labels],
            "entries": entries,
        }


def connection_matrix(
    params: ParameterSet,
    source: Sequence[HarmonicBasisElement],
    target: Sequence[HarmonicBasisElement],
) -> ConnectionMatrix:
    """Solve source_s = sum_k W[s][k] target_k exactly.

    Both lists must be bases of the same space: equal lengths, full rank,
    and every source element inside the target span; otherwise
    SpanMismatch is raised.  One elimination solves for W and proves that
    the target is a basis holding every source element; the source is then
    independent exactly when the square W is nonsingular, which the rank
    of W's rows decides.

    The elimination reads each element's integer numerators as they are,
    and the solve returns W itself, in lowest terms.
    """
    if len(source) != len(target):
        raise SpanMismatch(
            f"basis sizes differ: {len(source)} vs {len(target)}"
        )
    try:
        w = solve_in_span([el.poly for el in target], [el.poly for el in source])
    except ValueError as exc:
        raise SpanMismatch(str(exc)) from exc
    if matrix_rank(w.sparse_rows) != len(source):
        raise SpanMismatch("source basis is linearly dependent")
    return ConnectionMatrix(
        tuple(el.label for el in source), tuple(el.label for el in target), w
    )


def parity_blocks(basis: Sequence[HarmonicBasisElement]) -> dict[tuple[int, ...], list[int]]:
    """The modules of a harmonic basis: per-variable parity vector -> positions.

    Each module holds the positions of the basis elements with one parity
    vector, ordered by the partial-degree tuple of their labels, which
    tells the elements of one module apart.
    """
    labels = [el.label for el in basis]
    blocks: dict[tuple[int, ...], list[int]] = {}
    for pos, label in enumerate(labels):
        blocks.setdefault(label.variable_parities(), []).append(pos)
    for idx in blocks.values():
        idx.sort(key=lambda pos: [labels[pos].partial_degree(m) for m in range(2, labels[pos].n)])
    return blocks


@dataclass
class TridiagonalData:
    """Result of materializing an operator on a labeled harmonic basis."""

    matrix: RationalMatrix
    blocks: dict[tuple[int, ...], list[int]]  # parity vector -> basis positions
    report: Report

    def block_diagonal(self, parities: tuple[int, ...]) -> list[Fraction]:
        idx = self.blocks[parities]
        return [self.matrix.at(i, i) for i in idx]

    def block_offdiagonal_products(self, parities: tuple[int, ...]) -> list[Fraction]:
        idx = self.blocks[parities]
        return [
            self.matrix.at(idx[t], idx[t - 1]) * self.matrix.at(idx[t - 1], idx[t])
            for t in range(1, len(idx))
        ]


def tridiagonal_check(
    params: ParameterSet,
    op: LinearOperator,
    basis: Sequence[HarmonicBasisElement],
    expected: dict[tuple[int, ...], tuple[list[Fraction], list[Fraction]]] | None = None,
) -> TridiagonalData:
    """Materialize op on the basis and verify its banded block structure.

    Basis elements are grouped into the modules of parity_blocks.  The
    checks assert that op never mixes blocks and acts tridiagonally inside
    each block; when expected values are supplied
    (parity vector -> (diagonal, off-diagonal pair products)) the
    extracted data is compared entry by entry.
    """
    if not basis:
        raise ValueError("basis must be nonempty")
    degree = basis[0].label.degree
    matrix = materialize(op, params.n, [el.poly for el in basis])
    rows = matrix.sparse_rows
    blocks = parity_blocks(basis)

    report = Report()
    position_block = {pos: key for key, idx in blocks.items() for pos in idx}
    cross = next(
        (
            f"entry {(i, j)} crosses parity blocks"
            for i, row in enumerate(rows)
            for j in sorted(row)
            if position_block[i] != position_block[j]
        ),
        None,
    )
    report.add("parity-block-structure", (), degree, cross)

    for key, idx in sorted(blocks.items()):
        outside = next(
            (
                f"entry {(i, j)} is outside the band"
                for a, i in enumerate(idx)
                for b, j in enumerate(idx)
                if abs(a - b) > 1 and j in rows[i]
            ),
            None,
        )
        report.add("tridiagonal-within-block", key, degree, outside)

    data = TridiagonalData(matrix, blocks, report)
    if expected is not None:
        for key, (diag, offsq) in sorted(expected.items()):
            for relation, got, want in (
                ("diagonal-matches", data.block_diagonal(key), list(diag)),
                ("offdiagonal-products-match", data.block_offdiagonal_products(key), list(offsq)),
            ):
                report.add(relation, key, degree, None if got == want else f"{got} != {want}")
    return data


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
    and the ratio checks are skipped, never silently resolved.
    """
    order = tuple(order)
    rotated = (order[1], order[2], order[0])
    phi = module_basis(params, epsilon, d3, order)
    psi = module_basis(params, epsilon, d3, rotated)
    m = len(phi)

    w = connection_matrix(params, psi, phi)
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
