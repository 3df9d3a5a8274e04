"""Exact pairing, connection matrices between harmonic bases, and the
tridiagonal-action verification.

The pairing substitutes deformed derivatives for the coordinates of the
left argument and evaluates at the origin.  It is bilinear, symmetric,
positive definite for positive deformation parameters, and turns
coordinate multiplication and the deformed derivative into adjoints of
each other, which makes every quadratic invariant self-adjoint.  It is
diagonal on monomials, so it is computed in closed form as a weighted
dot product of the numerators, each weight a product of the T_i's move
coefficients, with no operator applied.  Basis changes
themselves are computed by direct exact linear solves in monomial
coordinates; the pairing is used only for orthogonality statements.

Connection matrices follow the expansion convention: W[s][k] is the
coefficient of the k-th target element in the s-th source element, so
composition along a chain of bases multiplies in path order,
W(A->C) = W(A->B) W(B->C).  The solve runs on the tower polynomials'
integer numerators and returns W itself as a sparse RationalMatrix, with
no rescale; W and the tridiagonal data stay in that form.  The JSON
export writes W's integers as text, and only the CSV export reads the
dense ``entries`` view.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .harmonics import HarmonicBasisElement
from .linalg import RationalMatrix, matrix_rank, solve_in_span
from .operators import DunklOperators, LinearOperator, materialize
from .poly import Frozen, ParameterSet, Polynomial, Record
from .report import Report


class SpanMismatch(ValueError):
    """Raised when two bases do not span the same space."""


def fischer_pairing(params: ParameterSet, p: Polynomial, q: Polynomial) -> Fraction:
    """Pairing (p, q) -> constant term of p with coordinates replaced by
    deformed derivatives, applied to q, in closed form.

    T_i x^e = [e_i]_i x^(e - e_i), so the pairing is diagonal on
    monomials: (x^a, x^b) is zero unless a = b, and (x^a, x^a) = w(a),
    the product over i of [1]_i [2]_i ... [a_i]_i.  Each [j]_i is read
    from T_i's move, which holds b_i [j]_i over its den b_i.  The pairing
    is the sum of p_a q_a w(a) over the integer numerators, divided once
    by p.den * q.den.
    """
    n = params.n
    if p.n != n or q.n != n:
        raise ValueError("dimension mismatch")
    weights = [(t.moves[0][1], t.den) for t in DunklOperators(params).dunkl.values()]
    total = Fraction(0)
    for exps, x in p.terms.items():
        y = q.terms.get(exps)
        if y is not None:
            num, den = x * y, 1
            for e, (c, b) in zip(exps, weights):
                for j in range(1, e + 1):
                    num *= c(j)
                den *= b**e
            total += Fraction(num, den)
    return total / (p.den * q.den)


class ConnectionMatrix(Frozen):
    __slots__ = ("from_labels", "to_labels", "matrix")  # two HarmonicLabel tuples, W

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
        """Labels and entries as strings: each stored nonzero in lowest terms, "0" elsewhere.

        An entry is written from its numerator x over the matrix's den:
        with g = gcd(x, den), a = x / g and b = den / g, it is "a" when
        b = 1 and "a/b" otherwise, the text of str(Fraction(x, den)),
        with no Fraction formed.
        """
        den, ncols = self.matrix.den, self.matrix.ncols
        entries = []
        for row in self.matrix.sparse_rows:
            text = ["0"] * ncols
            for j, x in row.items():
                g = gcd(x, den)
                text[j] = str(x // g) if g == den else f"{x // g}/{den // g}"
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
    SpanMismatch is raised.  _solve_connection proves that the target is
    a basis holding every source element and returns W; the source is
    then independent exactly when the square W is nonsingular, which the
    rank of W's rows decides.
    """
    w = _solve_connection(source, target)
    if matrix_rank(w.matrix.sparse_rows) != len(source):
        raise SpanMismatch("source basis is linearly dependent")
    return w


def _solve_connection(
    source: Sequence[HarmonicBasisElement], target: Sequence[HarmonicBasisElement]
) -> ConnectionMatrix:
    """W with source_s = sum_k W[s][k] target_k, proving only the target side.

    Raises SpanMismatch when the sizes differ, when the target is linearly
    dependent, or when a source element lies outside the target span.  The
    source's own independence is not checked: connection_matrix adds the
    rank of W for that.  The elimination reads each element's integer
    numerators as they are, and the solve returns W itself, in lowest terms.
    """
    if len(source) != len(target):
        raise SpanMismatch(
            f"basis sizes differ: {len(source)} vs {len(target)}"
        )
    try:
        w = solve_in_span([el.poly for el in target], [el.poly for el in source])
    except ValueError as exc:
        raise SpanMismatch(str(exc)) from exc
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


class TridiagonalData(Record):
    """Result of materializing an operator on a labeled harmonic basis."""

    __slots__ = ("matrix", "blocks", "report")  # blocks: parity vector -> basis positions

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
