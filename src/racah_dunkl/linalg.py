"""Exact rational linear algebra.

RationalMatrix stores each row as a sparse map from column to nonzero
integer, over a single positive denominator.  The one arithmetic loop on
these matrices is ``product_sum``: an exact signed sum of products
sum_t c_t * A_t1 * A_t2 (* A_t3 ...) over the least common multiple of the
term denominators.  It accumulates each output row in one integer dict,
touches only nonzero entries, drops entries that cancel, and does no gcd
reduction, so an identity checked as one such sum costs its products and
nothing else.  It checks the shapes and forms each term's denominator
in one pass, then walks each term by its number of factors: one row
walk for a single factor, one for two and one for a longer chain, so no
per-row branch decides the arity.  Each walk reads stored entries only:
itertools.compress drops the empty rows of the term's first factor in
C, with no Python test per row, and every row is read by key, in the
order its entries were stored, so each output row's keys come in a fixed
order.  Every arithmetic method of RationalMatrix is one of its cases: a
product, sum or difference is a one- or two-term sum, negation and
``scale`` are one one-factor term, and the diagonal products are one
product with ``RationalMatrix.diagonal``; all but negation are reduced
to lowest terms.  The algebra generators never mix the reflection parity
classes of the monomials, so their matrices are very sparse and the
cross-parity entries are simply never stored.

Basis solves and ranks are thin front ends over one exact
Gauss-Jordan elimination on sparse integer rows.  A rank reads sparse
integer vectors, mappings from a coordinate key to a nonzero int such as
a RationalMatrix's sparse rows; a solve reads polynomials, integer
numerators over one denominator each, so callers never choose a
coordinate order or build a dense vector.  Each coordinate key is one
equation, and its integers enter the elimination as they are.  The
elimination is fraction-free: a row is combined with a pivot row by
integer multiples and then divided by the gcd of its entries (its
content), so no Fraction is formed at all; a solve reads each
coefficient off its pivot row as an integer over an integer and returns
them as a RationalMatrix, one row per target.  Each pivot step touches
only the rows with a nonzero in the pivot column, so the parity sectors
of a basis change are eliminated independently without any block layout:
rows from different sectors never share a column.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Hashable, Mapping, Sequence

from .poly import Polynomial

# a sparse integer vector: coordinate key -> nonzero integer
SparseVector = Mapping[Hashable, int]
# one term c * A_1 * A_2 * ... of a product sum; c is an int or a Fraction
Term = tuple[int | Fraction, Sequence["RationalMatrix"]]
# the absent entry of every dense view
_ZERO = Fraction(0)


class InconsistentSystem(ValueError):
    """Raised when a linear system has no exact solution."""


def _width(rows: Sequence[Sequence]) -> int:
    """The common length of the rows; raises ValueError on a ragged row."""
    ncols = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise ValueError(f"ragged rows: row {i} has {len(row)} entries, row 0 has {ncols}")
    return ncols


class RationalMatrix:
    """Immutable matrix of rationals: sparse integer rows over one denominator.

    ``sparse_rows[i]`` maps column j to the nonzero integer numerator of
    entry (i, j); absent columns are zero.  ``rows`` is a dense read-only
    view built on demand.
    """

    __slots__ = ("sparse_rows", "den", "nrows", "ncols")

    def __init__(self, rows: list[list[int]], den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        sign = 1
        if den < 0:
            sign, den = -1, -den
        self.sparse_rows = [
            {j: sign * x for j, x in enumerate(row) if x} for row in rows
        ]
        self.den = den
        self.nrows = len(rows)
        self.ncols = _width(rows)

    @classmethod
    def from_sparse(
        cls, rows: list[dict[int, int]], den: int, ncols: int
    ) -> "RationalMatrix":
        """Wrap sparse rows as they are: nonzero values, den > 0, keys < ncols."""
        m = cls.__new__(cls)
        m.sparse_rows = rows
        m.den = den
        m.nrows = len(rows)
        m.ncols = ncols
        return m

    @classmethod
    def _from_rational_rows(cls, rows: list[dict[int, Fraction]], ncols: int) -> "RationalMatrix":
        """Sparse rational rows (column -> nonzero entry) over the lcm of their denominators."""
        den = lcm(1, *(x.denominator for row in rows for x in row.values()))
        ints = [{j: x.numerator * (den // x.denominator) for j, x in row.items()} for row in rows]
        return cls.from_sparse(ints, den, ncols)

    @classmethod
    def from_fractions(cls, entries: list[list[Fraction]]) -> "RationalMatrix":
        rows = [{j: x for j, x in enumerate(row) if x} for row in entries]
        return cls._from_rational_rows(rows, _width(entries))

    @classmethod
    def identity(cls, m: int) -> "RationalMatrix":
        return cls.from_sparse([{i: 1} for i in range(m)], 1, m)

    @classmethod
    def diagonal(cls, values: list[Fraction]) -> "RationalMatrix":
        rows = [{i: x} if x else {} for i, x in enumerate(values)]
        return cls._from_rational_rows(rows, len(values))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def rows(self) -> list[list[int]]:
        """Dense integer numerators, a fresh copy on every access."""
        width = range(self.ncols)
        return [[row.get(j, 0) for j in width] for row in self.sparse_rows]

    def at(self, i: int, j: int) -> Fraction:
        return Fraction(self.sparse_rows[i].get(j, 0), self.den)

    def to_fractions(self) -> list[list[Fraction]]:
        """Dense rows of Fraction entries, a fresh copy on every access.

        A Fraction is formed only for the stored nonzeros.  Every absent
        entry, in every view of every matrix, is the one module-level zero,
        so equal views compare their zeros by identity.
        """
        den = self.den
        out = []
        for row in self.sparse_rows:
            dense = [_ZERO] * self.ncols
            for j, x in row.items():
                dense[j] = Fraction(x, den)
            out.append(dense)
        return out

    def normalized(self) -> "RationalMatrix":
        """The same matrix in lowest terms."""
        g = self.den
        for row in self.sparse_rows:
            if row:
                g = gcd(g, *row.values())
                if g == 1:
                    return self
        rows = [{j: x // g for j, x in row.items()} for row in self.sparse_rows]
        return RationalMatrix.from_sparse(rows, self.den // g, self.ncols)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return product_sum([(1, (self,)), (1, (other,))]).normalized()

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return product_sum([(1, (self,)), (-1, (other,))]).normalized()

    def __neg__(self) -> "RationalMatrix":
        """-self over self's denominator, not reduced."""
        return product_sum([(-1, (self,))])

    def __mul__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return product_sum([(1, (self, other))]).normalized()

    def scale(self, c) -> "RationalMatrix":
        return product_sum([(Fraction(c), (self,))]).normalized()

    @property
    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        # cross-multiplied comparison avoids a full normalization
        d1, d2 = self.den, other.den
        for r1, r2 in zip(self.sparse_rows, other.sparse_rows):
            if r1.keys() != r2.keys():
                return False
            if any(x * d2 != r2[j] * d1 for j, x in r1.items()):
                return False
        return True

    def __hash__(self):
        norm = self.normalized()
        entries = tuple(tuple(sorted(row.items())) for row in norm.sparse_rows)
        return hash((norm.shape, norm.den, entries))

    def mul_diag_right(self, values: list[Fraction]) -> "RationalMatrix":
        """Product with diag(values) on the right: column j scaled by values[j]."""
        if len(values) != self.ncols:
            raise ValueError("diagonal length does not match column count")
        return product_sum([(1, (self, RationalMatrix.diagonal(values)))]).normalized()

    def mul_diag_left(self, values: list[Fraction]) -> "RationalMatrix":
        """Product with diag(values) on the left: row i scaled by values[i]."""
        if len(values) != self.nrows:
            raise ValueError("diagonal length does not match row count")
        return product_sum([(1, (RationalMatrix.diagonal(values), self))]).normalized()

    def __repr__(self) -> str:
        return f"RationalMatrix({self.nrows}x{self.ncols}, den={self.den})"


def product_sum(terms: Sequence[Term]) -> RationalMatrix:
    """The exact sum of c * A_1 * A_2 * ... over the terms, not reduced.

    Each term is (c, factors) with at least one factor; every term's
    product must have the same shape.  The result's denominator is the
    least common multiple of the term denominators (c's times its
    factors'), so each term contributes integers only.  Each output row is
    accumulated in one dict over all terms, entries that cancel are
    dropped, and no gcd is taken: ``is_zero`` needs none, and
    ``normalized`` reduces when lowest terms are wanted.

    One pass over the terms checks the shapes and forms each term's
    denominator; a second walks each term by its number of factors, with
    one row walk for a single factor, one for two and one for a chain.
    Each walk visits only the nonempty rows of the term's first factor,
    picked out by ``compress`` without a Python test per row, and reads
    each row by key: for a key k of the running row, x = its entry and b =
    row k of the next factor, each entry of b adds x * b[j] at column j.
    Middle factors of a chain fold into a fresh running row the same way,
    and the last into the output row.  Keys are met in each row's storage
    order, so every output row's key order is fixed by the terms alone.
    """
    if not terms:
        raise ValueError("a product sum needs at least one term")
    dens = []
    for c, factors in terms:
        den = c.denominator
        left = None
        for right in factors:
            if left is None:
                first = right
            elif left.ncols != right.nrows:
                raise ValueError(f"cannot multiply {left.shape} by {right.shape}")
            den *= right.den
            left = right
        if not dens:
            nrows, ncols = first.nrows, left.ncols
        elif first.nrows != nrows or left.ncols != ncols:
            raise ValueError(f"shape mismatch: {(nrows, ncols)} vs {(first.nrows, left.ncols)}")
        dens.append(den)
    den = lcm(*dens)
    out: list[dict[int, int]] = [{} for _ in range(nrows)]
    for (c, factors), term_den in zip(terms, dens):
        if not c:
            continue
        scale = c.numerator * (den // term_den)
        first = factors[0].sparse_rows
        # compress drops the empty rows of the first factor in C
        if len(factors) == 1:
            for acc, row in compress(zip(out, first), first):
                for j in row:
                    if j in acc:
                        acc[j] += scale * row[j]
                    else:
                        acc[j] = scale * row[j]
            continue
        last = factors[-1].sparse_rows
        if len(factors) == 2:
            for acc, row in compress(zip(out, first), first):
                for k in row:
                    x, b = scale * row[k], last[k]
                    for j in b:
                        if j in acc:
                            acc[j] += x * b[j]
                        else:
                            acc[j] = x * b[j]
            continue
        middle = [f.sparse_rows for f in factors[1:-1]]
        for acc, row in compress(zip(out, first), first):
            for b_rows in middle:
                tmp: dict[int, int] = {}
                for k in row:
                    x, b = row[k], b_rows[k]
                    for j in b:
                        if j in tmp:
                            tmp[j] += x * b[j]
                        else:
                            tmp[j] = x * b[j]
                row = tmp
            for k in row:
                x, b = scale * row[k], last[k]
                for j in b:
                    if j in acc:
                        acc[j] += x * b[j]
                    else:
                        acc[j] = x * b[j]
    for i, acc in enumerate(out):
        if not all(acc.values()):  # drop entries that cancelled
            out[i] = {j: v for j, v in acc.items() if v} if any(acc.values()) else {}
    return RationalMatrix.from_sparse(out, den, ncols)


def _gauss_jordan(rows: list[dict[int, int]], ncols: int) -> list[int]:
    """Reduce sparse integer rows in place to reduced echelon form on columns < ncols.

    The elimination is fraction-free.  Each row maps a column to its
    nonzero integer entry, and an entry that cancels to zero is deleted.
    To clear the pivot column from another row holding f there, with p
    the pivot, that row becomes (p/g) * row - (f/g) * pivot_row for
    g = gcd(p, f), and is then divided by the gcd of its entries, so the
    integers stay small.  A pivot step touches only the rows holding a
    nonzero in the pivot column; it rescales each of them and visits only
    the pivot row's nonzeros.  A column without a pivot is skipped,
    and the elimination stops when the rows run out.  The pivots are not
    scaled to 1: pivot row i is zero on every pivot column but its own,
    where it holds the pivot.  Returns the pivot columns in order.
    """
    nrows = len(rows)
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        pivot = next((r for r in range(row, nrows) if col in rows[r]), None)
        if pivot is None:
            continue
        if pivot != row:
            rows[row], rows[pivot] = rows[pivot], rows[row]
        pivot_row = rows[row]
        p = pivot_row[col]
        for r, other in enumerate(rows):
            f = other.get(col)
            if f is None or r == row:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                for c in other:
                    other[c] *= a
            for c, y in pivot_row.items():
                x = other.get(c)
                if x is None:
                    other[c] = -b * y
                else:
                    x -= b * y
                    if x:
                        other[c] = x
                    else:
                        del other[c]
            g = gcd(*other.values())
            if g > 1:
                for c in other:
                    other[c] //= g
        pivots.append(col)
    return pivots


def _elimination_rows(vectors: Sequence[SparseVector]) -> list[dict[int, int]]:
    """Sparse integer rows of the matrix whose j-th column is vectors[j].

    Row r holds the entries of the r-th key met, keyed by vector position;
    each row is one equation.
    """
    row_of: dict[Hashable, dict[int, int]] = {}
    for j, vector in enumerate(vectors):
        for key, x in vector.items():
            row_of.setdefault(key, {})[j] = x
    return list(row_of.values())


def solve_in_span(
    columns: Sequence[Polynomial], targets: Sequence[Polynomial]
) -> RationalMatrix:
    """Solve sum_j c_j * columns[j] = target for each target, exactly.

    Returns the coefficients as a matrix whose row t holds those of
    targets[t].  Raises InconsistentSystem if some target is outside the
    span, and ValueError if the columns are linearly dependent (the solves
    here always expect a basis).  With columns[j] = b_j / e_j and
    targets[t] = a_t / d_t, the elimination runs on the numerators: it
    solves a_t = sum_j c'_j b_j, so c_j = c'_j e_j / d_t, and c'_j is a
    reduced-row entry over its pivot.  Each coefficient is read off as an
    integer over an integer, reduced, and the matrix is the numerators
    over the lcm of those denominators, which is lowest terms.
    """
    ncols = len(columns)
    # augmented sparse rows: [columns | targets]
    aug = _elimination_rows([v.terms for v in columns] + [v.terms for v in targets])
    if len(_gauss_jordan(aug, ncols)) < ncols:
        raise ValueError("columns are linearly dependent")
    # rows below the pivots hold target columns only; any entry left is
    # a target outside the span
    if any(aug[ncols:]):
        raise InconsistentSystem("target outside the span of the given columns")
    # pivot row j holds only its pivot p_j among the columns, so its
    # entry x in target column ncols + t gives c_j = x e_j / (p_j d_t)
    coeffs: list[dict[int, tuple[int, int]]] = [{} for _ in targets]
    for j, row in enumerate(aug[:ncols]):
        p, e = row[j], columns[j].den
        for c, x in row.items():
            if c >= ncols:
                num, d = x * e, p * targets[c - ncols].den
                g = gcd(num, d) if d > 0 else -gcd(num, d)  # d // g > 0
                coeffs[c - ncols][j] = (num // g, d // g)
    den = lcm(1, *(d for row in coeffs for _, d in row.values()))
    rows = [{j: x * (den // d) for j, (x, d) in row.items()} for row in coeffs]
    return RationalMatrix.from_sparse(rows, den, ncols)


def matrix_rank(vectors: Sequence[SparseVector]) -> int:
    """Rank of the matrix whose rows are the given sparse integer vectors."""
    return len(_gauss_jordan(_elimination_rows(vectors), len(vectors)))

