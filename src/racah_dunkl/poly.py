"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in x_1..x_n is stored as a dict mapping exponent tuples to
nonzero integer numerators over one positive denominator, in lowest
terms: the form of a RationalMatrix row and of an operator image, so
operators, solves and tower lifts read a polynomial as it is.  Every
operation returns that form, and the queries and serializations read the
coefficients as Fractions.  All arithmetic is exact; there is no
floating point anywhere in this package.  Variable indices in the public
API are 1-based (x_1 is the first coordinate), matching the usual
mathematical notation; exponent tuples are 0-based internally.

Canonical term order is graded lexicographic with x1 > x2 > ... > xn,
highest degree first.  Serialization (text and JSON) lists terms in that
order, so equal polynomials serialize to identical bytes.

The index tables that operator matrices are filled from are built once
per process, from the blocks of that order: monomial_basis(n, k) is the
blocks e_0 = k, k-1, ..., 0 of monomial_basis(n - 1, k - e_0), block e_0
starting at index poly_space_dim(n, k - e_0 - 1), where
poly_space_dim(n, m) = C(n+m-1, m) counts the monomials of degree m.  So
the blocks e_0 >= 1 are x_1 times monomial_basis(n, k - 1), index for
index (x_1 is the coordinate at position 0), and coordinate_moves reads
each moved monomial's row from block offsets alone, with no exponent
tuple or position lookup.

Record and Frozen, the value-record bases, live here: every module imports poly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping

Monomial = tuple[int, ...]

RationalLike = Fraction | int | str

_set = object.__setattr__  # sets a field of a Frozen record


def _term_sort_key(exps: Monomial) -> tuple[int, Monomial]:
    return (sum(exps), exps)


def _rational(value: RationalLike, name: str) -> Fraction:
    """value as an exact Fraction; a float, any other type or a malformed string is refused."""
    if not isinstance(value, (int, Fraction, str)):
        raise ValueError(
            f"{name} = {value!r} is a {type(value).__name__}; "
            "pass an int, a Fraction or a 'p/q' string"
        )
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name} = {value!r} is not a 'p/q' rational with q != 0") from None


class Record:
    """A mutable, unhashable value record: its fields are the names in __slots__.

    Record(*fields) sets them in order.  A record equals one of its own
    class with equal fields (== returns NotImplemented for any other), its
    repr is Name(field=value, ...), and copy and pickle rebuild it.
    """

    __slots__ = ()

    def __init__(self, *fields) -> None:
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}")
        for name, value in zip(self.__slots__, fields):
            _set(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class Frozen(Record):
    """An immutable Record, hashed as the tuple of its fields; __init__ sets them with _set."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ParameterSet(Frozen):
    """Ambient dimension n together with the deformation parameters mu.

    Every mu_i must be a positive rational; this is the standing
    assumption for all operators built from these parameters.
    """

    __slots__ = ("n", "mu")

    def __init__(self, n: int, mu: Iterable[RationalLike]) -> None:
        if n < 1:
            raise ValueError(f"dimension must be positive, got {n}")
        mu = tuple(mu)
        if len(mu) != n:
            raise ValueError(f"expected {n} deformation parameters, got {len(mu)}")
        mu = tuple(_rational(m, f"mu_{i}") for i, m in enumerate(mu, start=1))
        for i, m in enumerate(mu, start=1):
            if m <= 0:
                raise ValueError(f"mu_{i} = {m} violates the requirement mu_i > 0")
        super().__init__(n, mu)

    @classmethod
    def make(cls, mu: Iterable[RationalLike]) -> "ParameterSet":
        values = tuple(mu)
        return cls(len(values), values)

    @classmethod
    def default(cls, n: int) -> "ParameterSet":
        """Distinct parameters 1/2, 1/3, ..., 1/(n+1); avoids spectral degeneracies."""
        return cls(n, tuple(Fraction(1, i + 2) for i in range(n)))

    def mu_of(self, i: int) -> Fraction:
        """Deformation parameter attached to coordinate i (1-based)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"coordinate index {i} out of range 1..{self.n}")
        return self.mu[i - 1]


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    ``terms`` maps each exponent tuple to a nonzero integer numerator over
    the one positive denominator ``den``, in lowest terms: the gcd of den
    and every numerator is 1, and the zero polynomial is {} over 1.  So
    equal polynomials have equal terms and den.  Read ``coefficient`` or
    ``sorted_terms`` for the coefficients as Fractions.
    """

    __slots__ = ("n", "terms", "den")

    def __init__(self, n: int, terms: dict[Monomial, RationalLike] | None = None):
        if n < 1:
            raise ValueError(f"dimension must be positive, got {n}")
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != n:
                    raise ValueError(f"exponent tuple {exps} does not have length {n}")
                c = _rational(coeff, "coefficient")
                if c != 0:
                    clean[tuple(exps)] = c
        den = lcm(1, *(c.denominator for c in clean.values()))
        ints = {exps: c.numerator * (den // c.denominator) for exps, c in clean.items()}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", ints)
        object.__setattr__(self, "den", den)

    @classmethod
    def _trusted(cls, n: int, terms: dict[Monomial, int], den: int) -> "Polynomial":
        """Wrap terms / den as they are, without copying or checking.

        The caller guarantees a dict that nothing will modify, mapping
        length-n exponent tuples to nonzero integers, and den > 0, in
        lowest terms.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def _reduced(cls, n: int, terms: dict[Monomial, int], den: int) -> "Polynomial":
        """terms / den in lowest terms: nonzero integer numerators, den > 0."""
        g = gcd(den, *terms.values())
        if g > 1:
            terms = {exps: x // g for exps, x in terms.items()}
            den //= g
        return cls._trusted(n, terms, den)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial instances are immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "Polynomial":
        return cls(n, {(0,) * n: 1})

    @classmethod
    def constant(cls, n: int, value: RationalLike) -> "Polynomial":
        return cls(n, {(0,) * n: value})

    @classmethod
    def variable(cls, n: int, i: int) -> "Polynomial":
        """The coordinate polynomial x_i (1-based index)."""
        if not 1 <= i <= n:
            raise IndexError(f"variable index {i} out of range 1..{n}")
        exps = [0] * n
        exps[i - 1] = 1
        return cls(n, {tuple(exps): 1})

    @classmethod
    def monomial(cls, n: int, exps: Iterable[int], coeff: RationalLike = 1) -> "Polynomial":
        return cls(n, {tuple(exps): coeff})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def coefficient(self, exps: Iterable[int]) -> Fraction:
        return Fraction(self.terms.get(tuple(exps), 0), self.den)

    def support_variables(self) -> set[int]:
        """1-based indices of variables that actually occur."""
        used: set[int] = set()
        for exps in self.terms:
            for pos, e in enumerate(exps):
                if e:
                    used.add(pos + 1)
        return used

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in canonical order (graded lex, leading term first), as Fractions."""
        terms, den = self.terms, self.den
        return [
            (e, Fraction(terms[e], den))
            for e in sorted(terms, key=_term_sort_key, reverse=True)
        ]

    # -- arithmetic --------------------------------------------------------

    def _require_same_dim(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_dim(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = {e: a * x for e, x in self.terms.items()} if a != 1 else dict(self.terms)
        for exps, y in other.terms.items():
            y *= b
            old = out.get(exps)
            if old is None:
                out[exps] = y
                continue
            new = old + y
            if new:
                out[exps] = new
            else:
                del out[exps]
        return Polynomial._reduced(self.n, out, den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.n, {e: -x for e, x in self.terms.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._require_same_dim(other)
            out: dict[Monomial, int] = {}
            for ea, xa in self.terms.items():
                for eb, xb in other.terms.items():
                    exps = tuple(x + y for x, y in zip(ea, eb))
                    old = out.get(exps)
                    if old is None:
                        out[exps] = xa * xb
                        continue
                    new = old + xa * xb
                    if new:
                        out[exps] = new
                    else:
                        del out[exps]
            return Polynomial._reduced(self.n, out, self.den * other.den)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c: RationalLike) -> "Polynomial":
        c = _rational(c, "scale")
        if c == 0:
            return Polynomial.zero(self.n)
        a = c.numerator
        return Polynomial._reduced(
            self.n, {e: x * a for e, x in self.terms.items()}, self.den * c.denominator
        )

    # -- evaluation --------------------------------------------------------

    def evaluate(self, values: Iterable[RationalLike]) -> Fraction:
        vals = [_rational(v, "value") for v in values]
        if len(vals) != self.n:
            raise ValueError(f"expected {self.n} values, got {len(vals)}")
        total = Fraction(0)
        for exps, x in self.terms.items():
            term = Fraction(x)
            for e, v in zip(exps, vals):
                if e:
                    term *= v**e
            total += term
        return total / self.den

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, self.den, frozenset(self.terms.items())))

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, e.g. ``1/2 * x1^2 x2 + -3 * x3 + 1``."""
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            vars_part = " ".join(
                f"x{pos + 1}^{e}" if e > 1 else f"x{pos + 1}"
                for pos, e in enumerate(exps)
                if e
            )
            parts.append(f"{coeff} * {vars_part}" if vars_part else str(coeff))
        return " + ".join(parts)

    def to_json_obj(self) -> list[dict]:
        return [
            {"exponents": list(exps), "num": str(coeff.numerator), "den": str(coeff.denominator)}
            for exps, coeff in self.sorted_terms()
        ]

    def __repr__(self) -> str:
        return f"Polynomial({self.n}, {self.to_text()!r})"


def poly_space_dim(n: int, k: int) -> int:
    """The number of monomials of degree k in n variables: C(n+k-1, k), and 0 for k < 0.

    It is len(monomial_basis(n, k)) for n >= 1; n = 0 holds the one empty
    monomial, of degree 0.
    """
    if k < 0:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    return comb(n + k - 1, k)


@cache
def monomial_basis(n: int, k: int) -> tuple[Monomial, ...]:
    """All exponent tuples of total degree k, in descending lex order.

    This is the canonical row/column indexing for operator matrices on the
    space of homogeneous degree-k polynomials; its length is
    poly_space_dim(n, k).  It is the blocks e_0 = k, k-1, ..., 0, block e_0
    being (e_0,) + each tuple of monomial_basis(n - 1, k - e_0), and block
    e_0 starts at index poly_space_dim(n, k - e_0 - 1).  Each (n, k) is
    enumerated once per process.
    """
    if k < 0:
        return ()
    if n == 1:
        return ((k,),)
    return tuple([(e,) + rest for e in range(k, -1, -1) for rest in monomial_basis(n - 1, k - e)])


@cache
def monomial_positions(n: int, k: int) -> Mapping[Monomial, int]:
    """Read-only map from each exponent tuple of monomial_basis(n, k) to its index."""
    return MappingProxyType({exps: i for i, exps in enumerate(monomial_basis(n, k))})


@cache
def exponent_columns(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The exponents of each coordinate over monomial_basis(n, k): column pos holds e_pos.

    An empty basis gives n empty columns.
    """
    return tuple(zip(*monomial_basis(n, k))) or ((),) * n


@cache
def subset_degrees(n: int, k: int, positions: tuple[int, ...]) -> tuple[int, ...]:
    """Each monomial's degree over the 0-based coordinates positions, in monomial_basis(n, k).

    With one position it is that coordinate's exponent column itself; with
    more, the columns are summed entry by entry; with none, every degree
    is 0.
    """
    if not positions:
        return (0,) * poly_space_dim(n, k)
    columns = exponent_columns(n, k)
    if len(positions) == 1:
        return columns[positions[0]]
    return tuple(map(sum, zip(*[columns[pos] for pos in positions])))


@cache
def coordinate_moves(n: int, k: int, pos: int, step: int) -> tuple[tuple[int, tuple], ...]:
    """The moves x^e -> x^(e + step at pos) from degree k, grouped by the exponent e_pos.

    One (e, pairs) per exponent e of the 0-based coordinate pos that a
    degree-k monomial holds with e + step >= 0, in increasing e; pairs
    lists (row, column) for each such monomial: its column in
    monomial_basis(n, k) and the row of its moved monomial in
    monomial_basis(n, k + step).  A move is one-to-one, so each row
    appears at most once.

    Both indices are read from the blocks of monomial_basis, with no
    exponent tuple.  At pos 0 the block e_0 = e of degree k and the block
    e + step of degree k + step both start at poly_space_dim(n, k - e - 1),
    so each monomial keeps its index.  At pos > 0 the blocks e_0 >= 1 of
    degree k are x_1 times monomial_basis(n, k - 1), index for index, at
    either degree, so their pairs are those of coordinate_moves(n, k - 1,
    pos, step); the block e_0 = 0 is monomial_basis(n - 1, k), whose pairs
    are those of coordinate_moves(n - 1, k, pos - 1, step), the columns
    offset by poly_space_dim(n, k - 1) and the rows by poly_space_dim(n,
    k + step - 1).  So a move shifts the monomials of one prefix
    (e_0..e_pos-1) by one offset.
    """
    low = max(0, -step)
    if k < low:
        return ()
    groups = []
    if pos == 0:
        for e in range(low, k + 1):
            a, b = poly_space_dim(n, k - e - 1), poly_space_dim(n, k - e)
            if a < b:
                groups.append((e, tuple(zip(range(a, b), range(a, b)))))
        return tuple(groups)
    below = dict(coordinate_moves(n, k - 1, pos, step))
    block = dict(coordinate_moves(n - 1, k, pos - 1, step))
    c, r = poly_space_dim(n, k - 1), poly_space_dim(n, k + step - 1)
    for e in range(low, k + 1):
        pairs = below.get(e, ()) + tuple([(i + r, j + c) for i, j in block.get(e, ())])
        if pairs:
            groups.append((e, pairs))
    return tuple(groups)
