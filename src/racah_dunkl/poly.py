"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in x_1..x_n is stored as a dict mapping exponent tuples to
nonzero Fraction coefficients.  All arithmetic is exact; there is no
floating point anywhere in this package.  Variable indices in the public
API are 1-based (x_1 is the first coordinate), matching the usual
mathematical notation; exponent tuples are 0-based internally.

Canonical term order is graded lexicographic with x1 > x2 > ... > xn,
highest degree first.  Serialization (text and JSON) lists terms in that
order, so equal polynomials serialize to identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import Iterable, Mapping

Monomial = tuple[int, ...]

RationalLike = Fraction | int | str


class NotDivisible(ValueError):
    """Raised when a coordinate division would leave the polynomial ring."""


def _term_sort_key(exps: Monomial) -> tuple[int, Monomial]:
    return (sum(exps), exps)


@dataclass(frozen=True)
class ParameterSet:
    """Ambient dimension n together with the deformation parameters mu.

    Every mu_i must be a positive rational; this is the standing
    assumption for all operators built from these parameters.
    """

    n: int
    mu: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be positive, got {self.n}")
        if len(self.mu) != self.n:
            raise ValueError(f"expected {self.n} deformation parameters, got {len(self.mu)}")
        for i, m in enumerate(self.mu, start=1):
            if not isinstance(m, (int, Fraction, str)):
                raise ValueError(
                    f"mu_{i} = {m!r} is a {type(m).__name__}; "
                    "pass an int, a Fraction or a 'p/q' string"
                )
        object.__setattr__(self, "mu", tuple(Fraction(m) for m in self.mu))
        for i, m in enumerate(self.mu, start=1):
            if m <= 0:
                raise ValueError(f"mu_{i} = {m} violates the requirement mu_i > 0")

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
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("n", "terms", "_hash")

    def __init__(self, n: int, terms: dict[Monomial, Fraction] | None = None):
        if n < 1:
            raise ValueError(f"dimension must be positive, got {n}")
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != n:
                    raise ValueError(f"exponent tuple {exps} does not have length {n}")
                c = Fraction(coeff)
                if c != 0:
                    clean[tuple(exps)] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _trusted(cls, n: int, terms: dict[Monomial, Fraction]) -> "Polynomial":
        """Wrap terms that are already clean, without copying or checking.

        The caller guarantees a dict that nothing else holds, mapping
        length-n exponent tuples to nonzero Fractions.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial instances are immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "Polynomial":
        return cls(n, {(0,) * n: Fraction(1)})

    @classmethod
    def constant(cls, n: int, value: RationalLike) -> "Polynomial":
        return cls(n, {(0,) * n: Fraction(value)})

    @classmethod
    def variable(cls, n: int, i: int) -> "Polynomial":
        """The coordinate polynomial x_i (1-based index)."""
        if not 1 <= i <= n:
            raise IndexError(f"variable index {i} out of range 1..{n}")
        exps = [0] * n
        exps[i - 1] = 1
        return cls(n, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, n: int, exps: Iterable[int], coeff: RationalLike = 1) -> "Polynomial":
        return cls(n, {tuple(exps): Fraction(coeff)})

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

    def homogeneous_components(self) -> dict[int, "Polynomial"]:
        """Split into homogeneous parts, keyed by total degree (ascending)."""
        parts: dict[int, dict[Monomial, Fraction]] = {}
        for exps, coeff in self.terms.items():
            parts.setdefault(sum(exps), {})[exps] = coeff
        return {d: Polynomial._trusted(self.n, parts[d]) for d in sorted(parts)}

    def coefficient(self, exps: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.n, Fraction(0))

    def support_variables(self) -> set[int]:
        """1-based indices of variables that actually occur."""
        used: set[int] = set()
        for exps in self.terms:
            for pos, e in enumerate(exps):
                if e:
                    used.add(pos + 1)
        return used

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in canonical order (graded lex, leading term first)."""
        return [(e, self.terms[e]) for e in sorted(self.terms, key=_term_sort_key, reverse=True)]

    # -- arithmetic --------------------------------------------------------

    def _require_same_dim(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_dim(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            old = out.get(exps)
            if old is None:
                out[exps] = coeff
                continue
            new = old + coeff
            if new:
                out[exps] = new
            else:
                del out[exps]
        return Polynomial._trusted(self.n, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.n, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._require_same_dim(other)
            out: dict[Monomial, Fraction] = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    exps = tuple(x + y for x, y in zip(ea, eb))
                    old = out.get(exps)
                    if old is None:
                        out[exps] = ca * cb
                        continue
                    new = old + ca * cb
                    if new:
                        out[exps] = new
                    else:
                        del out[exps]
            return Polynomial._trusted(self.n, out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c: RationalLike) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return Polynomial.zero(self.n)
        return Polynomial._trusted(self.n, {e: coeff * c for e, coeff in self.terms.items()})

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative powers are not polynomials")
        result = Polynomial.one(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return result

    # -- coordinate operations --------------------------------------------

    def _check_index(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"variable index {i} out of range 1..{self.n}")
        return i - 1

    def partial_derivative(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to x_i."""
        pos = self._check_index(i)
        out: dict[Monomial, Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[pos]
            if e == 0:
                continue
            lowered = exps[:pos] + (e - 1,) + exps[pos + 1:]
            new = out.get(lowered, Fraction(0)) + coeff * e
            if new:
                out[lowered] = new
            else:
                out.pop(lowered, None)
        return Polynomial._trusted(self.n, out)

    def reflect(self, i: int) -> "Polynomial":
        """Sign flip x_i -> -x_i; negates terms odd in x_i."""
        pos = self._check_index(i)
        return Polynomial._trusted(
            self.n,
            {e: (-c if e[pos] % 2 else c) for e, c in self.terms.items()},
        )

    def divide_by_coordinate(self, i: int) -> "Polynomial":
        """Exact quotient by x_i; every term must have positive exponent in x_i."""
        pos = self._check_index(i)
        out: dict[Monomial, Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[pos]
            if e == 0:
                raise NotDivisible(
                    f"term with exponents {exps} has no factor x{i}"
                )
            out[exps[:pos] + (e - 1,) + exps[pos + 1:]] = coeff
        return Polynomial._trusted(self.n, out)

    def restrict_to_zero(self, i: int) -> "Polynomial":
        """Set x_i = 0: keep only terms with exponent 0 in x_i."""
        pos = self._check_index(i)
        return Polynomial._trusted(
            self.n, {e: c for e, c in self.terms.items() if e[pos] == 0}
        )

    def evaluate(self, values: Iterable[RationalLike]) -> Fraction:
        vals = [Fraction(v) for v in values]
        if len(vals) != self.n:
            raise ValueError(f"expected {self.n} values, got {len(vals)}")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for e, v in zip(exps, vals):
                if e:
                    term *= v**e
            total += term
        return total

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.n, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

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

    @classmethod
    def from_text(cls, n: int, text: str) -> "Polynomial":
        text = text.strip()
        if text == "0":
            return cls.zero(n)
        terms: dict[Monomial, Fraction] = {}
        for raw in text.split("+"):
            token = raw.strip()
            if not token:
                raise ValueError(f"empty term in {text!r}")
            if "*" in token:
                coeff_part, vars_part = token.split("*", 1)
                coeff = Fraction(coeff_part.strip())
                exps = [0] * n
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
                exps = [0] * n
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return cls(n, terms)

    def to_json_obj(self) -> list[dict]:
        return [
            {"exponents": list(exps), "num": str(coeff.numerator), "den": str(coeff.denominator)}
            for exps, coeff in self.sorted_terms()
        ]

    @classmethod
    def from_json_obj(cls, n: int, data: list[dict]) -> "Polynomial":
        terms: dict[Monomial, Fraction] = {}
        for item in data:
            exps = tuple(int(e) for e in item["exponents"])
            coeff = Fraction(int(item["num"]), int(item["den"]))
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        return cls(n, terms)

    def __repr__(self) -> str:
        return f"Polynomial({self.n}, {self.to_text()!r})"


@cache
def monomial_basis(n: int, k: int) -> tuple[Monomial, ...]:
    """All exponent tuples of total degree k, in descending lex order.

    This is the canonical row/column indexing for operator matrices on the
    space of homogeneous degree-k polynomials; its length is C(n+k-1, k).
    Each (n, k) is enumerated once per process.
    """
    if k < 0:
        return ()
    # tails[t]: the exponent tuples of degree t in the last m variables
    tails = [[(t,)] for t in range(k + 1)]
    for _ in range(n - 1):
        tails = [
            [(e,) + rest for e in range(t, -1, -1) for rest in tails[t - e]]
            for t in range(k + 1)
        ]
    return tuple(tails[k])


@cache
def monomial_positions(n: int, k: int) -> Mapping[Monomial, int]:
    """Read-only map from each exponent tuple of monomial_basis(n, k) to its index."""
    return MappingProxyType({exps: i for i, exps in enumerate(monomial_basis(n, k))})
