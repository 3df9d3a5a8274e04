"""Maximal commuting chains, the recoupling graph, and basis-change paths.

A chain is the commuting family attached to the nested prefixes of a
variable ordering; swapping the first two variables leaves every prefix
set unchanged, so orderings are canonicalized with the first pair sorted.
Two chains are adjacent when their generator lists differ in exactly one
position, and any two chains are joined by a walk obtained by expanding
the relating permutation into adjacent transpositions of the ordering;
flips of the first two positions are skipped because they do not move
the chain.
"""

from __future__ import annotations

from functools import total_ordering
from itertools import permutations
from typing import Sequence

from .connection import ConnectionMatrix, _solve_connection, connection_matrix
from .harmonics import build_basis_tower
from .poly import Frozen, ParameterSet


@total_ordering
class Chain(Frozen):
    """Canonical form of a maximal commuting chain, keyed and ordered by its ordering tuple."""

    __slots__ = ("order",)

    def __init__(self, order: Sequence[int]) -> None:
        order = tuple(order)
        n = len(order)
        if n < 3:
            raise ValueError("chains need at least three variables")
        if sorted(order) != list(range(1, n + 1)):
            raise ValueError(f"{order} is not a permutation of 1..{n}")
        if order[0] > order[1]:
            raise ValueError("canonical chains have their first pair sorted")
        super().__init__(order)

    def __lt__(self, other: object) -> bool:
        return self.order < other.order if type(other) is Chain else NotImplemented

    @classmethod
    def from_order(cls, order: Sequence[int]) -> "Chain":
        order = tuple(order)
        if len(order) >= 2 and order[0] > order[1]:
            order = (order[1], order[0]) + order[2:]
        return cls(order)

    @property
    def n(self) -> int:
        return len(self.order)

    @property
    def generators(self) -> tuple[frozenset, ...]:
        """Prefix subsets of sizes 2 .. n-1."""
        return tuple(frozenset(self.order[:m]) for m in range(2, self.n))

    def generator_names(self) -> tuple[str, ...]:
        return tuple(
            "C" + "".join(str(i) for i in sorted(s)) for s in self.generators
        )

    def __str__(self) -> str:
        return "(" + ",".join(self.generator_names()) + ")"


def enumerate_chains(n: int) -> list[Chain]:
    """All distinct chains on n variables, sorted; there are n!/2 of them."""
    if n < 3:
        raise ValueError("chains need at least three variables")
    return sorted({Chain.from_order(p) for p in permutations(range(1, n + 1))})


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


def neighbors(chain: Chain) -> list[Chain]:
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


def path(start: Chain, goal: Chain) -> list[Chain]:
    """A walk from start to goal along graph edges, excluding start itself.

    The relating permutation is split into transpositions; a transposition
    of positions i < j becomes j - i downward flips followed by j - i - 1
    upward flips of adjacent entries.  Flips of the first two positions
    leave the chain unchanged and contribute no step.  The returned list
    has one chain per traversed edge and is empty when start == goal.
    """
    if start.n != goal.n:
        raise ValueError("chains live on different variable counts")
    if start == goal:
        return []
    current = list(start.order)
    target = goal.order
    walk: list[Chain] = []

    def flip(a: int) -> None:
        current[a], current[a + 1] = current[a + 1], current[a]
        if a >= 1:
            walk.append(Chain.from_order(current))

    for p in range(len(target)):
        if current[p] == target[p]:
            continue
        q = current.index(target[p])
        for a in range(q - 1, p - 1, -1):
            flip(a)
        for a in range(p + 1, q):
            flip(a)
    assert walk and walk[-1] == goal
    return walk


class RecouplingGraph(Frozen):
    __slots__ = ("vertices", "edges")  # tuples of the sorted chains and of index pairs i < j

    def degree(self, index: int) -> int:
        return sum(1 for e in self.edges if index in e)

    def to_json_obj(self) -> dict:
        return {
            "vertices": [str(v) for v in self.vertices],
            "edges": [list(e) for e in self.edges],
        }

    def to_dot(self) -> str:
        lines = ["graph recoupling {"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for i, j in self.edges:
            lines.append(f'  "{self.vertices[i]}" -- "{self.vertices[j]}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_graph(n: int) -> RecouplingGraph:
    vertices = enumerate_chains(n)
    index = {chain: i for i, chain in enumerate(vertices)}
    edges: set[tuple[int, int]] = set()
    for chain in vertices:
        i = index[chain]
        for other in neighbors(chain):
            j = index[other]
            edges.add((min(i, j), max(i, j)))
    return RecouplingGraph(tuple(vertices), tuple(sorted(edges)))


def connection_pipeline(
    params: ParameterSet, k: int, start: Chain, goal: Chain
) -> list[ConnectionMatrix]:
    """Per-edge connection matrices along path(start, goal) at degree k.

    The composition of the returned matrices, in order, equals the direct
    connection matrix between the two endpoint bases.

    Only the first edge takes the rank of W.  Each edge's solve proves its
    target basis independent and holding every source element, and every
    basis after the start is the target of the edge before it; so with
    the start proven independent by the first rank, each square W maps an
    independent source into an independent target of the same size and is
    nonsingular.  The later edges run _solve_connection alone.
    """
    vertices = [start] + path(start, goal)
    bases = {
        chain: build_basis_tower(params, k, chain.order) for chain in set(vertices)
    }
    out: list[ConnectionMatrix] = []
    for a, b in zip(vertices, vertices[1:]):
        if out:
            out.append(_solve_connection(bases[a], bases[b]))
        else:
            out.append(connection_matrix(params, bases[a], bases[b]))
    return out
