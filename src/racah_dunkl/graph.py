"""Maximal commuting chains, the recoupling graph, and basis-change paths.

A chain is the commuting family attached to the nested prefixes of a
variable ordering; swapping the first two variables leaves every prefix
set unchanged, so orderings are canonicalized with the first pair sorted.
The one move of the graph is an adjacent transposition of the ordering
past its first pair: flipping positions a and a + 1 (0-based, a >= 1)
replaces the size-(a + 1) prefix and keeps every other, so two chains are
adjacent exactly when their generator lists differ in one position.  Any
two chains are joined by a walk obtained by expanding the relating
permutation into such flips; flips of the first two positions are
skipped because they do not move the chain.
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
    # permutations yields the orderings in lexicographic order
    return [Chain(p) for p in permutations(range(1, n + 1)) if p[0] < p[1]]


def _flip(order: Sequence[int], a: int) -> tuple[int, ...]:
    """The ordering with positions a and a + 1 exchanged."""
    return (*order[:a], order[a + 1], order[a], *order[a + 2:])


def neighbors(chain: Chain) -> list[Chain]:
    """Chains whose generator list differs from this one in exactly one spot.

    Each is one flip past the first pair, of the ordering or of the
    ordering with its first pair exchanged: the flip at a >= 2 gives the
    same chain from both, and the flip at a = 1 two different size-2
    prefixes, which is why every vertex has degree n - 1.
    """
    orders = (chain.order, _flip(chain.order, 0))
    return sorted({Chain.from_order(_flip(o, a)) for o in orders for a in range(1, chain.n - 1)})


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
    current = start.order
    target = goal.order
    walk: list[Chain] = []
    for p in range(len(target)):
        if current[p] == target[p]:
            continue
        q = current.index(target[p])
        for a in (*range(q - 1, p - 1, -1), *range(p + 1, q)):
            current = _flip(current, a)
            if a >= 1:
                walk.append(Chain.from_order(current))
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
