"""Chain enumeration, the recoupling graph, and path/pipeline behaviour."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from racah_dunkl import connection, graph
from racah_dunkl import (
    Chain,
    ParameterSet,
    build_basis_tower,
    build_graph,
    casimir_eigenvalue,
    connection_matrix,
    connection_pipeline,
    enumerate_chains,
    enumerate_labels,
    neighbors,
    path,
)
from racah_dunkl.connection import ConnectionMatrix, SpanMismatch
from racah_dunkl.linalg import RationalMatrix

from reference import connected_by_paths, reference_neighbors


def test_chain_canonicalization():
    a = Chain.from_order((1, 2, 3, 4))
    b = Chain.from_order((2, 1, 3, 4))
    assert a == b
    assert a.generators == (frozenset({1, 2}), frozenset({1, 2, 3}))
    assert str(a) == "(C12,C123)"
    c = Chain.from_order((1, 3, 2, 4))
    assert c != a


def test_chain_validation():
    with pytest.raises(ValueError):
        Chain.from_order((1, 2))
    with pytest.raises(ValueError):
        Chain.from_order((1, 1, 2))


def test_enumerate_chain_counts():
    assert len(enumerate_chains(3)) == 3
    assert len(enumerate_chains(4)) == 12
    assert len(enumerate_chains(5)) == 60
    with pytest.raises(ValueError):
        enumerate_chains(2)
    # the canonical orders, sorted, of every permutation
    for n in range(3, 7):
        want = sorted({Chain.from_order(p) for p in permutations(range(1, n + 1))})
        assert enumerate_chains(n) == want


def test_n3_chains_and_neighbors():
    chains = enumerate_chains(3)
    names = {str(c) for c in chains}
    assert names == {"(C12)", "(C13)", "(C23)"}
    for c in chains:
        assert set(neighbors(c)) == set(chains) - {c}


def test_n4_figure_vertex_labels():
    expected = {
        "(C12,C123)", "(C12,C124)", "(C14,C124)", "(C24,C124)",
        "(C24,C234)", "(C23,C234)", "(C34,C234)", "(C34,C134)",
        "(C14,C134)", "(C13,C134)", "(C13,C123)", "(C23,C123)",
    }
    assert {str(c) for c in enumerate_chains(4)} == expected


def test_n4_neighbor_example():
    chain = Chain.from_order((1, 2, 3, 4))
    got = {str(c) for c in neighbors(chain)}
    assert got == {"(C12,C124)", "(C13,C123)", "(C23,C123)"}


def test_neighbors_are_the_prefix_replacement_search():
    for n in range(3, 8):
        for c in enumerate_chains(n):
            assert neighbors(c) == reference_neighbors(c)


def test_each_neighbor_replaces_one_generator():
    for n in range(3, 7):
        for c in enumerate_chains(n):
            got = neighbors(c)
            assert len(got) == n - 1
            for other in got:
                differ = [g != h for g, h in zip(c.generators, other.generators)]
                assert sum(differ) == 1, (c, other)


def test_neighbor_symmetry():
    for c in enumerate_chains(4):
        for other in neighbors(c):
            assert c in neighbors(other)


def test_graph_n4_shape():
    g = build_graph(4)
    assert len(g.vertices) == 12
    assert len(g.edges) == 18
    assert all(g.degree(i) == 3 for i in range(12))
    assert connected_by_paths(g)


def test_graph_n5_connected():
    g = build_graph(5)
    assert len(g.vertices) == 60
    assert connected_by_paths(g)


def test_graph_exports():
    g = build_graph(4)
    obj = g.to_json_obj()
    assert len(obj["vertices"]) == 12 and len(obj["edges"]) == 18
    dot = g.to_dot()
    assert dot.startswith("graph recoupling {")
    assert dot.count("--") == 18


def test_path_trivial_and_single_edge():
    a = Chain.from_order((1, 2, 3, 4))
    assert path(a, a) == []
    b = Chain.from_order((1, 2, 4, 3))
    assert str(b) == "(C12,C124)"
    walk = path(a, b)
    assert walk == [b]


def test_path_first_pair_swap_is_empty():
    a = Chain.from_order((1, 2, 3, 4))
    same = Chain.from_order((2, 1, 3, 4))
    assert path(a, same) == []


def test_path_random_pairs_are_walks():
    rng = random.Random(11)
    chains = enumerate_chains(5)
    for _ in range(25):
        a, b = rng.sample(chains, 2)
        walk = [a] + path(a, b)
        assert walk[-1] == b
        for u, v in zip(walk, walk[1:]):
            assert v in neighbors(u)
        # bound: total adjacent flips in the constructive decomposition,
        # counted by replaying the transpositions on the order list
        current = list(a.order)
        flips = 0
        for p in range(5):
            if current[p] != b.order[p]:
                q = current.index(b.order[p])
                flips += 2 * (q - p) - 1
                moved = current.pop(q)
                current.insert(p, moved)
                displaced = current.pop(p + 1)
                current.insert(q, displaced)
        assert current == list(b.order)
        assert len(walk) - 1 <= flips


def test_pipeline_single_edge_matches_direct():
    params = ParameterSet.make(["1/2", "1/3", "1/4"])
    a = Chain.from_order((1, 2, 3))
    b = Chain.from_order((2, 3, 1))
    mats = connection_pipeline(params, 3, a, b)
    assert len(mats) == 1
    direct = connection_matrix(
        params,
        build_basis_tower(params, 3, a.order),
        build_basis_tower(params, 3, b.order),
    )
    assert mats[0].entries == direct.entries


def test_pipeline_product_equals_direct_n4():
    params = ParameterSet.default(4)
    a = Chain.from_order((1, 2, 3, 4))
    b = Chain.from_order((2, 4, 3, 1))
    mats = connection_pipeline(params, 2, a, b)
    product = mats[0]
    for m in mats[1:]:
        product = product.compose(m)
    direct = connection_matrix(
        params,
        build_basis_tower(params, 2, a.order),
        build_basis_tower(params, 2, b.order),
    )
    assert product.entries == direct.entries


def test_pipeline_edges_block_diagonal():
    params = ParameterSet.default(4)
    a = Chain.from_order((1, 2, 3, 4))
    b = Chain.from_order((2, 4, 3, 1))
    vertices = [a] + path(a, b)
    mats = connection_pipeline(params, 2, a, b)
    for (u, v), w in zip(zip(vertices, vertices[1:]), mats):
        shared = set(u.generators) & set(v.generators)
        for s, from_label in enumerate(w.from_labels):
            for k, to_label in enumerate(w.to_labels):
                if w.at(s, k) == 0:
                    continue
                assert from_label.variable_parities() == to_label.variable_parities()
                for gen in shared:
                    assert casimir_eigenvalue(
                        params, from_label, len(gen)
                    ) == casimir_eigenvalue(params, to_label, len(gen))


BENCH_PARAMS = ParameterSet.make(["3/7", "5/2", "1/9", "8/3"])
BENCH_START = Chain.from_order((1, 2, 3, 4))
BENCH_GOAL = Chain.from_order((3, 4, 2, 1))


def _tower_with_a_doubled_element(monkeypatch, broken: Chain) -> None:
    # the broken chain's tower holds its first element twice, so it keeps
    # its size but is linearly dependent
    real = graph.build_basis_tower

    def tower(params, k, order=None):
        elements = real(params, k, order)
        if tuple(order) == broken.order:
            elements[1] = elements[0]
        return elements

    monkeypatch.setattr(graph, "build_basis_tower", tower)


def test_pipeline_takes_one_rank_per_walk(monkeypatch):
    # every basis after the start is the target of an edge's solve, which
    # proves it independent, so only the first edge needs the rank of W
    ranks = []
    real = connection.matrix_rank
    monkeypatch.setattr(connection, "matrix_rank", lambda rows: ranks.append(1) or real(rows))
    edges = connection_pipeline(BENCH_PARAMS, 6, BENCH_START, BENCH_GOAL)
    assert len(edges) == 6 and all(w.matrix.shape == (49, 49) for w in edges)
    assert len(ranks) == 1
    assert connection_pipeline(BENCH_PARAMS, 6, BENCH_START, BENCH_START) == []
    assert len(ranks) == 1


def test_pipeline_rejects_a_dependent_start_basis(monkeypatch):
    _tower_with_a_doubled_element(monkeypatch, BENCH_START)
    with pytest.raises(SpanMismatch, match="^source basis is linearly dependent$"):
        connection_pipeline(BENCH_PARAMS, 6, BENCH_START, BENCH_GOAL)


def test_pipeline_rejects_a_dependent_intermediate_basis_in_its_edge_solve(monkeypatch):
    vertices = [BENCH_START] + path(BENCH_START, BENCH_GOAL)
    broken = vertices[3]
    assert vertices.count(broken) == 1
    _tower_with_a_doubled_element(monkeypatch, broken)
    solved = []
    real = graph._solve_connection

    def solve(source, target):
        solved.append(tuple(target))
        return real(source, target)

    monkeypatch.setattr(graph, "_solve_connection", solve)
    with pytest.raises(SpanMismatch, match="^columns are linearly dependent$"):
        connection_pipeline(BENCH_PARAMS, 6, BENCH_START, BENCH_GOAL)
    # the first edge runs connection_matrix; edges 1 and 2 reach the
    # broken tower as the target of edge 2, whose solve raises
    assert len(solved) == 2
    assert [el.label.order for el in solved[-1]] == [broken.order] * 49


def _three_variable_edge(params, k, u, v, shift=0):
    """The W of the edge u -> v at degree k, assembled from three-variable connection matrices.

    With c the common prefix length of the orders, an edge with c >= 2
    flips positions a = c and a + 1, that is L = order[a] and M = order[a + 1]
    past the block K = order[:a]; a label splits into its K-part
    (epsilon[:a], ell[:a - 1]) of degree d_K, its local part
    ((0, epsilon[a], epsilon[a + 1]), (ell[a - 1], ell[a])) and its upper part
    (epsilon[a + 2:], ell[a + 1:]).  W[s][t] is the entry between the local
    parts of the connection matrix of the three-variable frame
    (d_K + gamma_K - 1/2 + shift, mu_L, mu_M), gamma_K = |K|/2 + sum of mu_K,
    from order (1, 2, 3) to (1, 3, 2), when s and t share their K-part and
    upper part, and 0 otherwise.  An edge with c < 2 moves the first pair
    inside the first three variables, which are the frame with their own
    mu and the orders relabelled; the local part is (epsilon[:3], ell[:2]).
    """
    c = next(i for i, (x, y) in enumerate(zip(u.order, v.order)) if x != y)
    if c >= 2:
        a, block = c, u.order[:c]
        assert (v.order[a], v.order[a + 1]) == (u.order[a + 1], u.order[a])
        gamma_k = Fraction(a, 2) + sum(params.mu_of(i) for i in block)
        orders = (1, 2, 3), (1, 3, 2)

        def split(label):
            eps, ell = label.epsilon, label.ell
            local = ((0, eps[a], eps[a + 1]), (ell[a - 1], ell[a]))
            return (eps[:a], ell[:a - 1]), local, (eps[a + 2:], ell[a + 1:])

        def frame(k_part):
            d_k = sum(k_part[0]) + 2 * sum(k_part[1])
            mu_eff = d_k + gamma_k - Fraction(1, 2) + shift
            return ParameterSet(3, (mu_eff, params.mu_of(u.order[a]), params.mu_of(u.order[a + 1])))
    else:
        first = {var: i + 1 for i, var in enumerate(u.order[:3])}
        orders = (1, 2, 3), tuple(first[var] for var in v.order[:3])

        def split(label):
            eps, ell = label.epsilon, label.ell
            return (), (eps[:3], ell[:2]), (eps[3:], ell[2:])

        def frame(k_part):
            return ParameterSet(3, tuple(params.mu_of(var) for var in u.order[:3]))

    local_w = {}

    def entry(k_part, s_local, t_local):
        d3 = sum(s_local[0]) + 2 * sum(s_local[1])
        key = (k_part, d3)
        if key not in local_w:
            p3 = frame(k_part)
            towers = [
                [el for el in build_basis_tower(p3, d3, order) if c < 2 or el.label.epsilon[0] == 0]
                for order in orders
            ]
            w3 = connection_matrix(p3, *towers)
            local_w[key] = {
                ((f.epsilon, f.ell), (g.epsilon, g.ell)): w3.at(i, j)
                for i, f in enumerate(w3.from_labels)
                for j, g in enumerate(w3.to_labels)
            }
        return local_w[key][s_local, t_local]

    sources = enumerate_labels(params.n, k, u.order)
    targets = enumerate_labels(params.n, k, v.order)
    target_parts = [split(t) for t in targets]
    rows = [
        [entry(s[0], s[1], t[1]) if (s[0], s[2]) == (t[0], t[2]) else 0 for t in target_parts]
        for s in map(split, sources)
    ]
    return ConnectionMatrix(tuple(sources), tuple(targets), RationalMatrix.from_fractions(rows))


PIPELINE_WALKS = (
    (BENCH_PARAMS, 6, BENCH_START, BENCH_GOAL),
    # criterion 11's walks
    (ParameterSet.default(4), 3, Chain.from_order((1, 2, 3, 4)), Chain.from_order((2, 4, 3, 1))),
    (ParameterSet.default(5), 4, Chain.from_order((1, 2, 3, 4, 5)),
     Chain.from_order((2, 4, 5, 3, 1))),
    (ParameterSet.default(5), 6, Chain.from_order((1, 2, 3, 4, 5)),
     Chain.from_order((4, 5, 3, 2, 1))),
)


@pytest.mark.parametrize("params, k, start, goal", PIPELINE_WALKS)
def test_every_pipeline_edge_is_assembled_from_three_variable_connections(params, k, start, goal):
    vertices = [start] + path(start, goal)
    edges = connection_pipeline(params, k, start, goal)
    assert len(edges) == len(vertices) - 1
    for (u, v), w in zip(zip(vertices, vertices[1:]), edges):
        assembled = _three_variable_edge(params, k, u, v)
        assert w.matrix == assembled.matrix and w.matrix.den == assembled.matrix.den
        assert w.to_json_obj() == assembled.to_json_obj()


def test_the_edge_oracle_fails_with_the_effective_parameter_off_by_one_half():
    vertices = [BENCH_START] + path(BENCH_START, BENCH_GOAL)
    edges = connection_pipeline(BENCH_PARAMS, 6, BENCH_START, BENCH_GOAL)
    block_edges = 0
    for (u, v), w in zip(zip(vertices, vertices[1:]), edges):
        if u.order[:2] == v.order[:2]:
            block_edges += 1
            assert w.matrix != _three_variable_edge(BENCH_PARAMS, 6, u, v, Fraction(1, 2)).matrix
    assert block_edges > 0
