"""Acceptance criteria, one test per criterion, exact (zero-tolerance) equality.

Every criterion prints a single pass/fail line; run with `pytest -s
tests/test_acceptance.py` to see the lines as they complete.  All
comparisons are exact rational identities, so there are no tolerances to
calibrate anywhere.
"""

import random

from racah_dunkl import (
    Chain,
    DunklOperators,
    ParameterSet,
    Polynomial,
    build_basis_tower,
    build_graph,
    casimir,
    casimir_eigenvalue,
    connection_matrix,
    connection_pipeline,
    enumerate_chains,
    module_dimension,
    module_tridiagonal_data,
    neighbors,
    parity_blocks,
    path,
    racah_parameters,
    racah_recurrence_polys,
    spectral_data,
    tridiagonal_check,
    verify_casimir_laplacian_commute,
    verify_ck,
    verify_nested_disjoint_commute,
    verify_racah_relations,
    verify_spectral_action,
    verify_su11,
)

from reference import connected_by_paths
from report_helpers import failures, select


def _passed(num: int, text: str) -> None:
    print(f"[ACCEPTANCE] criterion {num:2d}: PASS - {text}")


def _require(report, num: int):
    if not report.ok:
        first = failures(report)[0]
        print(
            f"[ACCEPTANCE] criterion {num:2d}: FAIL - {first.relation} "
            f"{first.index_tuple} degree {first.degree}: {first.first_discrepancy}"
        )
    assert report.ok


def test_criterion_01_su11_brackets():
    params = ParameterSet.make(["1/2", "1/3", "1/4"])
    report = verify_su11(params, 6)
    _require(report, 1)
    assert len(report) == 7 * 3 * 7  # subsets x relations x degrees 0..6
    for n, subsets in ((4, 15), (5, 31), (6, 63)):
        report = verify_su11(ParameterSet.default(n), 4)
        _require(report, 1)
        assert len(report) == subsets * 3 * 5
    _passed(1, "su(1,1) bracket identities, all subsets, n=3 (k<=6), n=4, 5 and 6 (k<=4)")


def test_criterion_02_racah_relations_all_ranks():
    for n, kmax in ((3, 6), (4, 4), (5, 5), (6, 4), (7, 3)):
        params = ParameterSet.default(n)
        report = verify_racah_relations(params, kmax)
        _require(report, 2)
        if n == 7:
            assert len(report) == 19828
    _passed(
        2,
        "all five relation families, n=3 (k<=6), n=4 (k<=4), n=5 (k<=5), n=6 (k<=4),"
        " n=7 (k<=3)",
    )


def test_criterion_03_central_commutation():
    for n in (3, 4):
        params = ParameterSet.default(n)
        _require(verify_casimir_laplacian_commute(params, 4), 3)
        _require(verify_nested_disjoint_commute(params, 4), 3)
    for n, kmax, subsets in ((5, 5, 31), (6, 4, 63)):
        report = verify_casimir_laplacian_commute(ParameterSet.default(n), kmax)
        _require(report, 3)
        assert len(report) == subsets * (kmax + 1)
    _passed(
        3,
        "invariants commute with the full Laplacian (n<=4 k<=4, n=5 k<=5, n=6 k<=4)"
        " and with nested/disjoint invariants (n<=4, k<=4)",
    )


def test_criterion_04_pairwise_commutation_pattern():
    params = ParameterSet.default(4)
    from racah_dunkl import verify_drinfeld_kohno

    _require(verify_drinfeld_kohno(params, 4), 4)
    _passed(4, "disjoint pairs commute and adjacent pair sums commute, n=4, k<=4")


def test_criterion_05_extension_basis_suite():
    report = verify_ck(ParameterSet.default(4), 5)
    tower = select(report, "tower-element-harmonic", "tower-count", "tower-linear-independence")
    extensions = select(
        report,
        "extension-restriction-even",
        "extension-derivative-restriction-odd",
        "extension-harmonic",
    )
    for part in (tower, extensions):
        _require(part, 5)
        assert len(part) == 3 * 6
    _passed(5, "tower bases harmonic/counted/independent with restriction identities, n=4, k<=5")


def test_criterion_06_closed_form():
    for n, kmax in ((3, 6), (4, 4)):
        report = select(verify_ck(ParameterSet.default(n), kmax), "closed-form-matches-tower")
        _require(report, 6)
        assert len(report) == kmax + 1
    _passed(6, "product closed form equals the tower element for every label, n=3 k<=6 and n=4 k<=4")


def test_criterion_07_spectral_action():
    params = ParameterSet.default(4)
    report = verify_spectral_action(params, 5)
    _require(report, 7)
    _passed(7, "prefix invariants act by the closed eigenvalues on every label, n=4, k<=5, all prefixes")


def test_criterion_08_tridiagonal_data():
    params = ParameterSet.make(["1/2", "1/3", "1/4"])
    c23 = casimir(DunklOperators(params), (2, 3))
    modules = 0
    for d3 in range(9):
        tower = build_basis_tower(params, d3)
        for eps, idx in parity_blocks(tower).items():
            assert len(idx) == module_dimension(eps, d3)
            basis = [tower[p] for p in idx]
            expected = {eps: module_tridiagonal_data(params, eps, d3)}
            data = tridiagonal_check(params, c23, basis, expected)
            _require(data.report, 8)
            modules += 1
    assert modules == 32
    _passed(8, f"second-pair invariant tridiagonal with exact B_k and U_k^2 on {modules} modules (all parities, degree <= 8)")


def test_criterion_09_recurrence_annihilates_spectrum():
    params = ParameterSet.make(["1/2", "1/3", "1/4"])
    pair_op = casimir(DunklOperators(params), (2, 3))
    checked = 0
    for d3 in range(9):
        tower = build_basis_tower(params, d3, order=(2, 3, 1))
        for eps, idx in parity_blocks(tower).items():
            m = module_dimension(eps, d3)
            assert len(idx) == m
            sd = spectral_data(params, eps, d3)
            rp = racah_parameters(params, eps, d3)
            top = racah_recurrence_polys(rp, sd, m)[m]
            for el in (tower[p] for p in idx):
                mu_s = casimir_eigenvalue(params, el.label, 2)
                # mu_s really is a realized eigenvalue of the operator
                assert pair_op(el.poly) == el.poly.scale(mu_s)
                assert top.evaluate([mu_s + rp.tau]) == 0
                checked += 1
    _passed(9, f"top recurrence polynomial annihilates the shifted spectrum at {checked} eigenvalues")


def test_criterion_10_recoupling_graph():
    g4 = build_graph(4)
    expected = {
        "(C12,C123)", "(C12,C124)", "(C14,C124)", "(C24,C124)",
        "(C24,C234)", "(C23,C234)", "(C34,C234)", "(C34,C134)",
        "(C14,C134)", "(C13,C134)", "(C13,C123)", "(C23,C123)",
    }
    assert {str(v) for v in g4.vertices} == expected
    assert len(g4.vertices) == 12
    assert len(g4.edges) == 18
    assert all(g4.degree(i) == 3 for i in range(12))
    assert connected_by_paths(g4)

    g5 = build_graph(5)
    assert len(g5.vertices) == 60
    assert connected_by_paths(g5)

    rng = random.Random(3)
    chains = enumerate_chains(5)
    for _ in range(30):
        a, b = rng.sample(chains, 2)
        walk = [a] + path(a, b)
        assert walk[-1] == b
        for u, v in zip(walk, walk[1:]):
            assert v in neighbors(u)
    _passed(10, "n=4 graph matches the 12-vertex 3-regular 18-edge picture; n=5 has 60 connected vertices; paths are valid walks")


def _expands_in_target(w, source, target) -> bool:
    """source_s == sum_k W[s][k] target_k for every s, by Polynomial arithmetic.

    An oracle for a connection matrix that does not go through the
    elimination that solved for it.
    """
    for s, row in enumerate(w.matrix.sparse_rows):
        total = Polynomial.zero(source[s].poly.n)
        for k in row:
            total = total + target[k].poly.scale(w.at(s, k))
        if total != source[s].poly:
            return False
    return True


def test_criterion_11_pipeline_factorization():
    cases = (
        (3, (1, 2, 3, 4), (2, 4, 3, 1), "(C12,C123)", "(C24,C234)", 3),
        (4, (1, 2, 3, 4, 5), (2, 4, 5, 3, 1), "(C12,C123,C1234)", "(C24,C245,C2345)", 7),
        (6, (1, 2, 3, 4, 5), (4, 5, 3, 2, 1), "(C12,C123,C1234)", "(C45,C345,C2345)", 10),
    )
    for k, start_order, goal_order, start_name, goal_name, edges in cases:
        params = ParameterSet.default(len(start_order))
        start = Chain.from_order(start_order)
        goal = Chain.from_order(goal_order)
        assert str(start) == start_name and str(goal) == goal_name

        mats = connection_pipeline(params, k, start, goal)
        assert len(mats) == edges
        product = mats[0]
        for m in mats[1:]:
            product = product.compose(m)
        vertices = [start] + path(start, goal)
        bases = {chain: build_basis_tower(params, k, chain.order) for chain in vertices}
        direct = connection_matrix(params, bases[start], bases[goal])
        assert product.entries == direct.entries
        assert _expands_in_target(direct, bases[start], bases[goal])

        for (u, v), w in zip(zip(vertices, vertices[1:]), mats):
            assert _expands_in_target(w, bases[u], bases[v])
            shared = set(u.generators) & set(v.generators)
            for s, from_label in enumerate(w.from_labels):
                for t, to_label in enumerate(w.to_labels):
                    if w.at(s, t) == 0:
                        continue
                    assert from_label.variable_parities() == to_label.variable_parities()
                    for gen in shared:
                        assert casimir_eigenvalue(
                            params, from_label, len(gen)
                        ) == casimir_eigenvalue(params, to_label, len(gen))
    _passed(11, "ordered per-edge product equals the direct connection matrix, every per-edge and direct matrix expands its source in its target by polynomial arithmetic, and per-edge blocks respect shared spectra, n=4 k=3, n=5 k=4 and n=5 k=6 (10 edges of 140x140)")
