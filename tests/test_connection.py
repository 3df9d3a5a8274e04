"""Pairing, Gram data, connection matrices, and tridiagonal actions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racah_dunkl import (
    DunklOperators,
    LinearOperator,
    ParameterSet,
    Polynomial,
    RationalMatrix,
    SpanMismatch,
    angular,
    build_basis_tower,
    casimir,
    casimir_eigenvalue,
    connection_matrix,
    fischer_pairing,
    gamma,
    materialize,
    module_tridiagonal_data,
    monomial_basis,
    parity_blocks,
    tridiagonal_check,
)
from racah_dunkl import connection, graph, linalg, operators
from racah_dunkl.connection import ConnectionMatrix
from racah_dunkl.harmonics import HarmonicBasisElement
from racah_dunkl.racah import SpectralData
from racah_dunkl.report import CheckResult

from reference import module_basis, rank_one_overlap
from report_helpers import failures

P3 = ParameterSet.make(["1/2", "1/3", "1/4"])


def dunkl_pairing(ops, p, q):
    """Reference: the pairing by its definition, with the Dunkl operators ops.

    Each monomial x^a of p becomes the product of the T_i^(a_i), applied
    to q; the pairing is the sum of p_a times the constant term of that.
    """
    total = Fraction(0)
    for exps, coeff in p.sorted_terms():
        work = q
        for pos, e in enumerate(exps):
            for _ in range(e):
                if work.is_zero:
                    break
                work = ops[pos](work)
        if not work.is_zero:
            total += coeff * work.coefficient((0,) * work.n)
    return total


def gram_matrix(params, elements):
    """Reference: the matrix of pairings (elements[i].poly, elements[j].poly)."""
    polys = [el.poly for el in elements]
    if any(p.n != params.n for p in polys):
        raise ValueError("dimension mismatch")
    ops = [operators.dunkl(params, i) for i in range(1, params.n + 1)]
    return RationalMatrix.from_fractions([[dunkl_pairing(ops, p, q) for q in polys] for p in polys])


def is_identity(w):
    return w.matrix == RationalMatrix.identity(w.matrix.nrows)


def test_pairing_examples():
    one = Polynomial.one(3)
    x1 = Polynomial.variable(3, 1)
    x2 = Polynomial.variable(3, 2)
    assert fischer_pairing(P3, one, one) == 1
    assert fischer_pairing(P3, x1, x1) == 2  # 1 + 2 mu_1
    assert fischer_pairing(P3, x1, x2) == 0


def test_pairing_symmetric_bilinear():
    polys = [Polynomial.monomial(3, e, Fraction(1, 3)) for e in monomial_basis(3, 2)]
    polys += [Polynomial.monomial(3, e) for e in monomial_basis(3, 3)]
    for p in polys[:6]:
        for q in polys[:6]:
            assert fischer_pairing(P3, p, q) == fischer_pairing(P3, q, p)
    a, b = polys[0], polys[1]
    c = polys[2]
    lhs = fischer_pairing(P3, a + b.scale(Fraction(2, 5)), c)
    assert lhs == fischer_pairing(P3, a, c) + Fraction(2, 5) * fischer_pairing(P3, b, c)


def test_pairing_degrees_orthogonal():
    p = Polynomial.monomial(3, (2, 0, 0))
    q = Polynomial.variable(3, 1)
    assert fischer_pairing(P3, p, q) == 0
    assert fischer_pairing(P3, q, p) == 0


def elimination_pivots(entries):
    """The pivots of Gaussian elimination without row exchanges, exactly.

    All of them are positive exactly when every leading principal minor is,
    that is, when the symmetric matrix is positive definite; a zero pivot
    ends the elimination and is returned last.
    """
    rows = [list(row) for row in entries]
    pivots = []
    for col in range(len(rows)):
        pivot = rows[col][col]
        pivots.append(pivot)
        if pivot == 0:
            break
        for row in rows[col + 1:]:
            factor = row[col] / pivot
            row[col:] = [x - factor * y for x, y in zip(row[col:], rows[col][col:])]
    return pivots


def test_elimination_pivots_detect_indefinite_matrices():
    one, two = Fraction(1), Fraction(2)
    assert elimination_pivots([[two, one], [one, two]]) == [2, Fraction(3, 2)]
    assert elimination_pivots([[one, two], [two, one]]) == [1, -3]
    assert elimination_pivots([[Fraction(0), one], [one, Fraction(0)]]) == [0]


def test_pairing_positive_definite_on_monomials():
    # Gram matrices of the monomials of each small degree are positive
    # definite: every pivot of an elimination without row exchanges is > 0
    placeholder = build_basis_tower(P3, 0)[0].label
    for k in (1, 2, 3):
        elements = [
            HarmonicBasisElement(placeholder, Polynomial.monomial(3, e)) for e in monomial_basis(3, k)
        ]
        entries = gram_matrix(P3, elements).to_fractions()
        assert entries == [list(col) for col in zip(*entries)]  # symmetric
        assert all(pivot > 0 for pivot in elimination_pivots(entries))


def test_gram_matrix_builds_the_dunkl_operators_once(monkeypatch):
    elements = build_basis_tower(P3, 6)
    assert len(elements) == 13
    per_pair = [[fischer_pairing(P3, a.poly, b.poly) for b in elements] for a in elements]
    built = []
    real = operators.dunkl

    def counting(params, i):
        built.append(i)
        return real(params, i)

    monkeypatch.setattr(operators, "dunkl", counting)
    gram = gram_matrix(P3, elements)
    assert built == [1, 2, 3]
    assert gram.to_fractions() == per_pair


pairing_mu = st.one_of(
    st.sampled_from([Fraction(10**6), Fraction(1, 9)]),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
    st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)),
)


@st.composite
def pairing_cases(draw):
    """Parameters with n <= 4 and two polynomials of degree <= 4."""
    n = draw(st.integers(1, 4))
    params = ParameterSet(n, tuple(draw(st.lists(pairing_mu, min_size=n, max_size=n))))
    exps = st.lists(st.integers(0, 4), min_size=n, max_size=n).map(tuple).filter(
        lambda e: sum(e) <= 4
    )
    coeffs = st.fractions(min_value=-10, max_value=10, max_denominator=12).filter(bool)
    p, q = (Polynomial(n, draw(st.dictionaries(exps, coeffs, max_size=5))) for _ in range(2))
    return params, p, q


@settings(max_examples=60, deadline=None)
@given(pairing_cases())
def test_closed_form_pairing_is_the_dunkl_operator_pairing(case):
    # the weighted dot product over the monomials is the pairing by its
    # definition, on drawn polynomials and on each with itself
    params, p, q = case
    ops = [operators.dunkl(params, i) for i in range(1, params.n + 1)]
    for a, b in ((p, q), (q, p), (p, p), (q, q)):
        assert fischer_pairing(params, a, b) == dunkl_pairing(ops, a, b)


def test_invariants_self_adjoint():
    for A in ((1, 2), (2, 3), (1, 2, 3)):
        op = casimir(DunklOperators(P3), A)
        for k in (2, 3):
            polys = [Polynomial.monomial(3, e) for e in monomial_basis(3, k)]
            for p in polys[:5]:
                for q in polys[:5]:
                    assert fischer_pairing(P3, op(p), q) == fischer_pairing(P3, p, op(q))


def test_tower_basis_pairing_orthogonal():
    # distinct labels carry distinct joint eigendata, so they pair to zero
    elements = build_basis_tower(P3, 4)
    for i, a in enumerate(elements):
        for b in elements[i + 1:]:
            assert fischer_pairing(P3, a.poly, b.poly) == 0
        assert fischer_pairing(P3, a.poly, a.poly) > 0


def test_connection_identity():
    basis = build_basis_tower(P3, 3)
    w = connection_matrix(P3, basis, basis)
    assert is_identity(w)


def test_connection_inverse_and_composition():
    a = build_basis_tower(P3, 3, (1, 2, 3))
    b = build_basis_tower(P3, 3, (2, 3, 1))
    c = build_basis_tower(P3, 3, (3, 1, 2))
    w_ab = connection_matrix(P3, a, b)
    w_ba = connection_matrix(P3, b, a)
    assert is_identity(w_ab.compose(w_ba))
    w_bc = connection_matrix(P3, b, c)
    w_ac = connection_matrix(P3, a, c)
    assert w_ab.compose(w_bc).entries == w_ac.entries


def test_compose_and_identity_on_mismatched_and_non_identity_matrices():
    a = build_basis_tower(P3, 3, (1, 2, 3))
    b = build_basis_tower(P3, 3, (2, 3, 1))
    w_ab = connection_matrix(P3, a, b)
    assert not is_identity(w_ab)
    with pytest.raises(ValueError, match="^composition requires matching intermediate bases$"):
        w_ab.compose(w_ab)


@st.composite
def sparse_matrices(draw):
    """A RationalMatrix straight from sparse rows, as solves and products return them.

    Entries may be negative, rows empty and columns all zero, and the
    denominator shares a drawn factor with every entry, so it is not in
    lowest terms.
    """
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    t = draw(st.integers(1, 6))
    rows = []
    for _ in range(nrows):
        cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)) if ncols else set()
        rows.append({j: t * draw(st.integers(-99, 99).filter(bool)) for j in sorted(cols)})
    den = t * draw(st.integers(1, 60))
    return RationalMatrix.from_sparse(rows, den, ncols)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_dense_views_match_the_per_entry_reference(m):
    # the views build a Fraction only for stored nonzeros; each entry must
    # still be the reduced value of its numerator over den
    reference = [
        [Fraction(row.get(j, 0), m.den) for j in range(m.ncols)] for row in m.sparse_rows
    ]
    dense = m.to_fractions()
    assert dense == reference
    assert all(type(x) is Fraction for row in dense for x in row)
    for row in dense:  # a fresh copy on every access
        row[:] = [Fraction(7)] * len(row)
    assert m.to_fractions() == reference
    # the labels play no part in the entries
    w = ConnectionMatrix((), (), m)
    assert w.entries == tuple(tuple(row) for row in reference)
    assert w.to_json_obj()["entries"] == [[str(x) for x in row] for row in reference]


def test_connection_span_mismatch():
    a = build_basis_tower(P3, 3)
    b = build_basis_tower(P3, 2)
    with pytest.raises(SpanMismatch):
        connection_matrix(P3, a, b)
    # same count, different span: swap one harmonic for a non-harmonic
    broken = list(b)
    broken[0] = HarmonicBasisElement(broken[0].label, Polynomial.monomial(3, (2, 0, 0)))
    with pytest.raises(SpanMismatch):
        connection_matrix(P3, b, broken)


def test_the_connection_route_evaluates_no_dunkl_rule_and_forms_no_fraction_in_linalg(monkeypatch):
    # the towers and the solve run on integers from the closed-form T_i^2
    # rule to W: no T_i rule is evaluated, and linalg forms no Fraction, in
    # the towers, in connection_matrix, in the pipeline or in the products
    evaluated, formed = [], []
    real_dunkl, real_fraction = operators.dunkl, linalg.Fraction

    def counting(params, i):
        op = real_dunkl(params, i)
        rule = op.rule
        op.rule = lambda exps: evaluated.append((i, exps)) or rule(exps)
        return op

    def fraction(*args):
        formed.append(args)
        return real_fraction(*args)

    monkeypatch.setattr(operators, "dunkl", counting)
    monkeypatch.setattr(linalg, "Fraction", fraction)
    params = ParameterSet.make(["3/7", "5/2", "1/9", "8/3"])
    start, goal = (1, 2, 3, 4), (3, 4, 2, 1)
    source = build_basis_tower(params, 6, start)
    target = build_basis_tower(params, 6, goal)
    assert len(source) == 49 and evaluated == [] and formed == []
    w = connection_matrix(params, source, target)
    assert evaluated == [] and formed == []
    edges = graph.connection_pipeline(
        params, 6, graph.Chain.from_order(start), graph.Chain.from_order(goal)
    )
    assert len(edges) == 6 and evaluated == [] and formed == []
    product = edges[0]
    for edge in edges[1:]:
        product = product.compose(edge)
    assert product.matrix == w.matrix
    assert evaluated == [] and formed == []
    assert all(type(x) is int for el in source for x in el.poly.terms.values())
    # the counter sees the Fractions that linalg does form: a dense view
    # forms one per stored entry; its zeros are linalg's one module-level zero
    w.matrix.to_fractions()
    assert len(formed) == sum(len(row) for row in w.matrix.sparse_rows)


@pytest.mark.parametrize("side", ["source", "target"])
def test_a_doubled_denominator_rescales_its_row_or_column_of_w(side):
    # W is read off the numerators over the denominators, so halving one
    # element halves its row of W as a source and doubles its column as a
    # target
    params = ParameterSet.make(["3/7", "1000000", "2", "1/9"])
    source = build_basis_tower(params, 4, (1, 2, 3, 4))
    target = build_basis_tower(params, 4, (3, 4, 2, 1))
    w = connection_matrix(params, source, target).matrix.to_fractions()
    for pos in range(len(source)):
        bases = {"source": list(source), "target": list(target)}
        el = bases[side][pos]
        bases[side][pos] = HarmonicBasisElement(el.label, el.poly.scale(Fraction(1, 2)))
        try:
            got = connection_matrix(params, bases["source"], bases["target"])
        except SpanMismatch:
            continue
        expected = [list(row) for row in w]
        if side == "source":
            expected[pos] = [x / 2 for x in expected[pos]]
        else:
            for row in expected:
                row[pos] *= 2
        assert got.matrix.to_fractions() == expected != w


def test_connection_rejects_duplicated_elements():
    target = build_basis_tower(P3, 3, (1, 2, 3))
    source = build_basis_tower(P3, 3, (2, 3, 1))
    # the count still matches, but one source element is listed twice
    duplicated = list(source)
    duplicated[1] = duplicated[0]
    with pytest.raises(SpanMismatch, match="source basis is linearly dependent"):
        connection_matrix(P3, duplicated, target)
    # a duplicated target element leaves the target short of a basis
    duplicated = list(target)
    duplicated[1] = duplicated[0]
    with pytest.raises(SpanMismatch, match="linearly dependent"):
        connection_matrix(P3, source, duplicated)


def test_connection_source_across_parity_sectors():
    # a source element mixing two parity sectors: W has no block structure
    # to rely on, and must still come out exact
    target = build_basis_tower(P3, 3)
    first = target[0].label.variable_parities()
    other = next(
        k for k, el in enumerate(target) if el.label.variable_parities() != first
    )
    source = list(target)
    source[0] = HarmonicBasisElement(target[0].label, target[0].poly + target[other].poly)
    w = connection_matrix(P3, source, target)
    m = len(target)
    expected = [
        [Fraction(int(s == k or (s == 0 and k == other))) for k in range(m)]
        for s in range(m)
    ]
    assert [list(row) for row in w.entries] == expected
    for s, el in enumerate(source):
        back = Polynomial.zero(3)
        for k, t in enumerate(target):
            back = back + t.poly.scale(w.at(s, k))
        assert back == el.poly


def test_connection_dense_within_parity_blocks_n3():
    # with a single shared reflection structure the blocks are the parity
    # sectors; inside a sector the change of basis is dense
    a = build_basis_tower(P3, 4, (1, 2, 3))
    b = build_basis_tower(P3, 4, (2, 3, 1))
    w = connection_matrix(P3, a, b)
    for s, from_label in enumerate(w.from_labels):
        for k, to_label in enumerate(w.to_labels):
            if from_label.variable_parities() != to_label.variable_parities():
                assert w.at(s, k) == 0
            else:
                assert w.at(s, k) != 0


def test_connection_block_diagonal_over_shared_generator_n4():
    params = ParameterSet.default(4)
    a = build_basis_tower(params, 3, (1, 2, 3, 4))
    b = build_basis_tower(params, 3, (1, 2, 4, 3))
    w = connection_matrix(params, a, b)
    shared = (1, 2)  # both chains contain the pair invariant of {1,2}
    nonzero_cross = 0
    for s, from_label in enumerate(w.from_labels):
        for k, to_label in enumerate(w.to_labels):
            if w.at(s, k) == 0:
                continue
            assert from_label.variable_parities() == to_label.variable_parities()
            assert casimir_eigenvalue(params, from_label, 2) == casimir_eigenvalue(
                params, to_label, 2
            )
            nonzero_cross += 1
    assert nonzero_cross > 0


def test_parity_blocks_of_an_n4_tower():
    # keys are parities by variable, positions are sorted by (d2, d3)
    tower = build_basis_tower(ParameterSet.default(4), 4, (2, 4, 3, 1))
    blocks = parity_blocks(tower)
    assert {key: len(idx) for key, idx in blocks.items()} == {
        (0, 0, 0, 0): 6, (0, 1, 0, 1): 3, (0, 1, 1, 0): 3, (0, 0, 1, 1): 3,
        (1, 1, 0, 0): 3, (1, 0, 0, 1): 3, (1, 0, 1, 0): 3, (1, 1, 1, 1): 1,
    }
    assert sorted(pos for idx in blocks.values() for pos in idx) == list(range(len(tower)))
    assert blocks[(0, 0, 0, 0)] == [5, 4, 2, 3, 1, 0]
    assert [tower[pos].label.ell for pos in blocks[(0, 0, 0, 0)]] == [
        (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0),
    ]
    partial = [
        [(tower[pos].label.partial_degree(2), tower[pos].label.partial_degree(3)) for pos in idx]
        for idx in blocks.values()
    ]
    assert partial[0] == [(0, 0), (0, 2), (0, 4), (2, 2), (2, 4), (4, 4)]
    assert partial[-1] == [(2, 3)]
    assert all(degrees == sorted(degrees) for degrees in partial)


def test_tridiagonal_check_rejects_an_empty_basis():
    with pytest.raises(ValueError, match="basis must be nonempty"):
        tridiagonal_check(P3, casimir(DunklOperators(P3), (1, 2)), [])


def test_tridiagonal_identity_operator_diagonal():
    # the chain's own generator is diagonal with the closed eigenvalues
    basis = module_basis(P3, (0, 0, 0), 6)
    data = tridiagonal_check(P3, casimir(DunklOperators(P3), (1, 2)), basis)
    assert data.report.ok
    idx = data.blocks[(0, 0, 0)]
    for t, i in enumerate(idx):
        assert data.matrix.at(i, i) == casimir_eigenvalue(P3, basis[i].label, 2)
        for j in idx:
            if i != j:
                assert data.matrix.at(i, j) == 0


def test_tridiagonal_check_with_expected_data():
    eps, d3 = (0, 0, 0), 6
    basis = module_basis(P3, eps, d3)
    expected = {(0, 0, 0): module_tridiagonal_data(P3, eps, d3)}
    data = tridiagonal_check(P3, casimir(DunklOperators(P3), (2, 3)), basis, expected)
    assert data.report.ok


def test_tridiagonal_check_flags_wrong_expectation():
    eps, d3 = (0, 0, 0), 4
    basis = module_basis(P3, eps, d3)
    diag, offsq = module_tridiagonal_data(P3, eps, d3)
    tampered = {(0, 0, 0): ([d + 1 for d in diag], offsq)}
    data = tridiagonal_check(P3, casimir(DunklOperators(P3), (2, 3)), basis, tampered)
    assert not data.report.ok
    assert any(r.relation == "diagonal-matches" and not r.ok for r in data.report)


def test_band_witness_names_the_first_entry_outside_the_band():
    # the square of C13 is pentadiagonal on the (C12, C123) module basis
    c13 = casimir(DunklOperators(P3), (1, 3))
    square = LinearOperator.composite([(1, (c13, c13))], "C13^2")
    data = tridiagonal_check(P3, square, module_basis(P3, (0, 0, 0), 4))
    assert [(r.relation, r.first_discrepancy) for r in data.report] == [
        ("parity-block-structure", None),
        ("tridiagonal-within-block", "entry (0, 2) is outside the band"),
    ]


def test_parity_witness_names_the_first_entry_across_blocks():
    # the angular momentum L12 flips the parities of x1 and x2, so it leaves every block
    data = tridiagonal_check(P3, angular(DunklOperators(P3), 1, 2), build_basis_tower(P3, 2))
    assert [(r.relation, r.index_tuple, r.first_discrepancy) for r in data.report] == [
        ("parity-block-structure", (), "entry (0, 2) crosses parity blocks"),
        ("tridiagonal-within-block", (0, 0, 0), None),
        ("tridiagonal-within-block", (0, 1, 1), None),
        ("tridiagonal-within-block", (1, 0, 1), None),
        ("tridiagonal-within-block", (1, 1, 0), None),
    ]


def test_tridiagonal_full_degree_basis_blocks():
    # a full tower basis mixes parity sectors; the second-pair invariant
    # must stay inside each sector and be tridiagonal there
    basis = build_basis_tower(P3, 5)
    data = tridiagonal_check(P3, casimir(DunklOperators(P3), (2, 3)), basis)
    assert data.report.ok


def test_rank_one_overlap_single_vector():
    # both orders realize the same monomial for an all-odd minimal label
    overlap = rank_one_overlap(P3, (1, 1, 1), 3)
    assert overlap.report.ok
    assert overlap.connection.entries == ((Fraction(1),),)


def test_rank_one_overlap_main_example():
    overlap = rank_one_overlap(P3, (0, 0, 0), 4)
    assert overlap.report.ok
    assert len(overlap.eigenvalues) == 3
    assert len(set(overlap.eigenvalues)) == 3
    checks = {r.relation for r in overlap.report}
    assert {
        "distinct-spectrum",
        "leading-connection-coefficient-nonzero",
        "monic-ratios-match-recurrence",
        "recurrence-boundary-root",
    } <= checks


def test_vanishing_leading_coefficient_has_a_witness(monkeypatch):
    real = connection.connection_matrix

    def zero_leading(params, source, target):
        w = real(params, source, target)
        rows = [list(row) for row in w.entries]
        rows[1][0] = Fraction(0)
        return ConnectionMatrix(w.from_labels, w.to_labels, RationalMatrix.from_fractions(rows))

    monkeypatch.setattr(connection, "connection_matrix", zero_leading)
    report = rank_one_overlap(P3, (0, 0, 0), 4).report
    assert failures(report) == [
        CheckResult("leading-connection-coefficient-nonzero", (1,), 4, "fail", "W[1][0] = 0")
    ]
    # the ratio checks of the vanishing row are skipped, the other rows still run
    assert [r.index_tuple for r in report if r.relation == "recurrence-boundary-root"] == [
        (0,), (2,)
    ]


def test_rank_one_overlap_all_parities_degree_five():
    for eps in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)):
        overlap = rank_one_overlap(P3, eps, 5)
        assert overlap.report.ok, eps


def test_rank_one_overlap_permuted_frame():
    overlap = rank_one_overlap(P3, (0, 0, 0), 4, order=(2, 3, 1))
    assert overlap.report.ok


def test_embedded_blocks_carry_rank_one_data():
    # inside a fixed eigenvalue block of the shared pair invariant, the
    # disjoint-pair invariant acts tridiagonally with diagonal given by
    # the rank-one formula where the block eigenvalue replaces the first
    # central charge
    params = ParameterSet.default(4)
    k = 5
    basis = build_basis_tower(params, k)
    blocks: dict = {}
    for el in basis:
        key = (el.label.variable_parities(), el.label.partial_degree(2))
        blocks.setdefault(key, []).append(el)
    gam12 = gamma(params, (1, 2))
    gam123 = gamma(params, (1, 2, 3))
    gam1234 = gamma(params, (1, 2, 3, 4))
    c34 = casimir(DunklOperators(params), (3, 4))
    half = Fraction(1, 2)
    multi = 0
    for (parities, d2), els in sorted(blocks.items()):
        if len(els) < 2:
            continue
        multi += 1
        els = sorted(els, key=lambda e: e.label.partial_degree(3))
        matrix = materialize(c34, 4, [e.poly for e in els]).to_fractions()
        m = len(els)
        assert all(
            matrix[i][j] == 0 for i in range(m) for j in range(m) if abs(i - j) > 1
        )
        e3, e4 = parities[2], parities[3]
        lam_block = Fraction(d2 + gam12) * (d2 + gam12 - 2) / 4
        lam3 = (e3 + params.mu_of(3) + half) * (e3 + params.mu_of(3) - 3 * half) / 4
        lam4 = (e4 + params.mu_of(4) + half) * (e4 + params.mu_of(4) - 3 * half) / 4
        lam_total = Fraction(k + gam1234) * (k + gam1234 - 2) / 4
        sd = SpectralData(d2 + e3 + gam123, lam_block, lam3, lam4, lam_total)
        for t in range(m):
            om = sd.omega(t)
            expected = (
                sd.lambda123
                + sd.lambda1
                + sd.lambda2
                + sd.lambda3
                - om
                - (sd.lambda2 - sd.lambda1) * (sd.lambda3 - sd.lambda123) / om
            ) / 2
            assert matrix[t][t] == expected
    assert multi > 0


def test_column_ratio_polynomials_have_degree_k():
    # exact interpolation over the spectrum: the monic ratio in column k
    # is a degree-k polynomial in the eigenvalue
    overlap = rank_one_overlap(P3, (0, 0, 0), 6)
    m = len(overlap.eigenvalues)
    uppers = [overlap.tridiagonal.at(t - 1, t) for t in range(1, m)]
    from racah_dunkl.linalg import solve_in_span

    for k in range(m):
        scale = Fraction(1)
        for t in range(k):
            scale *= uppers[t]
        values = [
            scale * overlap.connection.at(s, k) / overlap.connection.at(s, 0)
            for s in range(m)
        ]
        # solve for polynomial coefficients through the m spectrum points
        # (entry s of a vector is the coefficient of x1^s)
        columns = [
            Polynomial(1, {(s,): mu**d for s, mu in enumerate(overlap.eigenvalues)})
            for d in range(m)
        ]
        target = Polynomial(1, {(s,): v for s, v in enumerate(values)})
        (coeffs,) = solve_in_span(columns, [target]).to_fractions()
        assert all(c == 0 for c in coeffs[k + 1:])
        assert coeffs[k] != 0
