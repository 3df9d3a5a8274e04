"""Verification sweeps of the quadratic-algebra identities (small instances).

The acceptance suite runs the full degree bounds; these tests keep the
sweeps small enough for quick iteration while still exercising every
relation family and the report plumbing.
"""

import hashlib
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, perm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from racah_dunkl import (
    DunklOperators,
    LinearOperator,
    ParameterSet,
    RationalMatrix,
    angular,
    materialize_on_monomials,
    casimir,
    laplace,
    su11_triple,
    verify_casimir_laplacian_commute,
    verify_drinfeld_kohno,
    verify_embedding,
    verify_nested_disjoint_commute,
    verify_racah_relations,
    verify_su11,
)
from racah_dunkl import cli, operators, relations
from racah_dunkl.linalg import product_sum
from racah_dunkl.poly import Polynomial, monomial_basis
from racah_dunkl.relations import DegreeSum, RelationWorkspace, nonempty_subsets
from racah_dunkl.report import CheckResult, Report

from mutants import doubled_lowering, with_extra_image
from reference import (
    block_diagonal,
    degree_sum_basis,
    per_degree_laplacian_commute,
    per_degree_su11,
)
from report_helpers import failures

P3 = ParameterSet.make(["1/2", "1/3", "1/4"])


def test_su11_all_subsets_small():
    report = verify_su11(P3, 3)
    assert report.ok
    # 7 subsets x 3 relations x 4 degrees
    assert len(report) == 7 * 3 * 4


def test_racah_relations_n3():
    report = verify_racah_relations(P3, kmax=3)
    assert report.ok
    relations = {r.relation for r in report}
    assert "triple-relation" in relations
    assert "f-from-angular-momentum" in relations
    assert "f-antisymmetry" in relations
    assert "subset-additivity" in relations
    assert "pair-invariant-angular-form" in relations
    assert "single-invariant-closed-form" in relations
    # no four-index families exist for n = 3
    assert "quad-pf-relation" not in relations


def test_racah_relations_n4_touches_all_families():
    params = ParameterSet.default(4)
    report = verify_racah_relations(params, kmax=2)
    assert report.ok
    relations = {r.relation for r in report}
    assert {"quad-pf-relation", "quad-ff-relation", "disjoint-pairs-commute"} <= relations
    assert "quint-ff-relation" not in relations


def test_racah_relations_n5_smoke():
    params = ParameterSet.default(5)
    report = verify_racah_relations(params, kmax=1)
    assert report.ok
    assert "quint-ff-relation" in {r.relation for r in report}


def test_racah_needs_three_variables():
    with pytest.raises(ValueError):
        verify_racah_relations(ParameterSet.default(2), kmax=2)


def test_casimir_laplacian_commute_small():
    report = verify_casimir_laplacian_commute(P3, 3)
    assert report.ok
    assert len(report) == 7 * 4


def test_nested_disjoint_commute_small():
    report = verify_nested_disjoint_commute(P3, 2)
    assert report.ok
    kinds = {r.relation for r in report}
    assert kinds == {"nested-invariants-commute", "disjoint-invariants-commute"}


def test_drinfeld_kohno_n4_small():
    report = verify_drinfeld_kohno(ParameterSet.default(4), 2)
    assert report.ok
    kinds = {r.relation for r in report}
    assert kinds == {"disjoint-pairs-commute", "adjacent-pair-sum-commutes"}


def test_embedding_singletons_reduces_to_rank_one():
    report = verify_embedding(P3, (1,), (2,), (3,), 3)
    assert report.ok
    assert {r.relation for r in report} >= {
        "embedding-additivity",
        "embedding-equitable-1",
        "embedding-equitable-2",
        "embedding-equitable-3",
    }


def test_embedding_blocks_n4():
    params = ParameterSet.default(4)
    report = verify_embedding(params, (1, 2), (3,), (4,), 4)
    assert report.ok


def test_embedding_rejects_overlap():
    with pytest.raises(ValueError):
        verify_embedding(P3, (1, 2), (2,), (3,), 2)


def test_union_invariant_independent_of_unused_parameters():
    # with singleton blocks in five variables, the triple-union invariant
    # does not involve the two remaining deformation parameters
    base = ParameterSet.make(["1/2", "1/3", "1/4", "1/5", "1/6"])
    other = ParameterSet.make(["1/2", "1/3", "1/4", "7/2", "9/4"])
    for k in range(3):
        a = materialize_on_monomials(casimir(DunklOperators(base), (1, 2, 3)), 5, k, k)
        b = materialize_on_monomials(casimir(DunklOperators(other), (1, 2, 3)), 5, k, k)
        assert a == b


def test_the_workspace_builds_a_generator_on_its_first_request_only(monkeypatch):
    # F_123 reads P_12 and P_23, which read C_12, C_23 and the closed forms
    # c1_1, c1_2, c1_3; a later request, in either orientation or subset
    # order, is a lookup that builds nothing
    built = []
    materialize = relations.materialize_on_monomials

    def recording(op, n, k, kmax):
        built.append(op.descriptor)
        return materialize(op, n, k, kmax)

    monkeypatch.setattr(relations, "materialize_on_monomials", recording)
    ws = RelationWorkspace(DunklOperators(P3), 2)
    assert built == []
    f = ws.f(1, 2, 3)
    assert built == ["C{1,2}", "r{1}", "r{2}", "C{2,3}", "r{3}"]
    assert ws.f(1, 2, 3) is f
    assert ws.p(2, 1) is ws.p(1, 2) and ws.c((2, 1)) is ws.c([1, 2]) is ws.c((1, 2, 2))
    assert len(built) == 5
    assert ws.l(2, 1) == -ws.l(1, 2) and ws.l2(2, 1) is ws.l2(1, 2)
    assert built[5:] == ["L12"]


def test_report_json_shape():
    report = verify_su11(P3, 1)
    obj = report.to_json_obj()
    assert len(obj) == 7 * 3 * 2
    assert all(
        set(row) >= {"relation", "index_tuple", "degree", "status"} for row in obj
    )
    assert all(row["status"] == "ok" for row in obj)


def test_failure_witness_is_first_nonzero_column():
    # rows: the degree-2 monomials x1^2, x1x2, x1x3, x2^2, x2x3, x3^2
    assert monomial_basis(3, 2)[:3] == ((2, 0, 0), (1, 1, 0), (1, 0, 1))
    diff = RationalMatrix(
        [
            [0, 0, 0, 0, 9, 0],
            [0, 0, 0, 84, 0, 0],
            [0, -2, 0, 0, 0, 0],
            [0, 30, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
            [0, -24, 0, 0, 0, 0],
        ],
        12,
    )
    witness = "-1/6 * x1 x3 + 5/2 * x2^2 + -2 * x3^2"
    # each discrepancy sits in the degree-2 block of degrees 0..2 (rows and
    # columns 4..9), so degrees 0 and 1 hold
    space = DegreeSum(3, 2)
    below = [RationalMatrix([[0]]), RationalMatrix([[0] * 3] * 3)]

    def on_degree_2(m):
        return block_diagonal(below + [m])

    columns = space.column_witnesses(on_degree_2(diff))
    assert columns[:5] == [None] * 5 and columns[5] == witness
    assert columns[6:] == [None, "7 * x1 x2", "3/4 * x1^2", None]
    # the same discrepancy reached through sparse arithmetic gives the same witnesses
    shifted = diff + RationalMatrix.identity(6).scale(Fraction(1, 5))
    back = shifted - RationalMatrix.identity(6).scale(Fraction(1, 5))
    assert space.column_witnesses(on_degree_2(back)) == columns
    # the recording loop keeps the first nonzero column of each degree as the
    # witness and derives the status from it
    report = space.report([[
        ("triple-relation", (1, 2, 3), [(1, (on_degree_2(back),))]),
        ("triple-relation", (1, 2, 3), [(1, (on_degree_2(diff),)), (-1, (on_degree_2(diff),))]),
    ]])
    assert all(r.ok for r in report if r.degree < 2)
    assert [r for r in report if r.degree == 2] == [
        CheckResult("triple-relation", (1, 2, 3), 2, "fail", witness),
        CheckResult("triple-relation", (1, 2, 3), 2, "ok", None),
    ]


def laplacian_without_x3(ops, A):
    """laplace with x3 left out of every subset's Laplacian."""
    return laplace(ops, (1, 2))


def test_su11_witness_is_first_nonzero_monomial_image(monkeypatch):
    # doubling J- breaks only the bracket [J-, J+] = 2 A0, on every subset
    monkeypatch.setattr(relations, "su11_triple", doubled_lowering)
    failed = failures(verify_su11(P3, 1))
    assert {r.relation for r in failed} == {"su11-bracket"}
    assert len(failed) == 7 * 2
    assert failed[:2] == [
        CheckResult("su11-bracket", (1,), 0, "fail", "1"),
        CheckResult("su11-bracket", (1,), 1, "fail", "2 * x1"),
    ]


def test_lemma1_witness_is_first_nonzero_monomial_image(monkeypatch):
    # a Laplacian without x3 still commutes with C_1, C_2, C_3 and C_12;
    # the failing list and the witnesses were recorded monomial by monomial
    monkeypatch.setattr(relations, "laplace", laplacian_without_x3)
    report = verify_casimir_laplacian_commute(P3, 3)
    assert len(report) == 7 * 4
    relation = "invariant-commutes-with-laplacian"
    assert failures(report) == [
        CheckResult(relation, (1, 3), 2, "fail", "-3"),
        CheckResult(relation, (1, 3), 3, "fail", "-6 * x1"),
        CheckResult(relation, (2, 3), 2, "fail", "-5/2"),
        CheckResult(relation, (2, 3), 3, "fail", "-5/2 * x1"),
        CheckResult(relation, (1, 2, 3), 2, "fail", "-3"),
        CheckResult(relation, (1, 2, 3), 3, "fail", "-6 * x1"),
    ]


def test_one_wrong_generator_entry_at_n6_fails_exactly_its_relations(monkeypatch):
    # bump the (x1 x2 -> x1 x3) entry of C_12, hence of P_12, on degree 2 only;
    # the failing list and the witnesses were recorded on the unfused sweep
    monkeypatch.setattr(relations, "materialize_on_monomials", bumped_pair_invariant(2, 1, 2))
    report = verify_racah_relations(ParameterSet.default(6), 2)
    failed = failures(report)
    assert len(report) == 5544
    assert {r.degree for r in failed} == {2}
    assert Counter(r.relation for r in failed) == {
        "pair-invariant-angular-form": 1,
        "subset-additivity": 15,
        "f-from-angular-momentum": 5,
        "triple-relation": 24,
        "quad-pf-relation": 105,
        "quad-ff-relation": 72,
        "quint-ff-relation": 90,
        "disjoint-pairs-commute": 3,
        "adjacent-pair-sum-commutes": 8,
    }
    by_relation = {
        relation: [r.index_tuple for r in failed if r.relation == relation]
        for relation in ("disjoint-pairs-commute", "f-from-angular-momentum")
    }
    assert by_relation == {
        "disjoint-pairs-commute": [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6)],
        "f-from-angular-momentum": [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6), (2, 1, 3)],
    }
    # the whole list of (relation, index tuple, degree), in report order
    listed = [(r.relation, r.index_tuple, r.degree) for r in failed]
    digest = hashlib.sha256(repr(listed).encode()).hexdigest()
    assert digest == "e3b3ad50f2484855b5b40f8f744f2e90a836cda0c5f8d8d71709ae82fab8e674"
    triple = next(r for r in failed if r.relation == "triple-relation")
    assert triple == CheckResult("triple-relation", (1, 2, 3), 2, "fail", "539/1152 * x1 x2")


def test_empty_degree_range_checks_nothing(monkeypatch, capsys):
    # a negative degree bound leaves no degree to check: each direct-sum
    # sweep returns an empty report, and the command reports it as a failure
    assert len(verify_racah_relations(P3, -1)) == 0
    assert len(verify_drinfeld_kohno(P3, -1)) == 0
    assert len(verify_nested_disjoint_commute(P3, -1)) == 0
    assert len(verify_embedding(P3, (1,), (2,), (3,), -1)) == 0
    monkeypatch.setattr(cli, "_bound", lambda args, default: -1)
    for suite in ("racah", "drinfeld-kohno", "lemma2", "embedding"):
        assert cli.main(["verify", suite, "--n", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "[]\n"
        assert f"no identity checked: the {suite} suite is empty" in captured.err


def per_entry_diagonal(basis, indices, value) -> RationalMatrix:
    """diag(value(r_i, r_j, ...)) with one Fraction per monomial, r_i = (-1)^e_i."""
    return RationalMatrix.diagonal([
        Fraction(value(*(-1 if exps[i - 1] % 2 else 1 for i in indices))) for exps in basis
    ])


class ReferenceWorkspace:
    """The generators on the degree-k monomials alone, one workspace per degree.

    It is the reference for the direct-sum RelationWorkspace: the relation
    families run on it unchanged through accessors of its own, every matrix
    is that of one degree, built eagerly, and the diagonal factors are
    Fraction diagonals with one entry per monomial.
    """

    def __init__(self, ops: DunklOperators, k: int):
        self.ops, self.n, self.k = ops, ops.n, k
        self.basis = monomial_basis(self.n, k)
        self.dim = len(self.basis)
        n = self.n
        self.c1_mat, self.refl_mat = {}, {}
        for i in range(1, n + 1):
            mu = ops.params.mu_of(i)
            self.c1_mat[i] = per_entry_diagonal(
                self.basis, (i,), lambda s: (mu * mu - s * mu - Fraction(3, 4)) / 4
            )
            self.refl_mat[i] = per_entry_diagonal(self.basis, (i,), lambda s: 1 + 2 * mu * s)
        self.c_pair = {
            frozenset(pair): self.materialize(casimir(ops, pair))
            for pair in combinations(range(1, n + 1), 2)
        }
        self.p_mat, self.l_mat, self.l2_mat, self.f_mat = {}, {}, {}, {}
        for i, j in combinations(range(1, n + 1), 2):
            key = frozenset((i, j))
            self.p_mat[key] = self.c_pair[key] - self.c1_mat[i] - self.c1_mat[j]
            lij = self.materialize(angular(ops, i, j))
            self.l_mat[(i, j)], self.l_mat[(j, i)] = lij, -lij
            self.l2_mat[key] = lij * lij
        for i, j, m in permutations(range(1, n + 1), 3):
            pij, pjm = self.p(i, j), self.p(j, m)
            self.f_mat[(i, j, m)] = (pij * pjm - pjm * pij).scale(Fraction(1, 2))

    def materialize(self, op: LinearOperator) -> RationalMatrix:
        # looked up at call time, so a patched materialization reaches both routes
        return relations.materialize_on_monomials(op, self.n, self.k, self.k)

    def c(self, pair) -> RationalMatrix:
        return self.c_pair[frozenset(pair)]

    def c1(self, i: int) -> RationalMatrix:
        return self.c1_mat[i]

    def refl(self, i: int) -> RationalMatrix:
        return self.refl_mat[i]

    def square(self, i: int, j: int) -> RationalMatrix:
        mi, mj = self.ops.params.mu_of(i), self.ops.params.mu_of(j)
        return per_entry_diagonal(
            self.basis, (i, j), lambda ri, rj: mi * mi + mj * mj + 2 * mi * mj * ri * rj
        )

    def l(self, i: int, j: int) -> RationalMatrix:
        return self.l_mat[(i, j)]

    def l2(self, i: int, j: int) -> RationalMatrix:
        return self.l2_mat[frozenset((i, j))]

    def p(self, i: int, j: int) -> RationalMatrix:
        return self.p_mat[frozenset((i, j))]

    def f(self, i: int, j: int, m: int) -> RationalMatrix:
        return self.f_mat[(i, j, m)]


def reference_witness(n: int, basis, diff: RationalMatrix) -> str | None:
    """First nonzero column of a discrepancy, read from its dense Fraction entries."""
    entries = diff.to_fractions()
    for col in range(diff.ncols):
        terms = {basis[i]: row[col] for i, row in enumerate(entries) if row[col]}
        if terms:
            return Polynomial(n, terms).to_text()
    return None


def reference_racah_relations(params: ParameterSet, kmax: int) -> Report:
    """The relation sweep degree by degree: one workspace and one sum per check and degree."""
    n = params.n
    ops = DunklOperators(params)
    families = (
        relations._single_invariant_form,
        relations._pair_invariant_form,
        relations._subset_additivity,
        relations._f_from_angular,
        relations._triple_relation,
        relations._quad_pf_relation,
        relations._quad_ff_relation,
        relations._quint_ff_relation,
    )
    report = Report()
    for k in range(kmax + 1):
        ws = ReferenceWorkspace(ops, k)
        checks = [check for family in families for check in family(ws)]
        checks += relations._drinfeld_kohno(ws)
        for relation, idx, terms in checks:
            report.add(relation, idx, k, reference_witness(n, ws.basis, product_sum(terms)))
    return report


def raise_entry(matrix, op, n, k, degree: int, row: int, col: int, by) -> RationalMatrix:
    """matrix, op on degrees k..kmax, with entry (row, col) of its degree block raised by ``by``.

    The block's rows and columns are offset by the dims of the lower
    degrees of the range, on the target and on the source side.
    """
    rows = sum(len(monomial_basis(n, d + op.shift)) for d in range(k, degree))
    cols = sum(len(monomial_basis(n, d)) for d in range(k, degree))
    entries = matrix.to_fractions()
    entries[rows + row][cols + col] += by
    return RationalMatrix.from_fractions(entries)


def bumped_pair_invariant(degree: int, row: int, col: int):
    """A materialize_on_monomials whose C_12 has entry (row, col) raised by one on one degree."""
    materialize = relations.materialize_on_monomials

    def bumped(op, n, k, kmax):
        matrix = materialize(op, n, k, kmax)
        if k <= degree <= kmax and op.descriptor == "C{1,2}":
            matrix = raise_entry(matrix, op, n, k, degree, row, col, 1)
        return matrix

    return bumped


racah_mu = st.one_of(
    st.sampled_from([Fraction(10**6), Fraction(1, 9)]),
    st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([3, 4]),
    st.integers(0, 3),
    st.lists(racah_mu, min_size=4, max_size=4),
    st.data(),
)
def test_direct_sum_sweep_matches_the_per_degree_reference(n, kmax, mu, data):
    # the same (relation, index tuple, degree, status, witness) list, in the
    # same order, with and without one wrong C_12 entry on a drawn degree
    params = ParameterSet(n, tuple(mu[:n]))
    report = verify_racah_relations(params, kmax)
    assert report.ok
    assert report.results == reference_racah_relations(params, kmax).results
    degree = data.draw(st.one_of(st.just(0), st.just(kmax), st.integers(0, kmax)))
    dim = len(monomial_basis(n, degree))
    row, col = data.draw(st.integers(0, dim - 1)), data.draw(st.integers(0, dim - 1))
    with pytest.MonkeyPatch.context() as patch:
        bumped = bumped_pair_invariant(degree, row, col)
        patch.setattr(relations, "materialize_on_monomials", bumped)
        report = verify_racah_relations(params, kmax)
        reference = reference_racah_relations(params, kmax)
    assert report.results == reference.results
    assert {r.degree for r in failures(report)} == {degree}
    assert ("pair-invariant-angular-form", (1, 2)) in {
        (r.relation, r.index_tuple) for r in failures(report)
    }


@settings(max_examples=30, deadline=None)
@example(3, 2, [Fraction(1, 2)] * 5)
@given(
    st.integers(3, 5),
    st.integers(0, 3),
    st.lists(
        st.one_of(st.sampled_from([Fraction(10**6), Fraction(1, 9), Fraction(1, 2)]), racah_mu),
        min_size=5,
        max_size=5,
    ),
)
def test_parity_diagonals_are_the_per_entry_fraction_diagonals(n, kmax, mu):
    # c1, refl and the square of the pair form: same den and same sparse rows
    params = ParameterSet(n, tuple(mu[:n]))
    ws = RelationWorkspace(DunklOperators(params), kmax)
    basis = degree_sum_basis(ws)

    def assert_same(matrix, reference):
        assert matrix.shape == reference.shape == (ws.dim, ws.dim)
        assert (matrix.den, matrix.sparse_rows) == (reference.den, reference.sparse_rows)

    for i in range(1, n + 1):
        m = params.mu_of(i)
        even, odd = (m * m - m - Fraction(3, 4)) / 4, (m * m + m - Fraction(3, 4)) / 4
        c1 = per_entry_diagonal(basis, (i,), lambda r: even if r == 1 else odd)
        assert_same(ws.c1(i), c1)
        assert_same(ws.refl(i), per_entry_diagonal(basis, (i,), lambda r: 1 + 2 * m * r))
        if m == Fraction(1, 2):
            # refl_i = 1 - 2 * 1/2 = 0 on every monomial odd in x_i: no entry is stored
            empty = [row for row, entries in enumerate(ws.refl(i).sparse_rows) if not entries]
            assert empty == [row for row, exps in enumerate(basis) if exps[i - 1] % 2]
    for i, j in combinations(range(1, n + 1), 2):
        mi, mj = params.mu_of(i), params.mu_of(j)

        def square(ri, rj):
            return mi * mi + mj * mj + 2 * mi * mj * ri * rj

        assert_same(ws.square(i, j), per_entry_diagonal(basis, (i, j), square))


def test_lemma2_with_one_wrong_invariant_entry_fails_only_on_its_degree(monkeypatch):
    # raise the (x1 x2 -> x1 x3) entry of C_12 on degree 2 only; only the
    # commutators with C_12 can fail, and only on degree 2
    materialize = relations.materialize_on_monomials

    def bumped(op, n, k, kmax):
        matrix = materialize(op, n, k, kmax)
        if k <= 2 <= kmax and op.descriptor == "C{1,2}":
            matrix = raise_entry(matrix, op, n, k, 2, 1, 2, Fraction(1, 3))
        return matrix

    monkeypatch.setattr(relations, "materialize_on_monomials", bumped)
    report = verify_nested_disjoint_commute(ParameterSet.default(4), 3)
    assert len(report) == 4 * 75
    assert failures(report) == [
        CheckResult("nested-invariants-commute", ((2,), (1, 2)), 2, "fail", "1/18 * x1 x2"),
        CheckResult("disjoint-invariants-commute", ((3,), (1, 2)), 2, "fail", "-1/24 * x1 x2"),
        CheckResult("disjoint-invariants-commute", ((1, 2), (3, 4)), 2, "fail", "19/120 * x1 x2"),
        CheckResult(
            "nested-invariants-commute", ((1, 2), (1, 2, 4)), 2, "fail", "-91/180 * x1 x2"
        ),
    ]


@settings(max_examples=25, deadline=None)
@example(2, 0, [Fraction(10**6), Fraction(1, 9), Fraction(1, 2), Fraction(1, 3)])
@example(4, 3, [Fraction(1, 9), Fraction(10**6), Fraction(1, 2), Fraction(1, 3)])
@given(st.sampled_from([2, 3, 4]), st.integers(0, 3), st.lists(racah_mu, min_size=4, max_size=4))
def test_graded_su11_and_lemma1_match_the_per_degree_reference(n, kmax, mu):
    # the same (relation, index tuple, degree, status, witness) list, in the
    # same subset-major order, as each sweep run degree by degree, with and
    # without doubled J- and with and without a Laplacian that omits x3
    params = ParameterSet(n, tuple(mu[:n]))
    su11 = verify_su11(params, kmax)
    assert su11.ok and su11.results == per_degree_su11(params, kmax).results
    lemma1 = verify_casimir_laplacian_commute(params, kmax)
    assert lemma1.ok and lemma1.results == per_degree_laplacian_commute(params, kmax).results
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relations, "su11_triple", doubled_lowering)
        su11 = verify_su11(params, kmax)
        assert su11.results == per_degree_su11(params, kmax).results
    assert {r.relation for r in failures(su11)} == {"su11-bracket"}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relations, "laplace", laplacian_without_x3)
        lemma1 = verify_casimir_laplacian_commute(params, kmax)
        assert lemma1.results == per_degree_laplacian_commute(params, kmax).results
    # x3 exists at n >= 3, and the commutator first reads it on degree 2
    assert bool(failures(lemma1)) == (n >= 3 and kmax >= 2)


@pytest.mark.parametrize("n, kmax", [(2, 0), (2, 3), (3, 2), (4, 1)])
def test_a_wrong_raising_image_on_degree_kmax_fails_only_there(monkeypatch, n, kmax):
    # J+ of {1} also sends x1^kmax to x1^kmax x2^2, whose {1}-degree it does
    # not raise, so [A0, J+] = J+ fails on degree kmax alone; its witness is
    # read in the rows of degree kmax + 2, the top of the ambient degrees
    source = (kmax,) + (0,) * (n - 1)
    extra = (kmax, 2) + (0,) * (n - 2)

    def broken_triple(ops, A):
        a0, jp, jm = su11_triple(ops, A)
        return a0, with_extra_image(jp, source, extra) if A == (1,) else jp, jm

    monkeypatch.setattr(relations, "su11_triple", broken_triple)
    params = ParameterSet.default(n)
    report = verify_su11(params, kmax)
    assert report.results == per_degree_su11(params, kmax).results
    raising = [r for r in failures(report) if r.relation == "su11-raising"]
    witness = Polynomial.monomial(n, extra).scale(-1).to_text()
    assert raising == [CheckResult("su11-raising", (1,), kmax, "fail", witness)]


@pytest.mark.parametrize("n, kmax", [(2, 2), (3, 2), (3, 3), (4, 3)])
def test_a_wrong_laplacian_image_on_degree_2_fails_only_there(monkeypatch, n, kmax):
    # the full Laplacian also sends x1^2 to 1: [C_A, Lap] fails on degree 2
    # alone, with witnesses in the rows of degree 0, for the subsets holding 1
    # and another index (C_1 depends on r_1 alone, so it is one scalar on 1
    # and on x1^2)
    source, extra = (2,) + (0,) * (n - 1), (0,) * n

    def broken_laplace(ops, A):
        return with_extra_image(laplace(ops, A), source, extra)

    monkeypatch.setattr(relations, "laplace", broken_laplace)
    params = ParameterSet.default(n)
    report = verify_casimir_laplacian_commute(params, kmax)
    assert report.results == per_degree_laplacian_commute(params, kmax).results
    failed = failures(report)
    assert {r.degree for r in failed} == {2}
    assert [r.index_tuple for r in failed] == [
        A for A in nonempty_subsets(n) if 1 in A and len(A) > 1
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_su11_and_lemma1_record_one_check_per_subset_relation_and_degree(n):
    # 2^n - 1 nonempty subsets: every su(1,1) relation and [C_A, Lap] = 0
    # record exactly that many checks on each degree 0..kmax
    params, kmax = ParameterSet.default(n), 3
    families = (
        (verify_su11, ("su11-raising", "su11-lowering", "su11-bracket")),
        (verify_casimir_laplacian_commute, ("invariant-commutes-with-laplacian",)),
    )
    for sweep, names in families:
        counts = Counter((r.relation, r.degree) for r in sweep(params, kmax))
        assert counts == {(name, k): 2**n - 1 for name in names for k in range(kmax + 1)}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kmax", [0, 4])
def test_su11_and_lemma1_record_counts_are_the_closed_forms(n, kmax):
    # 3 (2^n - 1)(kmax + 1) su(1,1) records and (2^n - 1)(kmax + 1) for
    # [C_A, Lap]: a route that proves a check on A's variables still records it
    params = ParameterSet.default(n)
    assert len(verify_su11(params, kmax)) == 3 * (2**n - 1) * (kmax + 1)
    assert len(verify_casimir_laplacian_commute(params, kmax)) == (2**n - 1) * (kmax + 1)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("kmax", [0, 2])
def test_racah_and_lemma2_record_counts_are_the_closed_forms(n, kmax):
    # each family records its index tuples once per degree 0..kmax; a
    # family with more indices than n records nothing
    half_triples = perm(n, 3) // 2  # distinct (i, j, m), one of each swapped pair
    closed_forms = {
        "single-invariant-closed-form": n,
        "pair-invariant-angular-form": comb(n, 2),
        "subset-additivity": 2**n - 1 - n - comb(n, 2),
        "f-from-angular-momentum": half_triples,
        "f-antisymmetry": half_triples,
        "adjacent-pair-sum-commutes": half_triples,
        "triple-relation": perm(n, 3),
        "quad-pf-relation": perm(n, 4),
        "quad-ff-relation": perm(n, 4),
        "quint-ff-relation": perm(n, 5),
        "disjoint-pairs-commute": 3 * comb(n, 4),
    }
    params = ParameterSet.default(n)
    counts = Counter(r.relation for r in verify_racah_relations(params, kmax))
    assert counts == {name: (kmax + 1) * count for name, count in closed_forms.items() if count}
    # nested pairs A < B: 3^n - 2^(n+1) + 1; disjoint pairs: half as many
    nested = 3**n - 2 ** (n + 1) + 1
    counts = Counter(r.relation for r in verify_nested_disjoint_commute(params, kmax))
    assert counts == {
        "nested-invariants-commute": (kmax + 1) * nested,
        "disjoint-invariants-commute": (kmax + 1) * nested // 2,
    }


def recording_routes(monkeypatch):
    """Patch relations' materialize_on_monomials to list (descriptor, variables) per call.

    variables is the count n of variables on the plain range 0..n-1, else
    their 0-based positions.
    """
    calls = []
    materialize = relations.materialize_on_monomials

    def recording(op, n, k, kmax, variables=None):
        calls.append((op.descriptor, n if variables is None else variables))
        return materialize(op, n, k, kmax, variables)

    monkeypatch.setattr(relations, "materialize_on_monomials", recording)
    return calls


def test_passing_su11_and_lemma1_checks_run_on_their_own_variables(monkeypatch):
    # every subset but the full set is read on its own variables only; the
    # n-variable matrices are those of {1, 2, 3}, whose variables are all
    calls = recording_routes(monkeypatch)
    assert verify_su11(P3, 2).ok
    assert verify_casimir_laplacian_commute(P3, 2).ok
    full = [descriptor for descriptor, variables in calls if variables == 3]
    assert full == ["A0{1,2,3}", "J+{1,2,3}", "J-{1,2,3}", "C{1,2,3}", "Lap{1,2,3}"]
    # {1} and {1, 2} are the plain ranges of one and two variables
    assert {variables for _, variables in calls} == {1, 2, 3, (1,), (2,), (1, 2), (0, 2)}


def test_a_raising_operator_leaking_across_variables_takes_the_n_variable_route(monkeypatch):
    # J+ of {1} with an extra coordinate move of x2: its coordinate data
    # reach outside {1}, so its checks run on all n variables, and fail
    # there with the per-degree reference's witness
    def leaking_triple(ops, A):
        a0, jp, jm = su11_triple(ops, A)
        if A == (1,):
            jp = LinearOperator.moving([(0, lambda e: 1), (1, lambda e: 1)], "J+{1}", 2, 2)
        return a0, jp, jm

    monkeypatch.setattr(relations, "su11_triple", leaking_triple)
    calls = recording_routes(monkeypatch)
    params = ParameterSet.default(3)
    report = verify_su11(params, 3)
    assert ("J+{1}", 3) in calls and ("A0{1}", 1) not in calls
    assert report.results == per_degree_su11(params, 3).results
    failed = failures(report)
    assert {(r.relation, r.index_tuple) for r in failed} == {("su11-raising", (1,))}
    assert failed[0] == CheckResult("su11-raising", (1,), 0, "fail", "-1/2 * x2^2")


def test_a_wrong_a0_inside_its_support_fails_on_its_variables_first(monkeypatch):
    # A0 + 1 on {1, 3}: [J-, J+] = 2 A0 fails on x1, x3 alone, so the
    # bracket is summed again on all n variables, for the reference's bytes
    real = LinearOperator.degree_diagonal.__func__

    def mutated(cls, positions, value, descriptor, den):
        if descriptor == "A0{1,3}":
            return real(cls, positions, lambda d: value(d) + den, descriptor, den)
        return real(cls, positions, value, descriptor, den)

    monkeypatch.setattr(LinearOperator, "degree_diagonal", classmethod(mutated))
    calls = recording_routes(monkeypatch)
    params = ParameterSet.default(4)
    report = verify_su11(params, 3)
    assert ("A0{1,3}", (0, 2)) in calls and ("A0{1,3}", 4) in calls
    assert {d for d, variables in calls if variables == 4} == {
        "A0{1,3}", "J+{1,3}", "J-{1,3}", "A0{1,2,3,4}", "J+{1,2,3,4}", "J-{1,2,3,4}",
    }
    assert report.results == per_degree_su11(params, 3).results
    failed = failures(report)
    assert {(r.relation, r.index_tuple) for r in failed} == {("su11-bracket", (1, 3))}
    assert [r.degree for r in failed] == [0, 1, 2, 3]


def test_a_wrong_laplacian_coefficient_inside_its_support_fails_on_its_variables_first(
    monkeypatch
):
    # C_{1,2} built on a Lap_{1,2} whose x1 coefficient is off by one at
    # exponent 3: [C_{1,2}, Lap] fails on x1, x2 alone, and is summed again
    # on all n variables, for the reference's bytes
    real = operators.laplace

    def wrong_laplace(ops, A):
        lap = real(ops, A)
        if tuple(A) != (1, 2):
            return lap
        (_, c, _), second = lap.moves
        moves = [(0, lambda e: c(e) + (e == 3)), second[:2]]
        return LinearOperator.moving(moves, lap.descriptor, lap.shift, lap.den)

    monkeypatch.setattr(operators, "laplace", wrong_laplace)
    calls = recording_routes(monkeypatch)
    params = ParameterSet.default(3)
    report = verify_casimir_laplacian_commute(params, 4)
    assert ("C{1,2}", 2) in calls and ("C{1,2}", 3) in calls
    assert {d for d, variables in calls if variables == 3} == {"C{1,2}", "C{1,2,3}", "Lap{1,2,3}"}
    assert report.results == per_degree_laplacian_commute(params, 4).results
    relation = "invariant-commutes-with-laplacian"
    assert failures(report) == [
        CheckResult(relation, (1, 2), 3, "fail", "17/18 * x1"),
        CheckResult(relation, (1, 2), 4, "fail", "23/18 * x1 x2"),
    ]


@settings(max_examples=20, deadline=None)
@example(5, 4, [Fraction(10**6), Fraction(1, 9), Fraction(1, 2), Fraction(1, 3), Fraction(1)], None)
@example(3, 2, [Fraction(1, 9), Fraction(10**6), Fraction(7, 3)] + [Fraction(1)] * 2, ((1, 3), 1))
@given(
    st.integers(1, 5),
    st.integers(0, 4),
    st.lists(racah_mu, min_size=5, max_size=5),
    st.one_of(
        st.none(),
        st.tuples(
            st.sets(st.integers(1, 5), min_size=1).map(lambda A: tuple(sorted(A))),
            st.integers(0, 4),
        ),
    ),
)
def test_support_local_reports_are_the_n_variable_reports(n, kmax, mu, bump):
    # su11 and lemma1 against the same sweeps with no support taken to lie
    # in its subset, so every check runs on all n variables: the same bytes,
    # with and without A0 and D_A raised by one at one A-degree of a drawn
    # subset
    params = ParameterSet(n, tuple(mu[:n]))
    real = LinearOperator.degree_diagonal.__func__
    wrong = set()
    if bump is not None and all(i <= n for i in bump[0]):
        name = ",".join(map(str, bump[0]))
        wrong = {f"A0{{{name}}}", f"D{{{name}}}"}

    def mutated(cls, positions, value, descriptor, den):
        if descriptor in wrong:
            return real(cls, positions, lambda s: value(s) + (s == bump[1]), descriptor, den)
        return real(cls, positions, value, descriptor, den)

    def texts():
        sweeps = (verify_su11, verify_casimir_laplacian_commute)
        return [sweep(params, kmax).to_json_text() for sweep in sweeps]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LinearOperator, "degree_diagonal", classmethod(mutated))
        local = texts()
        patch.setattr(relations, "_within", lambda A, *ops: False)
        assert texts() == local


def test_degree_sum_dim_counts_its_monomials():
    # dim is read from ends: the monomials of degrees 0..kmax, none when kmax < 0
    for n, kmax, extra in product((1, 2, 4), (-2, -1, 0, 1, 3), (0, 2)):
        space = DegreeSum(n, kmax, kmax + extra)
        assert space.dim == len(degree_sum_basis(space))
        assert space.dim == (0 if kmax < 0 else comb(n + kmax, n))


@settings(max_examples=25, deadline=None)
@example(4, 3, [Fraction(10**6), Fraction(1, 9), Fraction(1, 2), Fraction(1, 3)], (1, 2, 4))
@example(2, 0, [Fraction(1, 9), Fraction(10**6), Fraction(1, 2), Fraction(1, 3)], (1, 2))
@given(
    st.sampled_from([2, 3, 4]),
    st.integers(0, 3),
    st.lists(racah_mu, min_size=4, max_size=4),
    st.sets(st.integers(1, 4), min_size=1).map(lambda A: tuple(sorted(A))),
)
def test_every_leading_block_is_the_matrix_on_its_degrees(n, kmax, mu, A):
    # A0, J+-, C_A and Lap_A on the ambient degrees of su11 (top kmax + 2)
    # and lemma1 (top kmax): the leading block on the source degrees up to
    # each d, the blocks a check reads among them, the top one included, is
    # a fresh operator's matrix on the degrees -2..d
    params = ParameterSet(n, tuple(mu[:n]))
    A = tuple(i for i in A if i <= n) or (1,)

    def operators():
        ops = DunklOperators(params)
        return [*su11_triple(ops, A), casimir(ops, A), laplace(ops, A)]

    for top in (kmax + 2, kmax):
        space = DegreeSum(n, kmax, top)
        for op, fresh in zip(operators(), operators()):
            ambient = space.materialize(op)
            last = top - max(0, op.shift)
            assert space.lead(ambient, last + op.shift, last).shape == ambient.shape
            for d in range(-1, last + 1):
                block = space.lead(ambient, d + op.shift, d)
                assert block == materialize_on_monomials(fresh, n, -2, d), (op.descriptor, d)
