"""Verification sweeps of the quadratic-algebra identities (small instances).

The acceptance suite runs the full degree bounds; these tests keep the
sweeps small enough for quick iteration while still exercising every
relation family and the report plumbing.
"""

import hashlib
from collections import Counter
from fractions import Fraction

import pytest

from racah_dunkl import (
    DunklOperators,
    LinearOperator,
    ParameterSet,
    RationalMatrix,
    materialize_on_monomials,
    casimir,
    verify_casimir_laplacian_commute,
    verify_drinfeld_kohno,
    verify_embedding,
    verify_nested_disjoint_commute,
    verify_racah_relations,
    verify_su11,
)
from racah_dunkl import relations
from racah_dunkl.poly import monomial_basis
from racah_dunkl.relations import _matrix_witness, _record
from racah_dunkl.report import CheckResult, Report

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
        a = materialize_on_monomials(casimir(DunklOperators(base), (1, 2, 3)), 5, k)
        b = materialize_on_monomials(casimir(DunklOperators(other), (1, 2, 3)), 5, k)
        assert a == b


def test_report_json_shape():
    report = verify_su11(P3, 1)
    obj = report.to_json_obj()
    assert len(obj) == 7 * 3 * 2
    assert all(
        set(row) >= {"relation", "index_tuple", "degree", "status"} for row in obj
    )
    assert all(row["status"] == "ok" for row in obj)


def test_failure_witness_is_first_nonzero_column():
    # degree-2 monomials of three variables: x1^2, x1x2, x1x3, x2^2, x2x3, x3^2
    basis = monomial_basis(3, 2)
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
    assert _matrix_witness(3, basis, diff) == witness
    # the same discrepancy reached through sparse arithmetic gives the same witness
    shifted = diff + RationalMatrix.identity(6).scale(Fraction(1, 5))
    back = shifted - RationalMatrix.identity(6).scale(Fraction(1, 5))
    assert _matrix_witness(3, basis, back) == witness
    # the recording loop keeps the witness and derives the status from it
    report = Report()
    _record(report, 2, 3, basis, [
        ("triple-relation", (1, 2, 3), back),
        ("triple-relation", (1, 2, 3), diff - diff),
    ])
    assert report.results == [
        CheckResult("triple-relation", (1, 2, 3), 2, "fail", witness),
        CheckResult("triple-relation", (1, 2, 3), 2, "ok", None),
    ]


def test_su11_witness_is_first_nonzero_monomial_image(monkeypatch):
    # doubling J- breaks only the bracket [J-, J+] = 2 A0, on every subset
    triple = relations.su11_triple

    def doubled_lowering(ops, A):
        a0, jp, jm = triple(ops, A)
        doubled = LinearOperator(
            lambda e: {m: 2 * c for m, c in jm.apply({e: 1}).items()}, "2J-", -2, jm.den
        )
        return a0, jp, doubled

    monkeypatch.setattr(relations, "su11_triple", doubled_lowering)
    failures = verify_su11(P3, 1).failures
    assert {r.relation for r in failures} == {"su11-bracket"}
    assert len(failures) == 7 * 2
    assert failures[:2] == [
        CheckResult("su11-bracket", (1,), 0, "fail", "1"),
        CheckResult("su11-bracket", (1,), 1, "fail", "2 * x1"),
    ]


def test_lemma1_witness_is_first_nonzero_monomial_image(monkeypatch):
    # a Laplacian without x3 still commutes with C_1, C_2, C_3 and C_12;
    # the failing list and the witnesses were recorded monomial by monomial
    laplace = relations.laplace
    monkeypatch.setattr(relations, "laplace", lambda ops, A: laplace(ops, (1, 2)))
    report = verify_casimir_laplacian_commute(P3, 3)
    assert len(report) == 7 * 4
    relation = "invariant-commutes-with-laplacian"
    assert report.failures == [
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
    pair_invariants = relations._pair_invariants

    def bumped(params, k):
        c_pair = pair_invariants(params, k)
        if k == 2:
            key = frozenset((1, 2))
            entries = c_pair[key].to_fractions()
            entries[1][2] += 1
            c_pair[key] = RationalMatrix.from_fractions(entries)
        return c_pair

    monkeypatch.setattr(relations, "_pair_invariants", bumped)
    report = verify_racah_relations(ParameterSet.default(6), 2)
    failures = report.failures
    assert len(report) == 5544
    assert {r.degree for r in failures} == {2}
    assert Counter(r.relation for r in failures) == {
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
        relation: [r.index_tuple for r in failures if r.relation == relation]
        for relation in ("disjoint-pairs-commute", "f-from-angular-momentum")
    }
    assert by_relation == {
        "disjoint-pairs-commute": [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6)],
        "f-from-angular-momentum": [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6), (2, 1, 3)],
    }
    # the whole list of (relation, index tuple, degree), in report order
    listed = [(r.relation, r.index_tuple, r.degree) for r in failures]
    digest = hashlib.sha256(repr(listed).encode()).hexdigest()
    assert digest == "e3b3ad50f2484855b5b40f8f744f2e90a836cda0c5f8d8d71709ae82fab8e674"
    triple = next(r for r in failures if r.relation == "triple-relation")
    assert triple == CheckResult("triple-relation", (1, 2, 3), 2, "fail", "539/1152 * x1 x2")
