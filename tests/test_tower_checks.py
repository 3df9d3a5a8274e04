"""The ck, eigen and lemma3 checks as product sums on one tower matrix.

The towers of degrees 0..kmax are the columns of one matrix H on the
ambient monomials of a DegreeSum; each per-element identity is one
product sum on H, read column by column.  The per-element routes of
tests/reference.py, which apply the operators to every element's
Polynomial, are the oracle: both write the same bytes at drawn mu, under
a shifted eigenvalue, with a non-harmonic tower element and with a wrong
closed-form coefficient.  verify ck builds each tower once and records
seven relations per degree, grouped as the tower, extension and
closed-form checks.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racah_dunkl import (
    HarmonicBasisElement,
    ParameterSet,
    Polynomial,
    RationalMatrix,
    enumerate_labels,
    verify_ck,
    verify_power_action_sweep,
    verify_spectral_action,
)
from racah_dunkl import harmonics, operators
from racah_dunkl.cli import SUITES
from racah_dunkl.relations import DegreeSum

import reference
from mutants import broken_dunkl
from report_helpers import failures, select

mu_values = st.one_of(
    st.sampled_from([Fraction(10**6), Fraction(1, 9)]),
    st.builds(Fraction, st.integers(1, 12), st.integers(1, 12)),
)
# (n, kmax) small enough for the per-element route
sizes = st.sampled_from([(1, 3), (2, 3), (3, 3), (4, 2)])


@st.composite
def cases(draw):
    n, kmax = draw(sizes)
    params = ParameterSet(n, [draw(mu_values) for _ in range(n)])
    order = tuple(draw(st.permutations(range(1, n + 1))))
    return params, draw(st.integers(0, kmax)), order


def both_routes(params: ParameterSet, kmax: int, order) -> list[tuple[str, str]]:
    """The report bytes of each suite by the matrix route and by the reference route."""
    n = params.n
    pairs = [
        (verify_spectral_action(params, kmax, order),
         reference.reference_spectral_action(params, kmax, order)),
        (verify_power_action_sweep(params, min(kmax, 2), kmax),
         reference.reference_power_action_sweep(params, min(kmax, 2), kmax)),
    ]
    if n >= 2:
        pairs.append((verify_ck(params, kmax), reference.reference_ck(params, kmax)))
    return [(a.to_json_text(), b.to_json_text()) for a, b in pairs]


@settings(max_examples=25, deadline=None)
@given(cases())
def test_matrix_route_writes_the_reference_bytes(case):
    params, kmax, order = case
    for matrix, element in both_routes(params, kmax, order):
        assert matrix == element


@settings(max_examples=15, deadline=None)
@given(cases(), st.data())
def test_a_shifted_eigenvalue_fails_the_same_records(case, data):
    params, kmax, order = case
    labels = [label for k in range(kmax + 1) for label in enumerate_labels(params.n, k, order)]
    target = data.draw(st.sampled_from(labels))
    m = data.draw(st.integers(2, max(params.n, 2)))
    real = harmonics.casimir_eigenvalue

    def shifted(p, label, step):
        value = real(p, label, step)
        return value + Fraction(1, 7) if (label, step) == (target, m) else value

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harmonics, "casimir_eigenvalue", shifted)
        patch.setattr(reference, "casimir_eigenvalue", shifted)
        report = verify_spectral_action(params, kmax, order)
        oracle = reference.reference_spectral_action(params, kmax, order)
    assert report.to_json_text() == oracle.to_json_text()
    expected = [(m, target.epsilon, target.ell)] if params.n >= 2 else []
    assert [r.index_tuple for r in failures(report)] == expected


@settings(max_examples=15, deadline=None)
@given(cases(), st.data())
def test_a_non_harmonic_element_fails_the_same_records(case, data):
    params, kmax, order = case
    n = params.n
    degree = data.draw(st.integers(2, max(kmax, 2)))
    real = harmonics.build_basis_tower
    elements = real(params, degree, order)
    if not elements:
        return
    place = data.draw(st.integers(0, len(elements) - 1))
    # a homogeneous polynomial of the element's degree that the Laplacian does not kill
    broken = Polynomial.monomial(n, (degree,) + (0,) * (n - 1))

    def defective(p, k, o=None):
        out = real(p, k, o)
        if k == degree:
            out[place] = HarmonicBasisElement(out[place].label, broken)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harmonics, "build_basis_tower", defective)
        patch.setattr(reference, "build_basis_tower", defective)
        routes = both_routes(params, max(kmax, degree), order)
    for matrix, element in routes:
        assert matrix == element
    if n >= 2:
        ck = routes[2][0]
        assert '"status": "fail"' in ck and '"relation": "tower-element-harmonic"' in ck


def test_ck_catches_one_wrong_dunkl_image(monkeypatch):
    # a passing ck report has the same bytes at every n and mu, so no golden
    # pins the harmonicity checks: break one T_1 image and name each record
    params = ParameterSet.make(["3/7", "1000000", "3/7"])
    run_ck = SUITES["ck"].run
    wider = ParameterSet.make(["3/7", "1000000", "3/7", "2"])
    assert run_ck(wider, 2, None).to_json_text() == run_ck(params, 2, None).to_json_text()
    assert verify_ck(params, 3).ok
    monkeypatch.setattr(operators, "dunkl", broken_dunkl)
    report = verify_ck(params, 3)
    assert [(r.relation, r.degree, r.first_discrepancy) for r in failures(report)] == [
        ("tower-element-harmonic", 2, "13/7"),
        ("tower-element-harmonic", 3, "27/7 * x1"),
        ("extension-harmonic", 2, "1 * x1^2"),
        ("extension-harmonic", 3, "1 * x1^3"),
    ]
    # the per-element route, applying the same broken T_1 to each Polynomial
    assert report.to_json_text() == reference.reference_ck(params, 3).to_json_text()


REAL_RAISING = harmonics.raising_factorial


@pytest.mark.parametrize(
    "mu", [["3/7", "2"], ["3/7", "1000000", "2"], ["3/7", "1000000", "3/7", "2"]]
)
def test_ck_catches_one_wrong_closed_form_coefficient(mu):
    # the base mu_n + 1/2 + eps of the last step, and no other, shifted by 1:
    # the closed form then differs from the tower exactly on the labels whose
    # last norm power ell[-1] is at least 1, which enter (base)_j with j >= 1
    params = ParameterSet.make(mu)
    n, kmax = params.n, 4
    last = {params.mu_of(n) + Fraction(1, 2) + eps for eps in (0, 1)}
    assert all(params.mu_of(i) + Fraction(1, 2) + eps not in last
               for i in range(1, n) for eps in (0, 1))

    def shifted(x, j):
        return REAL_RAISING(x + 1 if x in last else x, j)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harmonics, "raising_factorial", shifted)
        patch.setattr(reference, "raising_factorial", shifted)
        report = verify_ck(params, kmax)
        oracle = reference.reference_ck(params, kmax)
    assert report.to_json_text() == oracle.to_json_text()
    expected = [
        k for k in range(kmax + 1) if any(label.ell[-1] >= 1 for label in enumerate_labels(n, k))
    ]
    assert expected == [2, 3, 4]
    assert [(r.relation, r.degree) for r in failures(report)] == [
        ("closed-form-matches-tower", k) for k in expected
    ]
    for r in failures(report):
        epsilon, ell = r.index_tuple
        assert ell[-1] >= 1


CK_RELATIONS = (
    ["tower-element-harmonic", "tower-count", "tower-linear-independence"],
    ["extension-restriction-even", "extension-derivative-restriction-odd", "extension-harmonic"],
    ["closed-form-matches-tower"],
)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ck_builds_each_tower_once_and_keeps_the_record_order(monkeypatch, n):
    # one tower per degree serves harmonicity, count, rank and the closed
    # form; the records are the three former checks' in turn, degree-major
    params, kmax = ParameterSet.default(n), 3
    built = []
    real = harmonics.build_basis_tower

    def counting(p, k, order=None):
        built.append(k)
        return real(p, k, order)

    monkeypatch.setattr(harmonics, "build_basis_tower", counting)
    report = verify_ck(params, kmax)
    assert built == list(range(kmax + 1))
    assert len(report) == 7 * (kmax + 1) and report.ok
    expected = [
        (relation, k) for group in CK_RELATIONS for k in range(kmax + 1) for relation in group
    ]
    assert [(r.relation, r.degree) for r in report] == expected
    for group in CK_RELATIONS:
        assert [r.relation for r in select(report, *group)] == group * (kmax + 1)


def test_columns_place_each_polynomial_in_its_degree():
    space = DegreeSum(2, 2)
    polys = [
        Polynomial.one(2).scale(Fraction(1, 3)),
        Polynomial.zero(2),
        Polynomial.variable(2, 2).scale(Fraction(-1, 2)),
        Polynomial.monomial(2, (1, 1), 5),
    ]
    h = space.columns(polys)
    assert h.shape == (space.dim, 4) and h.den == 6
    basis = reference.degree_sum_basis(space)
    for j, p in enumerate(polys):
        column = {exps: h.at(i, j) for i, exps in enumerate(basis) if h.at(i, j)}
        assert column == {exps: p.coefficient(exps) for exps in p.terms}
    assert space.column_witnesses(h) == ["1/3", None, "-1/2 * x2", "5 * x1 x2"]


def test_column_witnesses_reduce_each_column_on_its_own():
    # den 4: column 0 holds 2/4 = 1/2, column 1 holds 4/4 = 1
    space = DegreeSum(1, 0)
    diff = RationalMatrix.from_sparse([{0: 2, 1: 4}], 4, 3)
    assert space.column_witnesses(diff) == ["1/2", "1", None]
