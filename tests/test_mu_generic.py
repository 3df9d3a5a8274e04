"""The identities are claimed for every positive rational mu, so draw mu.

The acceptance gate runs at ParameterSet.default(n); these properties run
small sweeps of the relation, su(1,1), lemma1, lemma2, drinfeld-kohno,
embedding, closed-form and spectral suites at drawn mu, including equal
values, integers and numerators and denominators up to 10^6.  The direct
connection matrix is the oracle for the composed per-edge pipeline, the
racah sweep's pair families for the drinfeld-kohno suite, and the realized
second-pair action for the rank-one module data, on the line
mu_1 + mu_2 = 1 where omega_0 vanishes and off it.
"""

from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from racah_dunkl import (
    Chain,
    DunklOperators,
    ParameterSet,
    build_basis_tower,
    casimir,
    connection_matrix,
    connection_pipeline,
    module_tridiagonal_data,
    parity_blocks,
    spectral_data,
    tridiagonal_check,
    verify_casimir_laplacian_commute,
    verify_ck,
    verify_drinfeld_kohno,
    verify_embedding,
    verify_nested_disjoint_commute,
    verify_racah_relations,
    verify_spectral_action,
    verify_su11,
)

from report_helpers import failures, select

BIG = 10**6
mu_values = st.one_of(
    st.builds(Fraction, st.integers(1, BIG), st.integers(1, BIG)),
    st.integers(1, 4).map(Fraction),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
)


@st.composite
def parameters(draw, n):
    # drawing the n values from a pool of at most n makes repeats common
    pool = draw(st.lists(mu_values, min_size=1, max_size=n))
    return ParameterSet(n, tuple(draw(st.sampled_from(pool)) for _ in range(n)))


def shape(report):
    return [(r.relation, r.index_tuple, r.degree) for r in report]


@lru_cache(maxsize=None)
def default_shape(n, kmax):
    return shape(verify_racah_relations(ParameterSet.default(n), kmax))


def assert_all_ok(report):
    assert len(report) > 0
    assert report.ok, [r.to_json_obj() for r in failures(report)][:1]


@settings(max_examples=10, deadline=None)
@given(parameters(3), parameters(4))
def test_racah_relations_hold_at_any_mu(p3, p4):
    for params, kmax in ((p3, 3), (p4, 2)):
        report = verify_racah_relations(params, kmax)
        assert_all_ok(report)
        assert shape(report) == default_shape(params.n, kmax)


@lru_cache(maxsize=None)
def default_lemma1_shape(n, kmax):
    return shape(verify_casimir_laplacian_commute(ParameterSet.default(n), kmax))


@settings(max_examples=10, deadline=None)
@given(parameters(3), parameters(4))
def test_invariants_commute_with_laplacian_at_any_mu(p3, p4):
    for params, kmax in ((p3, 4), (p4, 2)):
        report = verify_casimir_laplacian_commute(params, kmax)
        assert_all_ok(report)
        assert shape(report) == default_lemma1_shape(params.n, kmax)


@settings(max_examples=10, deadline=None)
@given(parameters(3), parameters(4), st.permutations([1, 2, 3, 4]))
def test_commutativity_and_embedding_suites_hold_at_any_mu(p3, p4, order):
    # the embedding blocks come in a drawn order, so K + L is often unsorted
    singletons = [(i,) for i in order if i != 4]
    pair_first = [order[:2], order[2:3], order[3:]]
    for params, kmax, blocks in ((p3, 3, singletons), (p4, 2, pair_first)):
        for suite in (
            verify_nested_disjoint_commute,
            verify_drinfeld_kohno,
            lambda p, k: verify_embedding(p, *blocks, k),
        ):
            report = suite(params, kmax)
            assert_all_ok(report)
            assert shape(report) == shape(suite(ParameterSet.default(params.n), kmax))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([3, 4]).flatmap(parameters), st.integers(0, 2))
def test_drinfeld_kohno_is_the_commutativity_part_of_the_racah_sweep(params, kmax):
    # the same records, in the same order, as the racah sweep's two pair families
    report = verify_drinfeld_kohno(params, kmax)
    assert_all_ok(report)
    racah = verify_racah_relations(params, kmax)
    pair_families = select(racah, "disjoint-pairs-commute", "adjacent-pair-sum-commutes")
    assert report.results == pair_families.results


@settings(max_examples=10, deadline=None)
@given(parameters(3), parameters(4))
def test_su11_closed_form_and_spectral_action_at_any_mu(p3, p4):
    assert_all_ok(verify_su11(p3, 3))
    assert_all_ok(select(verify_ck(p3, 3), "closed-form-matches-tower"))
    assert_all_ok(verify_spectral_action(p4, 3))


@settings(max_examples=10, deadline=None)
@given(parameters(4))
def test_composed_pipeline_equals_direct_matrix_at_any_mu(params):
    start, goal = Chain.from_order((1, 2, 3, 4)), Chain.from_order((2, 4, 3, 1))
    edges = connection_pipeline(params, 3, start, goal)
    product = edges[0]
    for w in edges[1:]:
        product = product.compose(w)
    direct = connection_matrix(
        params,
        build_basis_tower(params, 3, start.order),
        build_basis_tower(params, 3, goal.order),
    )
    assert product.entries == direct.entries


# mu_1 + mu_2 = 1: sigma = 2 and omega_0 = 0 on every module with eps_1 = eps_2 = 0
on_sigma_two_line = st.tuples(
    st.integers(2, BIG).flatmap(lambda q: st.tuples(st.integers(1, q - 1), st.just(q))),
    mu_values,
).map(lambda draw: ParameterSet(3, (Fraction(*draw[0]), 1 - Fraction(*draw[0]), draw[1])))
off_sigma_two_line = parameters(3).filter(lambda p: p.mu[0] + p.mu[1] != 1)


def omega_divided_b0(sd):
    """B_0 by the formula that divides by omega_0, defined off the line alone."""
    omega = sd.omega(0)
    ratio = (sd.lambda2 - sd.lambda1) * (sd.lambda3 - sd.lambda123) / omega
    return (sd.lambda123 + sd.lambda1 + sd.lambda2 + sd.lambda3 - omega - ratio) / 2


def singular_modules(params, kmax):
    """Match module_tridiagonal_data with C23 realized on every module up to kmax.

    Off the line, B_0 also equals the omega-divided formula; the count of
    modules with omega_0 = 0 is returned.
    """
    c23 = casimir(DunklOperators(params), (2, 3))
    singular = 0
    for d3 in range(kmax + 1):
        tower = build_basis_tower(params, d3)
        for eps, idx in parity_blocks(tower).items():
            expected = {eps: module_tridiagonal_data(params, eps, d3)}
            assert_all_ok(tridiagonal_check(params, c23, [tower[p] for p in idx], expected).report)
            sd = spectral_data(params, eps, d3)
            if sd.omega(0) == 0:
                singular += 1
            else:
                assert expected[eps][0][0] == omega_divided_b0(sd)
    return singular


@settings(max_examples=10, deadline=None)
@given(on_sigma_two_line, off_sigma_two_line)
def test_module_data_is_the_realized_action_on_and_off_the_sigma_two_line(on, off):
    # eps = (0, 0, 0) at the even degrees, (0, 0, 1) at the odd ones
    assert singular_modules(on, 6) == 7
    assert singular_modules(off, 6) == 0
