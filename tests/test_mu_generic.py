"""The identities are claimed for every positive rational mu, so draw mu.

The acceptance gate runs at ParameterSet.default(n); these properties run
small sweeps of the relation, su(1,1), lemma1, lemma2, drinfeld-kohno,
embedding, closed-form and spectral suites at drawn mu, including equal
values, integers and numerators and denominators up to 10^6.  The direct
connection matrix is the oracle for the composed per-edge pipeline, and
the racah sweep's pair families for the drinfeld-kohno suite.
"""

from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from racah_dunkl import (
    Chain,
    ParameterSet,
    build_basis_tower,
    connection_matrix,
    connection_pipeline,
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
