"""The primitives read from coordinate data, against their closed-form rules.

T_i, x_i, |x_A|^2 and Lap_A are sums of coordinate moves and A0 and D_A
are degree diagonals; their matrices are filled from the index tables of
poly.coordinate_moves and poly.subset_degrees, shared by every operator,
and their rules from the same kept coefficient values.  The oracles are
the closed-form rules of tests/reference.py, whose matrices come from the
rule loop of reference.rule_matrix.  Also checked: the shared tables
are immutable and give the same matrices however they were filled, two
operators never share coefficient values or matrices, and a D_A that is
wrong at one A-degree fails lemma1 exactly where the commutator reads it.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from racah_dunkl import (
    DunklOperators,
    ParameterSet,
    casimir,
    laplace,
    materialize_on_monomials,
    monomial_basis,
    norm_square_mul,
    su11_triple,
)
from racah_dunkl.operators import LinearOperator, _coordinate_mul
from racah_dunkl.poly import coordinate_moves, exponent_columns, subset_degrees
from racah_dunkl.relations import nonempty_subsets, verify_casimir_laplacian_commute

import reference

BIG = 10**6
mu_values = st.one_of(
    st.sampled_from([Fraction(BIG), Fraction(1, 9)]),
    st.builds(Fraction, st.integers(1, BIG), st.integers(1, BIG)),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
)


def primitives(params, A, i):
    """(operator read from coordinate data, the same primitive as a closed-form rule)."""
    n, ops = params.n, DunklOperators(params)
    (_, (d_a,)), _ = casimir(ops, A).terms
    return [
        (ops.dunkl[i], reference.dunkl_rule(params, i)),
        (_coordinate_mul(i), reference.coordinate_rule(i)),
        (norm_square_mul(A, n), reference.norm_square_rule(A, n)),
        (laplace(ops, A), reference.laplace_rule(params, A)),
        (su11_triple(ops, A)[0], reference.a0_rule(params, A)),
        (d_a, reference.casimir_diagonal_rule(params, A)),
    ]


@st.composite
def cases(draw):
    """Parameters, a subset A, an index i, a range k..kmax and integer coefficients."""
    n = draw(st.integers(1, 5))
    params = ParameterSet(n, tuple(draw(st.lists(mu_values, min_size=n, max_size=n))))
    A = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=1))))
    i = draw(st.integers(1, n))
    k = draw(st.integers(-3, 4))
    kmax = draw(st.integers(k - 1, 5 if n < 5 else 4))
    exps = st.tuples(*[st.integers(0, 5)] * n)
    terms = draw(st.dictionaries(exps, st.integers(-50, 50).filter(bool), max_size=6))
    return params, A, i, k, kmax, terms


@settings(max_examples=40, deadline=None)
@example((ParameterSet(5, (BIG, Fraction(1, 9), BIG, Fraction(1, 9), 1)), (1, 2, 4), 2, 0, 4,
          {(3, 2, 0, 1, 0): 7, (0, 0, 4, 0, 1): -3}))
@example((ParameterSet(1, (Fraction(1, 9),)), (1,), 1, -2, 5, {(5,): 2, (2,): -1}))
@given(cases())
def test_data_matrices_and_images_are_the_closed_form_rules(case):
    # the kept matrix has the rule loop's den and sparse rows, and apply on
    # integer coefficients gives the rule's image, before and after the matrix
    params, A, i, k, kmax, terms = case
    n = params.n
    for op, rule in primitives(params, A, i):
        assert (op.shift, op.den) == (rule.shift, rule.den), op.descriptor
        assert op.apply(terms) == rule.apply(terms), op.descriptor
        matrix = materialize_on_monomials(op, n, k, kmax)
        want = reference.rule_matrix(rule, n, k, kmax)
        assert matrix.shape == want.shape, (op.descriptor, k, kmax)
        assert (matrix.den, matrix.sparse_rows) == (want.den, want.sparse_rows), (
            op.descriptor, k, kmax
        )
        assert op.apply(terms) == rule.apply(terms), op.descriptor


def _all_tuples(value) -> bool:
    if isinstance(value, tuple):
        return all(_all_tuples(x) for x in value)
    return type(value) is int


def test_shared_tables_are_immutable_and_independent_of_what_filled_them():
    # one process fills the tables at n = 4 and n = 5 and on overlapping
    # ranges; every matrix is a fresh operator's and the closed-form rule's
    params4 = ParameterSet.make(["3/7", "5/2", "1/9", "8/3"])
    params5 = ParameterSet.make(["1/9", str(BIG), "2/3", "7/5", "1/2"])
    ranges = [(0, 3), (2, 5), (1, 4), (-2, 2), (3, 3)]
    for params in (params4, params5, params4):
        n = params.n
        for k, kmax in ranges:
            for A in ((1,), (1, 3), tuple(range(1, n + 1))):
                kept, fresh = primitives(params, A, 2), primitives(params, A, 2)
                for (op, rule), (again, _) in zip(kept, fresh):
                    for a, b in ((0, 3), (k, kmax)):
                        materialize_on_monomials(op, n, a, b)
                    matrix = materialize_on_monomials(op, n, k, kmax)
                    want = reference.rule_matrix(rule, n, k, kmax)
                    other = materialize_on_monomials(again, n, k, kmax)
                    assert matrix == want == other, (op.descriptor, n, k, kmax)
                    assert matrix.den == want.den == other.den, op.descriptor
    for n in (4, 5):
        for d in range(6):
            for pos in range(n):
                for step in (-2, -1, 1, 2):
                    assert _all_tuples(coordinate_moves(n, d, pos, step))
            for A in nonempty_subsets(n):
                assert _all_tuples(subset_degrees(n, d, tuple(i - 1 for i in A)))


def test_subset_degrees_are_the_per_monomial_sums():
    # the tables are built from exponent columns; each equals the degree of
    # every monomial over the subset, summed one monomial at a time
    for n in range(1, 6):
        for k in range(-1, 7):
            basis = monomial_basis(n, k)
            columns = exponent_columns(n, k)
            assert len(columns) == n
            assert all(list(column) == [e[pos] for e in basis] for pos, column in enumerate(columns))
            for A in nonempty_subsets(n):
                positions = tuple(i - 1 for i in A)
                want = [sum(e[pos] for pos in positions) for e in basis]
                assert list(subset_degrees(n, k, positions)) == want, (n, k, A)


def kept_values(op):
    return [values for *_, values in op.moves] if op.moves else [op.diagonal[2]]


def test_operators_at_different_mu_share_no_coefficient_values_or_matrix():
    first = DunklOperators(ParameterSet.make(["1/2", "1/3", "1/4"]))
    second = DunklOperators(ParameterSet.make(["1/9", "5/2", "1/4"]))
    A = (1, 2)
    pairs = [
        (laplace(first, A), laplace(second, A)),
        (first.dunkl[1], second.dunkl[1]),
        (su11_triple(first, A)[0], su11_triple(second, A)[0]),
        (casimir(first, A).terms[0][1][0], casimir(second, A).terms[0][1][0]),
        (norm_square_mul(A, 3), norm_square_mul(A, 3)),
    ]
    for a, b in pairs:
        ma, mb = (materialize_on_monomials(op, 3, 0, 4) for op in (a, b))
        assert all(kept_values(a)) and not any(x is y for x in kept_values(a) for y in kept_values(b))
        assert ma is not mb and ma.sparse_rows is not mb.sparse_rows
        assert not any(x is y for x in ma.sparse_rows for y in mb.sparse_rows)
        if a.descriptor != "|x{1,2}|^2":
            assert ma != mb, a.descriptor


@st.composite
def laplacian_cases(draw):
    """Parameters, a subset A and the 0-based position of a move to edit."""
    n = draw(st.integers(1, 5))
    params = ParameterSet(n, tuple(draw(st.lists(mu_values, min_size=n, max_size=n))))
    A = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=1))))
    return params, A, draw(st.integers(0, n - 1))


@settings(max_examples=40, deadline=None)
@example((ParameterSet(5, (BIG, Fraction(1, 9), BIG, Fraction(1, 9), 1)), (2, 4), 1))
@example((ParameterSet(3, (Fraction(1, 9), BIG, Fraction(7, 3))), (1, 2, 3), 2))
@example((ParameterSet(1, (Fraction(1, 9),)), (1,), 0))
@given(laplacian_cases())
def test_every_laplacian_is_a_kept_restriction_of_the_full_one(case):
    # Lap_A is the full Laplacian's moves at A over its den, kept on it and
    # on ops: the restriction lemma1 asks for is C_A's own Lap_A.  Its kept
    # matrix on each range is the closed form in lowest terms.  A full
    # Laplacian with one move edited keeps its own restrictions, so lemma1
    # reads the Laplacian under test, not one of ops.laplacians
    params, A, edited = case
    n, ops = params.n, DunklOperators(params)
    full = laplace(ops, range(1, n + 1))
    positions = [i - 1 for i in A]
    lap = laplace(ops, A)
    assert lap is full.moves_at(positions, "Lap|A", full.den) is laplace(ops, A)
    assert lap is ops.laplacians[A] and (lap is full) == (len(A) == n)
    assert (lap.den, lap.support) == (full.den, frozenset(positions))
    assert casimir(ops, A).terms[1][1][1] is lap
    rule = reference.laplace_rule(params, A)
    for k, kmax in ((0, 4), (2, 3), (-2, 1), (3, 5 if n < 5 else 4)):
        materialize_on_monomials(lap, n, k, kmax)
    assert len(lap._matrices) == 4
    for (_, k, kmax), matrix in lap._matrices.items():
        want = reference.rule_matrix(rule, n, k, kmax)
        assert (matrix.den, matrix.sparse_rows) == (want.den, want.sparse_rows), (k, kmax)
    moves = [
        (pos, (lambda e, c=c: c(e) + (e == 2)) if pos == edited else c) for pos, c, _ in full.moves
    ]
    wrong = LinearOperator.moving(moves, full.descriptor, full.shift, full.den)
    restriction = wrong.moves_at(positions, "Lap|A", wrong.den)
    assert restriction is wrong.moves_at(positions, "Lap|A", wrong.den)
    assert all(restriction is not op for op in ops.laplacians.values())
    kept = [values for op in ops.laplacians.values() for values in kept_values(op)]
    assert not any(x is y for x in kept_values(restriction) for y in kept)
    matrix = materialize_on_monomials(restriction, n, 0, 2)
    assert (matrix != reference.rule_matrix(rule, n, 0, 2)) == (edited in positions)


def lemma1_failures(n, A, s0):
    """The degrees k <= 4 on which [C_A, Lap] reads a D_A wrong at A-degree s0.

    D_A + delta P, P the projection on A-degree s0, adds delta [P, Lap] to
    the commutator, and [P, Lap] x^e is +-delta Lap_A x^e when the A-degree
    of x^e is s0 + 2 or s0, and zero otherwise; Lap_A x^e is nonzero when
    some i in A has e_i >= 2.
    """
    return {
        k
        for k in range(5)
        for e in monomial_basis(n, k)
        if sum(e[i - 1] for i in A) in (s0, s0 + 2) and max(e[i - 1] for i in A) >= 2
    }


@pytest.mark.parametrize("n, A, s0", [
    (4, (1, 2), 1), (4, (1, 2), 2), (4, (2, 3, 4), 0), (4, (1, 2, 3, 4), 1), (3, (1, 2, 3), 2),
])
def test_a_casimir_diagonal_wrong_at_one_degree_fails_lemma1_where_it_is_read(
    monkeypatch, n, A, s0
):
    real = LinearOperator.degree_diagonal.__func__
    wrong = f"D{{{','.join(map(str, A))}}}"

    def mutated(cls, positions, value, descriptor, den):
        if descriptor == wrong:
            return real(cls, positions, lambda s: value(s) + (s == s0), descriptor, den)
        return real(cls, positions, value, descriptor, den)

    monkeypatch.setattr(LinearOperator, "degree_diagonal", classmethod(mutated))
    report = verify_casimir_laplacian_commute(ParameterSet.default(n), 4)
    failed = {(r.index_tuple, r.degree) for r in report if not r.ok}
    expected = lemma1_failures(n, A, s0)
    assert expected and failed == {(A, k) for k in expected}

