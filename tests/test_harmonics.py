"""Extension maps, tower bases, closed forms, and spectral actions."""

import itertools
import re
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racah_dunkl import (
    DunklOperators,
    HarmonicBasisElement,
    HarmonicLabel,
    LinearOperator,
    ParameterSet,
    Polynomial,
    build_basis_tower,
    casimir,
    casimir_eigenvalue,
    ck_extend,
    enumerate_labels,
    gamma,
    harmonic_space_dim,
    laplace,
    matrix_rank,
    monomial_basis,
    parity_blocks,
    verify_ck,
    verify_power_action_sweep,
)
from racah_dunkl import harmonics
from racah_dunkl.report import Report

from mutants import swapped_laplace
from reference import (
    add_power_action,
    fischer_decompose,
    from_text,
    jacobi_closed_form,
    module_basis,
    norm_square_poly,
    polynomial_power,
    reflect,
)
from report_helpers import failures, select

P3 = ParameterSet.make(["1/2", "1/3", "1/4"])
P2 = ParameterSet.make(["1/2", "1/3"])


def realize_label(params: ParameterSet, label: HarmonicLabel) -> Polynomial:
    """Evaluate the alternating tower of extensions and norm multiplications."""
    n = params.n
    if label.n != n:
        raise ValueError("label dimension does not match parameters")
    o = label.order
    h = ck_extend(params, (), o[0], label.epsilon[0], Polynomial.one(n))
    for m in range(2, n + 1):
        done = o[: m - 1]
        power = label.ell[m - 2]
        if power:
            h = polynomial_power(norm_square_poly(done, n), power) * h
        h = ck_extend(params, done, o[m - 1], label.epsilon[m - 1], h)
    return h


def dunkl_laplacian(params: ParameterSet, A) -> LinearOperator:
    """The sum of T_i o T_i over A as a composite of the Dunkl operators.

    The oracle for the closed-form T_i^2 rule of laplace, which the tower
    and ck_extend use.
    """
    ops = DunklOperators(params)
    return LinearOperator.composite([(1, (ops.dunkl[i], ops.dunkl[i])) for i in A], "sum T_i T_i")


def test_ck_extend_constant_even():
    assert ck_extend(P2, (1,), 2, 0, Polynomial.one(2)) == Polynomial.one(2)


def test_ck_extend_constant_odd():
    assert ck_extend(P2, (1,), 2, 1, Polynomial.one(2)) == Polynomial.variable(2, 2)


def test_ck_extend_square():
    # j = 0 and j = 1 terms: x1^2 - (1 + 2 mu_1)/(1 + 2 mu_2) x2^2
    p = Polynomial.monomial(2, (2, 0))
    ext = ck_extend(P2, (1,), 2, 0, p)
    expected = p - Polynomial.monomial(2, (0, 2), Fraction(6, 5))
    assert ext == expected
    assert laplace(DunklOperators(P2), (1, 2))(ext).is_zero


def test_ck_extend_validation():
    p = Polynomial.variable(2, 1)
    with pytest.raises(ValueError):
        ck_extend(P2, (1,), 1, 0, p)  # new variable already extended
    with pytest.raises(ValueError):
        ck_extend(P2, (1,), 2, 2, p)  # parity out of range
    with pytest.raises(ValueError):
        ck_extend(P2, (1,), 2, 0, p + Polynomial.one(2))  # not homogeneous
    with pytest.raises(ValueError):
        ck_extend(P2, (1,), 2, 0, Polynomial.variable(2, 2))  # support outside


def test_ck_extend_rejects_an_input_holding_the_new_variable():
    # the lift writes x_new^(2j+parity) by placing the exponent, which would
    # overwrite an exponent of x_new already in the input
    with pytest.raises(ValueError, match=r"outside vars_done: \[3\]"):
        ck_extend(P3, (1, 2), 3, 0, Polynomial.monomial(3, (1, 0, 1)))
    with pytest.raises(ValueError, match=r"outside vars_done: \[3\]"):
        ck_extend(P3, (), 3, 1, Polynomial.variable(3, 3))


def test_extension_restrictions_build_the_dunkl_operators_once(monkeypatch):
    # verify ck builds one DunklOperators for the lifts and every T_i; the
    # towers, built before the count starts, are read as they are
    towers = {k: build_basis_tower(P3, k) for k in range(5)}
    built = []
    real = harmonics.DunklOperators

    def counting(params):
        built.append(params)
        return real(params)

    monkeypatch.setattr(harmonics, "build_basis_tower", lambda params, k: towers[k])
    monkeypatch.setattr(harmonics, "DunklOperators", counting)
    report = verify_ck(P3, 4)
    assert built == [P3]
    assert len(report) == 35 and report.ok


def test_label_validation_and_degree():
    label = HarmonicLabel((1, 2, 3), (1, 0, 1), (2, 0))
    assert label.degree == 1 + 1 + 2 * 2
    assert label.partial_degree(2) == 1 + 2 * 2
    with pytest.raises(ValueError):
        HarmonicLabel((1, 1, 2), (0, 0, 0), (0, 0))
    with pytest.raises(ValueError):
        HarmonicLabel((1, 2, 3), (0, 2, 0), (0, 0))
    with pytest.raises(ValueError):
        HarmonicLabel((1, 2, 3), (0, 0, 0), (-1, 0))
    for order, eps, ell in (
        ((0, 1, 2), (0, 0, 0), (0, 0)),
        ((1, 2, 3), (0, 0), (0, 0)),
        ((1, 2, 3), (0, 0, 0), (0, 0, 0)),
        ((1, 2), (0, 0, 0), (0, 0)),
    ):
        with pytest.raises(ValueError):
            HarmonicLabel(order, eps, ell)


def test_tower_rejects_an_order_that_is_not_a_permutation_of_1_to_n():
    # an order of the wrong length is named as such, not as a bad epsilon of
    # a label; enumerate_labels checks the order once, even when k yields
    # no labels at all
    params = ParameterSet.default(4)
    assert enumerate_labels(4, -1) == []
    for order in ((1, 2, 3), (1, 2, 3, 4, 5), (1, 2, 2, 4), (0, 1, 2, 3), (1, 2, 3, 5)):
        message = f"^order {re.escape(str(order))} is not a permutation of 1\\.\\.4$"
        for bad in (order, list(order)):
            with pytest.raises(ValueError, match=message):
                build_basis_tower(params, 2, bad)
            for k in (-1, 0, 3):
                with pytest.raises(ValueError, match=message):
                    enumerate_labels(4, k, bad)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_enumerated_labels_equal_labels_built_through_the_checks(n):
    # enumerate_labels checks the order once and skips the per-label
    # checks; its labels must be indistinguishable from checked ones
    orders = list(itertools.islice(itertools.permutations(range(1, n + 1)), 0, None, 5))
    orders.append(tuple(range(n, 0, -1)))
    for order in orders:
        for k in range(7):
            labels = enumerate_labels(n, k, order)
            assert len(labels) == harmonic_space_dim(n, k)
            for label in labels:
                checked = HarmonicLabel(order, label.epsilon, label.ell)
                assert label == checked and checked == label
                assert hash(label) == hash(checked)
                assert repr(label) == repr(checked)
                assert label.degree == k


def test_basis_n2_k1():
    elements = build_basis_tower(P2, 1)
    polys = [el.poly for el in elements]
    assert polys == [Polynomial.variable(2, 1), Polynomial.variable(2, 2)]
    assert [el.label.epsilon for el in elements] == [(1, 0), (0, 1)]


def test_basis_n3_k0_and_k2():
    assert [el.poly for el in build_basis_tower(P3, 0)] == [Polynomial.one(3)]
    assert len(build_basis_tower(P3, 2)) == 5  # dim P_2(R^2) + dim P_1(R^2)


def test_dimension_against_kernel_rank():
    # independent oracle: dim of the kernel of the deformed Laplacian on
    # degree-k polynomials equals dim - rank of its matrix
    n = 3
    lap = laplace(DunklOperators(P3), (1, 2, 3))
    for k in range(7):
        basis = monomial_basis(n, k)
        lower = monomial_basis(n, k - 2)
        if lower:
            cols = []
            for exps in basis:
                image = lap(Polynomial.monomial(n, exps))
                cols.append(image.terms)
            rank = matrix_rank(cols)
        else:
            rank = 0
        assert harmonic_space_dim(n, k) == len(basis) - rank


def test_tower_elements_harmonic_and_parity():
    lap = dunkl_laplacian(P3, (1, 2, 3))
    for k in range(5):
        for el in build_basis_tower(P3, k):
            assert lap(el.poly).is_zero
            for pos, var in enumerate(el.label.order):
                reflected = reflect(el.poly, var)
                if el.label.epsilon[pos] == 0:
                    assert reflected == el.poly
                else:
                    assert reflected == -el.poly


def test_tower_equals_per_label_realization():
    # the tower shares Laplacians and prefix harmonics across labels;
    # realize_label lifts every label from scratch and is the reference
    p4 = ParameterSet.make(["2/3", "5", "1/7", "3/2"])
    for params, orders in ((P3, (None, (3, 1, 2))), (p4, ((1, 2, 3, 4), (2, 4, 3, 1)))):
        for order in orders:
            for k in range(5):
                labels = enumerate_labels(params.n, k, order)
                tower = build_basis_tower(params, k, order)
                assert [el.label for el in tower] == labels
                assert [el.poly for el in tower] == [realize_label(params, l) for l in labels]


mu_values = st.one_of(
    st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
)


@settings(max_examples=5, deadline=None)
@given(st.lists(mu_values, min_size=3, max_size=3))
def test_module_basis_equals_per_label_realization_at_any_mu(mu):
    # a module holds the labels (l1, top - l1) in ascending l1
    # each (d3, order) tower is built once and its modules read by parity_blocks
    params = ParameterSet(3, tuple(mu))
    for order in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        for d3 in range(9):
            tower = build_basis_tower(params, d3, order)
            blocks = parity_blocks(tower)
            for epsilon in itertools.product((0, 1), repeat=3):
                rem = d3 - sum(epsilon)
                if rem < 0 or rem % 2:
                    assert epsilon not in blocks
                    continue
                eps_pos = tuple(epsilon[o - 1] for o in order)
                top = rem // 2
                labels = [HarmonicLabel(order, eps_pos, (l1, top - l1)) for l1 in range(top + 1)]
                basis = [tower[p] for p in blocks[epsilon]]
                assert [el.label for el in basis] == labels
                assert [el.poly for el in basis] == [realize_label(params, l) for l in labels]
    # module_basis reads one module of the tower and refuses an absent one
    order, epsilon, d3 = (2, 3, 1), (1, 0, 1), 6
    tower = build_basis_tower(params, d3, order)
    basis = module_basis(params, epsilon, d3, order)
    assert [el.poly for el in basis] == [tower[p].poly for p in parity_blocks(tower)[epsilon]]
    with pytest.raises(ValueError):
        module_basis(params, (1, 0, 0), d3, order)


def reference_lift(
    params: ParameterSet,
    lap: LinearOperator | None,
    new_var: int,
    parity: int,
    p: Polynomial,
) -> Polynomial:
    """The extension multiplied out: generic monomial products, closed coefficients.

    The j-th term is the monomial (-1)^j x_new^(2j+parity) / (4^j j! (c)_j)
    times Lap^j p, formed by Polynomial.__mul__ and summed by __add__.
    """
    n = params.n
    base = params.mu_of(new_var) + Fraction(1, 2) + parity
    pos = new_var - 1

    result = Polynomial.zero(n)
    q = p
    j = 0
    while not q.is_zero:
        denom = Fraction(4) ** j * factorial(j) * harmonics.raising_factorial(base, j)
        coeff = Fraction((-1) ** j) / denom
        exps = [0] * n
        exps[pos] = 2 * j + parity
        result = result + Polynomial.monomial(n, exps, coeff) * q
        if lap is None:
            break
        q = lap(q)
        j += 1
    return result


lift_mu = st.one_of(st.sampled_from([Fraction(10**6), Fraction(1, 9)]), mu_values)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([3, 4]), st.data())
def test_lift_matches_the_monomial_product_reference(n, data):
    # ck_extend places the exponent of x_new and takes each coefficient from
    # the one before; the reference multiplies monomials out and evaluates
    # the closed coefficients
    mu = data.draw(st.lists(lift_mu, min_size=n, max_size=n), label="mu")
    order = tuple(data.draw(st.permutations(range(1, n + 1)), label="order"))
    params = ParameterSet(n, tuple(mu))
    laps = [None] + [dunkl_laplacian(params, order[:m]) for m in range(1, n)]

    def lift(m, parity, p):
        """Lift p, supported on order[:m], into order[m]; both ways must agree."""
        got = ck_extend(params, order[:m], order[m], parity, p)
        assert got == reference_lift(params, laps[m], order[m], parity, p)
        return got

    # every monomial of degree <= 6 over each prefix, both parities
    for parity in (0, 1):
        lift(0, parity, Polynomial.one(n))
        for m in range(1, n):
            for k in range(7):
                for prefix_exps in monomial_basis(m, k):
                    exps = [0] * n
                    for var, e in zip(order, prefix_exps):
                        exps[var - 1] = e
                    lift(m, parity, Polynomial.monomial(n, exps))

    # every tower intermediate of degree <= 6: the input of each lift step,
    # from the labels' norm powers and the reference's own lifts
    steps: dict[tuple, Polynomial] = {}
    for k in range(7):
        labels = enumerate_labels(n, k, order)
        for label in labels:
            h = Polynomial.one(n)
            for m in range(n):
                key = (label.epsilon[: m + 1], label.ell[:m])
                if key not in steps:
                    if m:
                        h = polynomial_power(norm_square_poly(order[:m], n), label.ell[m - 1]) * h
                    steps[key] = lift(m, label.epsilon[m], h)
                h = steps[key]
        tower = build_basis_tower(params, k, order)
        assert [el.poly for el in tower] == [steps[(l.epsilon, l.ell)] for l in labels]


def assert_reduced_fractions(p: Polynomial) -> None:
    """p is nonzero int numerators over one den > 0 in lowest terms, read as reduced Fractions."""
    assert type(p.den) is int and p.den > 0
    assert all(type(x) is int and x for x in p.terms.values())
    assert gcd(p.den, *p.terms.values()) == 1
    for exps, c in p.sorted_terms():
        assert type(c) is Fraction and c == Fraction(p.terms[exps], p.den)
        assert c and c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([3, 4, 5]), st.data())
def test_tower_is_the_reference_chain_in_reduced_fractions(n, data):
    # the tower and ck_extend run on integer numerators over one denominator;
    # what they return must be in lowest terms, with the reduced Fraction
    # coefficients of the chain of reference_lift steps and Polynomial norm
    # multiplications
    mu = data.draw(st.lists(lift_mu, min_size=n, max_size=n), label="mu")
    order = tuple(data.draw(st.permutations(range(1, n + 1)), label="order"))
    params = ParameterSet(n, tuple(mu))
    laps = [None] + [dunkl_laplacian(params, order[:m]) for m in range(1, n)]

    for k in range({3: 7, 4: 6, 5: 4}[n]):
        tower = build_basis_tower(params, k, order)
        assert [el.label for el in tower] == enumerate_labels(n, k, order)
        for el in tower:
            assert_reduced_fractions(el.poly)
            h = Polynomial.one(n)
            for m in range(n):
                if m:
                    h = polynomial_power(norm_square_poly(order[:m], n), el.label.ell[m - 1]) * h
                lifted = ck_extend(params, order[:m], order[m], el.label.epsilon[m], h)
                h = reference_lift(params, laps[m], order[m], el.label.epsilon[m], h)
                assert_reduced_fractions(lifted)
                assert lifted.sorted_terms() == h.sorted_terms()
                assert lifted == h
            assert el.poly.sorted_terms() == h.sorted_terms()
            assert el.poly == h


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.data())
def test_integer_laplacian_is_den_times_the_composite_laplacian(n, data):
    # laplace is the closed-form integer T_i^2 rule over den; the test-local
    # composite of T_i o T_i is its oracle
    mu = data.draw(st.lists(lift_mu, min_size=n, max_size=n), label="mu")
    subset = data.draw(
        st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True), label="subset"
    )
    params = ParameterSet(n, tuple(mu))
    lap = laplace(DunklOperators(params), subset)
    composite = dunkl_laplacian(params, subset)
    for k in range(7):
        for exps in monomial_basis(n, k):
            expected = composite(Polynomial.monomial(n, exps))
            got = lap.apply({exps: 1})
            assert all(type(x) is int for x in got.values())
            assert got == {e: c * lap.den for e, c in expected.sorted_terms()}
            assert lap(Polynomial.monomial(n, exps)) == expected


def test_lift_divides_out_its_content():
    # the tower keeps each intermediate as integers over one denominator;
    # _lift returns them in lowest terms so that they do not grow per step
    inputs = (({(2, 0, 0): 4, (0, 2, 0): -6}, 6), ({(1, 1, 0): 10}, 1), ({(0, 0, 0): 3}, 9))
    for params in (P3, ParameterSet.make([10**6, "1/9", "1/4"])):
        ops = DunklOperators(params)
        lap = laplace(ops, (1, 2))
        oracle = dunkl_laplacian(params, (1, 2))
        for terms, den in inputs:
            p = Polynomial(3, {exps: Fraction(x, den) for exps, x in terms.items()})
            for parity in (0, 1):
                out, out_den = harmonics._lift(ops, lap, 3, parity, terms, den)
                assert out_den > 0 and gcd(out_den, *out.values()) == 1
                lifted = Polynomial(3, {exps: Fraction(x, out_den) for exps, x in out.items()})
                assert lifted == reference_lift(params, oracle, 3, parity, p)
                assert lifted == ck_extend(params, (1, 2), 3, parity, p)


def test_lift_reads_each_factor_from_the_full_laplacian(monkeypatch):
    # the j-th step divides by T_v^2's coefficient at 2j + parity, read from
    # the move of ops.laplacian at v: Lap^2 x1^2 = 0, so an edit at e = 2
    # moves only the x_v^2 term of the even lift, and no mu is read
    params = ParameterSet.make(["3/7", "1/9", "1000000"])
    ops = DunklOperators(params)
    lap, x1_squared = laplace(ops, (1, 2)), {(2, 0, 0): 1}
    terms, den = harmonics._lift(ops, lap, 3, 0, x1_squared, 1)
    full = ops.laplacian
    moves = [(pos, (lambda e, c=c: c(e) + (e == 2)) if pos == 2 else c) for pos, c, _ in full.moves]
    ops.laplacian = LinearOperator.moving(moves, full.descriptor, full.shift, full.den)
    edited = Polynomial._trusted(3, *harmonics._lift(ops, lap, 3, 0, x1_squared, 1))
    diff = edited - Polynomial._trusted(3, terms, den)
    assert list(diff.terms) == [(0, 0, 2)]
    ops.laplacian = full

    def refuse(self, i):
        raise AssertionError("the lift read mu")

    monkeypatch.setattr(ParameterSet, "mu_of", refuse)
    assert harmonics._lift(ops, lap, 3, 0, x1_squared, 1) == (terms, den)


def test_verify_tower_catches_a_wrong_laplacian_rule(monkeypatch):
    # the tower lifts with laplace's closed-form rule; verify ck checks
    # harmonicity through T_i(T_i(h)), so a wrong rule is caught, with a witness
    assert verify_ck(P3, 3).ok
    monkeypatch.setattr(harmonics, "laplace", swapped_laplace)
    report = verify_ck(P3, 3)
    harmonic = failures(select(report, "tower-element-harmonic"))
    assert [r.degree for r in harmonic] == [2, 3]
    # the witness is the first nonzero sum of T_i T_i over the broken tower
    lap = dunkl_laplacian(P3, (1, 2, 3))
    for r in harmonic:
        images = [lap(el.poly) for el in build_basis_tower(P3, r.degree)]
        assert r.first_discrepancy == next(q for q in images if not q.is_zero).to_text()
    assert "extension-harmonic" in {r.relation for r in failures(report)}
    # the closed form never lifts, so it tells the broken tower apart too
    assert [r.degree for r in failures(select(report, "closed-form-matches-tower"))] == [2, 3]


def test_tower_linear_independence():
    for k in range(5):
        elements = build_basis_tower(P3, k)
        vectors = [el.poly.terms for el in elements]
        assert matrix_rank(vectors) == len(elements)


def test_label_enumeration_deterministic():
    labels = enumerate_labels(3, 3)
    assert len(labels) == harmonic_space_dim(3, 3)
    assert all(lab.degree == 3 for lab in labels)
    assert labels == enumerate_labels(3, 3)
    # reversed-parity-vector lexicographic enumeration
    eps_rev = [tuple(reversed(lab.epsilon)) for lab in labels]
    assert eps_rev == sorted(eps_rev)


def test_some_parity_sectors_empty_below_dimension():
    # at degree k < n the fully odd sector cannot occur
    sectors = {el.label.variable_parities() for el in build_basis_tower(P3, 2)}
    assert (1, 1, 1) not in sectors
    assert len(sectors) < 8


def test_parity_sectors_partition_basis():
    elements = build_basis_tower(P3, 4)
    total = 0
    for sector in {el.label.variable_parities() for el in elements}:
        total += sum(1 for el in elements if el.label.variable_parities() == sector)
    assert total == len(elements)


def closed_forms(params: ParameterSet, labels) -> list[Polynomial]:
    """The closed forms that verify ck compares with the towers."""
    return harmonics._closed_forms(params, labels)


def test_closed_form_trivial_label():
    label = HarmonicLabel((1, 2, 3), (1, 1, 0), (0, 0))
    assert closed_forms(P3, [label]) == [from_text(3, "1 * x1 x2")]


def test_closed_form_matches_tower_n2():
    label = HarmonicLabel((1, 2), (0, 0), (1,))
    assert closed_forms(P2, [label]) == [realize_label(P2, label)]


def test_closed_form_matches_tower_sweep(monkeypatch):
    # every label of degrees 0..4 in one call, sharing prefixes across degrees;
    # the per-label Polynomial expansion of tests/reference.py agrees
    labels = [label for k in range(5) for label in enumerate_labels(3, k)]
    expected = [realize_label(P3, label) for label in labels]
    assert [jacobi_closed_form(P3, label) for label in labels] == expected

    # the closed form is the route independent of the tower: it never lifts
    def refuse(*args):
        raise AssertionError("the closed form reached the lift")

    for name in ("_lift", "laplace", "ck_extend", "DunklOperators"):
        monkeypatch.setattr(harmonics, name, refuse)
    assert closed_forms(P3, labels) == expected


def test_closed_form_permuted_order():
    labels = enumerate_labels(3, 4, order=(2, 3, 1))
    assert closed_forms(P3, labels) == [realize_label(P3, label) for label in labels]


def test_casimir_eigenvalue_examples():
    label = HarmonicLabel((1, 2, 3), (0, 0, 0), (0, 0))
    gam = gamma(P3, (1, 2))
    assert casimir_eigenvalue(P3, label, 2) == gam * (gam - 2) / 4
    full = gamma(P3, (1, 2, 3))
    k = 4
    top = HarmonicLabel((1, 2, 3), (0, 0, 0), (2, 0))
    assert casimir_eigenvalue(P3, top, 3) == (k + full) * (k + full - 2) / 4
    with pytest.raises(IndexError):
        casimir_eigenvalue(P3, label, 1)


def test_spectral_action_oracle_n3():
    ops = {m: casimir(DunklOperators(P3), tuple(range(1, m + 1))) for m in (2, 3)}
    for k in range(6):
        for el in build_basis_tower(P3, k):
            for m in (2, 3):
                value = casimir_eigenvalue(P3, el.label, m)
                assert ops[m](el.poly) == el.poly.scale(value)


def parity_project(p: Polynomial, i: int, sign: int) -> Polynomial:
    """Reference: projection onto the even (+1) or odd (-1) part in x_i."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return (p + reflect(p, i).scale(sign)).scale(Fraction(1, 2))


def test_parity_project():
    x1 = Polynomial.variable(2, 1)
    assert parity_project(x1, 1, +1).is_zero
    assert parity_project(x1 * x1, 1, +1) == x1 * x1
    p = from_text(2, "1 * x1^2 + 2 * x1 + 3")
    assert parity_project(p, 1, +1) + parity_project(p, 1, -1) == p
    assert parity_project(parity_project(p, 1, +1), 1, -1).is_zero
    # summing projections over all sign vectors reproduces p
    total = Polynomial.zero(2)
    for s1 in (1, -1):
        for s2 in (1, -1):
            total = total + parity_project(parity_project(p, 1, s1), 2, s2)
    assert total == p


def test_fischer_decompose_harmonic_input():
    h = build_basis_tower(P3, 3)[0].poly
    assert fischer_decompose(P3, h) == [(0, h)]


def test_fischer_decompose_norm_square():
    nrm = norm_square_poly((1, 2, 3), 3)
    assert fischer_decompose(P3, nrm) == [(1, Polynomial.one(3))]


def test_fischer_decompose_reconstruction():
    nrm = norm_square_poly((1, 2), 2)
    p = Polynomial.monomial(2, (2, 0))
    comps = fischer_decompose(P2, p)
    lap = laplace(DunklOperators(P2), (1, 2))
    total = Polynomial.zero(2)
    for j, h in comps:
        assert lap(h).is_zero
        total = total + polynomial_power(nrm, j) * h
    assert total == p
    # frozen values for this input, cross-checked by applying the Laplacian
    assert comps == [
        (0, from_text(2, "5/11 * x1^2 + -6/11 * x2^2")),
        (1, from_text(2, "6/11")),
    ]


def test_fischer_decompose_requires_homogeneous():
    with pytest.raises(ValueError):
        fischer_decompose(P2, from_text(2, "1 * x1 + 1"))


def power_action(params: ParameterSet, h: Polynomial, ell: int, j: int, k: int) -> Report:
    """The one power-action check at (ell, j, k) on |x|^(2k) h, by the per-element route."""
    full = tuple(range(1, params.n + 1))
    lap = laplace(DunklOperators(params), full)
    report = Report()
    add_power_action(
        report, (ell, j, k), lap, norm_square_poly(full, params.n), gamma(params, full), h
    )
    return report


def test_power_action_identity_cases():
    # j = 0 is the identity with unit factor
    report = power_action(P2, Polynomial.one(2), 0, 0, 2)
    assert report.ok
    # Lap |x|^2 = 4 gamma, via the identity with j = k = 1, h = 1
    nrm = norm_square_poly((1, 2), 2)
    gam = gamma(P2, (1, 2))
    assert laplace(DunklOperators(P2), (1, 2))(nrm) == Polynomial.constant(2, 4 * gam)
    assert power_action(P2, Polynomial.one(2), 0, 1, 1).ok
    # j=1, k=2, h=x1: factor 4 * 2 * (2 + gamma) = 16 + 8 gamma
    x1 = Polynomial.variable(2, 1)
    lhs = laplace(DunklOperators(P2), (1, 2))(nrm * nrm * x1)
    assert lhs == (nrm * x1).scale(16 + 8 * gam)
    assert power_action(P2, x1, 1, 1, 2).ok
    # the sweep records these cases on the tower elements 1 and x1
    sweep = verify_power_action_sweep(P2, 1, 2)
    assert sweep.ok
    assert {(0, 0, 2, 0), (0, 1, 1, 0), (1, 1, 2, 0)} <= {r.index_tuple for r in sweep}


def test_power_action_sweep_reports_a_non_harmonic_tower_element(monkeypatch, capsys):
    from racah_dunkl import cli, harmonics

    real = harmonics.build_basis_tower
    square = Polynomial.monomial(2, (2, 0))

    def defective(params, k, order=None):
        elements = real(params, k, order)
        if k == 2:
            elements[0] = HarmonicBasisElement(elements[0].label, square)
        return elements

    monkeypatch.setattr(harmonics, "build_basis_tower", defective)
    report = verify_power_action_sweep(P2, 2, 1)
    # every (j, k) entry of the first degree-2 element fails, witnessed by
    # the element's Laplacian
    assert [r.index_tuple for r in failures(report)] == [(2, 0, 0, 0), (2, 0, 1, 0), (2, 1, 1, 0)]
    witness = laplace(DunklOperators(P2), (1, 2))(square).to_text()
    assert all(r.first_discrepancy == witness for r in failures(report))
    assert cli.main(["verify", "lemma3", "--n", "2", "--kmax", "1"]) == 1
    assert '"status": "fail"' in capsys.readouterr().out


def test_permuted_tower_diagonalizes_permuted_invariants():
    params = ParameterSet.default(4)
    order = (4, 2, 3, 1)
    c24 = casimir(DunklOperators(params), (2, 4))
    c234 = casimir(DunklOperators(params), (2, 3, 4))
    for el in build_basis_tower(params, 3, order):
        assert c24(el.poly) == el.poly.scale(casimir_eigenvalue(params, el.label, 2))
        assert c234(el.poly) == el.poly.scale(casimir_eigenvalue(params, el.label, 3))
