"""The operator layer: deformed derivatives, su(1,1) triples, invariants."""

import ast
import contextlib
import io
from fractions import Fraction
from pathlib import Path

import pytest

from racah_dunkl import (
    DunklOperators,
    ImageEscapesSpan,
    LinearOperator,
    ParameterSet,
    Polynomial,
    RationalMatrix,
    angular,
    casimir,
    dunkl,
    gamma,
    laplace,
    materialize,
    materialize_on_monomials,
    monomial_basis,
    norm_square_mul,
    su11_triple,
)
from racah_dunkl import cli, operators, relations
from racah_dunkl.linalg import product_sum

PARAMS = ParameterSet.make(["1/2", "1/3", "1/4"])
OPS = DunklOperators(PARAMS)


def P(n, text):
    return Polynomial.from_text(n, text)


def test_dunkl_examples():
    t1 = dunkl(PARAMS, 1)
    x1 = Polynomial.variable(3, 1)
    # derivative gives 1, reflection-difference gives 2 mu_1
    assert t1(x1) == Polynomial.constant(3, 2)
    assert t1(x1 * x1) == P(3, "2 * x1")
    assert t1(Polynomial.constant(3, 7)).is_zero


def test_dunkl_matches_composite_formula():
    # T_i p = d_i p + mu_i * (p - r_i p) / x_i on arbitrary inputs
    for i in (1, 2, 3):
        t = dunkl(PARAMS, i)
        mu = PARAMS.mu_of(i)
        for exps in monomial_basis(3, 4):
            p = Polynomial.monomial(3, exps, Fraction(3, 7))
            odd_part = p - p.reflect(i)
            expected = p.partial_derivative(i)
            if not odd_part.is_zero:
                expected = expected + odd_part.divide_by_coordinate(i).scale(mu)
            assert t(p) == expected


def test_dunkl_operators_commute():
    t1, t2 = dunkl(PARAMS, 1), dunkl(PARAMS, 2)
    for exps in monomial_basis(3, 5):
        p = Polynomial.monomial(3, exps)
        assert t1(t2(p)) == t2(t1(p))


def test_laplace_examples():
    lap1 = laplace(OPS, (1,))
    x1 = Polynomial.variable(3, 1)
    assert lap1(x1 * x1) == Polynomial.constant(3, 4)  # 2(1 + 2 mu_1)
    lap = laplace(OPS, (1, 2, 3))
    assert lap(x1).is_zero
    assert lap(Polynomial.one(3)).is_zero


def test_norm_square_and_euler():
    nrm = norm_square_mul((1, 2), 2)
    assert nrm(Polynomial.one(2)) == P(2, "1 * x1^2 + 1 * x2^2")
    assert norm_square_mul((1,), 2)(Polynomial.variable(2, 1)) == P(2, "1 * x1^3")
    twice = nrm(nrm(Polynomial.one(2)))
    assert twice == P(2, "1 * x1^2 + 1 * x2^2") * P(2, "1 * x1^2 + 1 * x2^2")


def test_gamma_examples():
    assert gamma(ParameterSet.make(["1/2", "1/2"]), (1, 2)) == 2
    assert gamma(ParameterSet.make(["1/3"]), (1,)) == Fraction(5, 6)
    with pytest.raises(ValueError):
        gamma(PARAMS, ())
    with pytest.raises(ValueError):
        gamma(PARAMS, (0, 1))


def test_su11_constant_action():
    a0, _, _ = su11_triple(OPS, (1, 2))
    gam = gamma(PARAMS, (1, 2))
    assert a0(Polynomial.one(3)) == Polynomial.constant(3, gam / 2)


def test_su11_brackets_small():
    a0, jp, jm = su11_triple(OPS, (1, 3))
    for k in range(4):
        for exps in monomial_basis(3, k):
            p = Polynomial.monomial(3, exps)
            assert a0(jp(p)) - jp(a0(p)) == jp(p)
            assert a0(jm(p)) - jm(a0(p)) == -jm(p)
            assert jm(jp(p)) - jp(jm(p)) == a0(p).scale(2)


def test_casimir_single_index_closed_form():
    for i in (1, 2, 3):
        ci = casimir(OPS, (i,))
        mu = PARAMS.mu_of(i)
        for exps in monomial_basis(3, 3):
            p = Polynomial.monomial(3, exps)
            expected = (
                p.scale(mu * mu - Fraction(3, 4)) - p.reflect(i).scale(mu)
            ).scale(Fraction(1, 4))
            assert ci(p) == expected


def test_casimir_constant():
    ca = casimir(OPS, (1, 2))
    gam = gamma(PARAMS, (1, 2))
    assert ca(Polynomial.one(3)) == Polynomial.constant(3, (gam * gam - 2 * gam) / 4)


def test_casimir_commutes_with_full_laplacian():
    ca = casimir(OPS, (1, 3))
    lap = laplace(OPS, (1, 2, 3))
    for exps in monomial_basis(3, 4):
        p = Polynomial.monomial(3, exps)
        assert ca(lap(p)) == lap(ca(p))


def test_casimir_central_for_its_own_set():
    # [C_A, Lap_A] = 0 and [C_A, |x_A|^2] = 0
    A = (1, 3)
    ca = casimir(OPS, A)
    lap_a = laplace(OPS, A)
    nrm_a = norm_square_mul(A, 3)
    for k in range(5):
        for exps in monomial_basis(3, k):
            p = Polynomial.monomial(3, exps)
            assert ca(lap_a(p)) == lap_a(ca(p))
            assert ca(nrm_a(p)) == nrm_a(ca(p))


def test_angular_examples():
    l12 = angular(OPS, 1, 2)
    x1 = Polynomial.variable(3, 1)
    assert l12(x1) == P(3, "-2 * x2")  # -x2 (1 + 2 mu_1)
    l21 = angular(OPS, 2, 1)
    for exps in monomial_basis(3, 3):
        p = Polynomial.monomial(3, exps)
        assert l12(p) == -l21(p)
    with pytest.raises(ValueError):
        angular(OPS, 2, 2)


def test_angular_commutator_identity():
    # [L_ij, L_jk] = L_ik (1 + 2 mu_j r_j)
    l12 = angular(OPS, 1, 2)
    l23 = angular(OPS, 2, 3)
    l13 = angular(OPS, 1, 3)
    mu2 = PARAMS.mu_of(2)
    for k in range(4):
        for exps in monomial_basis(3, k):
            p = Polynomial.monomial(3, exps)
            lhs = l12(l23(p)) - l23(l12(p))
            rhs = l13(p + p.reflect(2).scale(2 * mu2))
            assert lhs == rhs


def test_pair_invariant_angular_expression():
    # 4 C_ij + L_ij^2 - (mu_i r_i + mu_j r_j)^2 + 1 = 0
    c12 = casimir(OPS, (1, 2))
    l12 = angular(OPS, 1, 2)
    mu1, mu2 = PARAMS.mu_of(1), PARAMS.mu_of(2)
    for exps in monomial_basis(3, 4):
        p = Polynomial.monomial(3, exps)
        square = (
            p.scale(mu1 * mu1 + mu2 * mu2)
            + p.reflect(1).reflect(2).scale(2 * mu1 * mu2)
        )
        assert c12(p).scale(4) + l12(l12(p)) - square + p == Polynomial.zero(3)


def test_subset_additivity_on_triple():
    # C_{123} = C_12 + C_13 + C_23 - C_1 - C_2 - C_3 on degree 4
    c123 = casimir(OPS, (1, 2, 3))
    parts = [casimir(OPS, s) for s in ((1, 2), (1, 3), (2, 3))]
    singles = [casimir(OPS, (i,)) for i in (1, 2, 3)]
    for exps in monomial_basis(3, 4):
        p = Polynomial.monomial(3, exps)
        total = Polynomial.zero(3)
        for op in parts:
            total = total + op(p)
        for op in singles:
            total = total - op(p)
        assert c123(p) == total


def test_materialize_identity():
    identity = LinearOperator(lambda exps: {exps: 1}, "1")
    assert materialize_on_monomials(identity, 2, 2) == RationalMatrix.identity(3)
    basis = [P(2, "1 * x1^2 + 1 * x2^2"), P(2, "1 * x1 x2")]
    assert materialize(identity, 2, basis) == RationalMatrix.identity(2)


def test_materialize_between_degrees_matches_monomial_images():
    # column j is op(j-th degree-k monomial) written on the degree-(k + shift) monomials
    _, jp, jm = su11_triple(OPS, (1, 3))
    lap = laplace(OPS, (1, 2, 3))
    for op in (jp, jm, lap):
        for k in range(5):
            mat = materialize_on_monomials(op, 3, k)
            columns, rows = monomial_basis(3, k), monomial_basis(3, k + op.shift)
            assert mat.shape == (len(rows), len(columns))
            for j, exps in enumerate(columns):
                image = Polynomial(3, {row: mat.at(i, j) for i, row in enumerate(rows)})
                assert image == op(Polynomial.monomial(3, exps))


def test_materialize_below_degree_zero_is_empty():
    a0, jp, jm = su11_triple(OPS, (1, 2))
    lowered = materialize_on_monomials(jm, 3, 1)
    assert lowered.shape == (0, 3)
    # A0 on degree -1 has no rows or columns, J+ from degree -1 no columns
    a0_below = materialize_on_monomials(a0, 3, -1)
    raised = materialize_on_monomials(jp, 3, -1)
    assert a0_below.shape == (0, 0) and raised.shape == (3, 0)
    diff = product_sum([(1, (a0_below, lowered)), (-1, (lowered,))])
    assert diff.shape == (0, 3) and diff.is_zero
    assert diff.first_nonzero_column() is None
    square = product_sum([(1, (raised, lowered))])
    assert square.shape == (3, 3) and square.is_zero


def test_primitive_image_leaving_its_declared_degree_raises():
    # x1 raises the degree by one but is declared degree preserving
    x1 = LinearOperator(lambda exps: {(exps[0] + 1,) + exps[1:]: 1}, "x1")
    with pytest.raises(ImageEscapesSpan, match="x1 maps homogeneous degree 2 to degree 3,"
                       " not to its declared degree 2"):
        materialize_on_monomials(x1, 3, 2)


def test_materialize_on_basis_and_escape():
    c12 = casimir(OPS, (1, 2))
    from racah_dunkl import build_basis_tower

    basis = [el.poly for el in build_basis_tower(PARAMS, 3)]
    assert materialize(c12, 3, basis).shape == (len(basis), len(basis))
    # multiplication by x1 leaves the harmonic span
    x1 = LinearOperator(lambda exps: {(exps[0] + 1,) + exps[1:]: 1}, "x1")
    with pytest.raises(ImageEscapesSpan):
        materialize(x1, 3, basis)


@pytest.mark.parametrize("command, laplacian_images, dunkl_images", [
    # Lap_A of all 31 subsets on every monomial of degrees 0..4 in five
    # variables, 31 * 126; the commutator's full Laplacian is C_{12345}'s
    ("verify lemma1 --n 5 --kmax 4", 3906, 0),
    # J- reaches degree 6: Lap_A of all 15 subsets on degrees 0..6, 15 * 210
    ("verify su11 --n 4 --kmax 4", 3150, 0),
    # every C_A on degrees 0..2, 15 * 15; T_1..T_4 through L_ij, 4 * 15
    ("verify racah --n 4 --kmax 2", 225, 60),
])
def test_a_sweep_evaluates_each_dunkl_image_once(
    monkeypatch, command, laplacian_images, dunkl_images
):
    # every subset's invariant, Laplacian and J- share the sweep's Lap_A and
    # T_i: no image of either is evaluated twice
    laplacian, dunkl_evaluated = [], []
    real_dunkl, real_laplace = operators.dunkl, operators.laplace
    counted = set()

    def counting_dunkl(params, i):
        op = real_dunkl(params, i)
        rule = op.rule
        op.rule = lambda exps: dunkl_evaluated.append((i, exps)) or rule(exps)
        return op

    def counting_laplace(ops, A):
        op = real_laplace(ops, A)
        if op not in counted:
            counted.add(op)
            rule, name = op.rule, op.descriptor
            op.rule = lambda exps: laplacian.append((name, exps)) or rule(exps)
        return op

    monkeypatch.setattr(operators, "dunkl", counting_dunkl)
    monkeypatch.setattr(operators, "laplace", counting_laplace)
    monkeypatch.setattr(relations, "laplace", counting_laplace)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(command.split()) == 0
    assert len(laplacian) == len(set(laplacian)) == laplacian_images
    assert len(dunkl_evaluated) == len(set(dunkl_evaluated)) == dunkl_images


def test_operators_module_keeps_no_store():
    # kept images and matrices belong to the operators that computed them:
    # no memoizing decorator, and no module-level container to fill
    tree = ast.parse(Path(operators.__file__).read_text(encoding="utf-8"))
    names = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(tree)}
    names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
    assert not names & {"functools", "lru_cache", "cache", "cached_property"}
    assert not any(isinstance(node, ast.Global) for node in ast.walk(tree))
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            # type aliases and the constant Fraction(1) only
            assert isinstance(value, ast.Subscript) or (
                isinstance(value, ast.Call) and value.func.id == "Fraction"
            ), ast.unparse(node)
