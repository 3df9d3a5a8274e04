"""The operator layer: deformed derivatives, su(1,1) triples, invariants."""

import ast
import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

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
from racah_dunkl.relations import DegreeSum

from mutants import (
    broken_dunkl,
    doubled_lowering,
    one_monomial_map,
    swapped_laplace,
    with_extra_image,
)
from reference import divide_by_coordinate, from_text, partial_derivative, reflect

PARAMS = ParameterSet.make(["1/2", "1/3", "1/4"])
OPS = DunklOperators(PARAMS)


P = from_text


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
            odd_part = p - reflect(p, i)
            expected = partial_derivative(p, i)
            if not odd_part.is_zero:
                expected = expected + divide_by_coordinate(odd_part, i).scale(mu)
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
                p.scale(mu * mu - Fraction(3, 4)) - reflect(p, i).scale(mu)
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
            rhs = l13(p + reflect(p, 2).scale(2 * mu2))
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
            + reflect(reflect(p, 1), 2).scale(2 * mu1 * mu2)
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
    # a degree diagonal over no positions reads degree 0 on every monomial
    identity = LinearOperator.degree_diagonal((), lambda s: 1, "1", 1)
    assert materialize_on_monomials(identity, 2, 2, 2) == RationalMatrix.identity(3)
    for n, k, kmax in ((3, 2, 2), (3, 0, 3), (1, -1, 4)):
        matrix = materialize_on_monomials(identity, n, k, kmax)
        columns = [e for d in range(max(k, 0), kmax + 1) for e in monomial_basis(n, d)]
        assert matrix == RationalMatrix.identity(len(columns)), (n, k, kmax)
        for j, exps in enumerate(columns):
            image = Polynomial(n, {row: matrix.at(i, j) for i, row in enumerate(columns)})
            assert image == identity(Polynomial.monomial(n, exps)) == Polynomial.monomial(n, exps)
    basis = [P(2, "1 * x1^2 + 1 * x2^2"), P(2, "1 * x1 x2")]
    assert materialize(identity, 2, basis) == RationalMatrix.identity(2)


def test_materialize_between_degrees_matches_monomial_images():
    # column j is op(j-th degree-k monomial) written on the degree-(k + shift) monomials
    _, jp, jm = su11_triple(OPS, (1, 3))
    lap = laplace(OPS, (1, 2, 3))
    for op in (jp, jm, lap):
        for k in range(5):
            mat = materialize_on_monomials(op, 3, k, k)
            columns, rows = monomial_basis(3, k), monomial_basis(3, k + op.shift)
            assert mat.shape == (len(rows), len(columns))
            for j, exps in enumerate(columns):
                image = Polynomial(3, {row: mat.at(i, j) for i, row in enumerate(rows)})
                assert image == op(Polynomial.monomial(3, exps))


def test_materialize_below_degree_zero_is_empty():
    a0, jp, jm = su11_triple(OPS, (1, 2))
    lowered = materialize_on_monomials(jm, 3, 1, 1)
    assert lowered.shape == (0, 3)
    # A0 on degree -1 has no rows or columns, J+ from degree -1 no columns
    a0_below = materialize_on_monomials(a0, 3, -1, -1)
    raised = materialize_on_monomials(jp, 3, -1, -1)
    assert a0_below.shape == (0, 0) and raised.shape == (3, 0)
    diff = product_sum([(1, (a0_below, lowered)), (-1, (lowered,))])
    assert diff.shape == (0, 3) and diff.is_zero
    assert DegreeSum(3, 0).column_witnesses(diff) == [None] * 3
    square = product_sum([(1, (raised, lowered))])
    assert square.shape == (3, 3) and square.is_zero


def test_materialize_on_basis_and_escape():
    c12 = casimir(OPS, (1, 2))
    from racah_dunkl import build_basis_tower

    basis = [el.poly for el in build_basis_tower(PARAMS, 3)]
    assert materialize(c12, 3, basis).shape == (len(basis), len(basis))
    # multiplication by x1 leaves the harmonic span
    with pytest.raises(ImageEscapesSpan):
        materialize(OPS.coordinates[1], 3, basis)


@pytest.mark.parametrize("command, evaluations", [
    # C_A of all 31 subsets on degrees 0..4: D_A at the A-degrees 0..4,
    # 31 * 5; Lap_A at the exponents 2..4 and |x_A|^2 (on degrees -2..2) at
    # 0..2, each 3 per coordinate of A, 80 * 3 twice; the commutator's full
    # Laplacian is C_{12345}'s
    ("verify lemma1 --n 5 --kmax 4", 155 + 240 + 240),
    # degrees 0..6: A0 at the A-degrees 0..6, 15 * 7; J+'s |x_A|^2 (on
    # degrees -2..4) at 0..4 and J-'s Lap_A at 2..6, 5 per coordinate of A,
    # 32 * 5 twice
    ("verify su11 --n 4 --kmax 4", 105 + 160 + 160),
    # on degrees 0..2, the 15 C_A: D_A at 0..2 (15 * 3), Lap_A at 2 and
    # |x_A|^2 (on -2..0) at 0, 32 coordinates each; T_1..T_4 at 1..2 (4 * 2)
    # and x_1..x_4, kept on DunklOperators and read by every L_ij (on
    # -1..1), at 0..1 (4 * 2); the degree diagonals c1_i and R_i at 0..2
    # (4 * 2 * 3) and the six pair squares at 0..2 (6 * 3)
    ("verify racah --n 4 --kmax 2", 45 + 32 + 32 + 8 + 8 + 24 + 18),
])
def test_a_sweep_evaluates_each_dunkl_image_once(monkeypatch, command, evaluations):
    # a sweep reads every primitive's matrix from its coordinate data: it calls
    # no primitive's rule, and evaluates each coefficient at most once per
    # (operator, coordinate, exponent) or (operator, A-degree)
    calls, evaluated = [], []
    moving = LinearOperator.moving.__func__
    degree_diagonal = LinearOperator.degree_diagonal.__func__

    def counted(key, c):
        return lambda e: evaluated.append((key, e)) or c(e)

    def counting(op):
        rule = op.rule
        op.rule = lambda exps: calls.append((op.descriptor, exps)) or rule(exps)
        return op

    def counting_moving(cls, moves, descriptor, shift, den=1):
        key = object()
        moves = [(pos, counted((key, pos), c)) for pos, c in moves]
        return counting(moving(cls, moves, descriptor, shift, den))

    def counting_diagonal(cls, positions, value, descriptor, den):
        return counting(degree_diagonal(cls, positions, counted(object(), value), descriptor, den))

    monkeypatch.setattr(LinearOperator, "moving", classmethod(counting_moving))
    monkeypatch.setattr(LinearOperator, "degree_diagonal", classmethod(counting_diagonal))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(command.split()) == 0
    assert calls == []
    assert len(evaluated) == len(set(evaluated)) == evaluations


@pytest.mark.parametrize("command", [
    "verify su11 --n 3 --kmax 3",
    "verify lemma1 --n 4 --kmax 3",
    "verify racah --n 4 --kmax 2",
    "verify lemma2 --n 4 --kmax 2",
    "verify embedding --n 4 --kmax 2",
])
def test_a_sweep_keeps_one_range_per_primitive(monkeypatch, command):
    # each sweep asks every operator for its one ambient range, so every
    # primitive it materializes keeps exactly one matrix
    built = []
    init = LinearOperator.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(LinearOperator, "__init__", recording_init)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(command.split()) == 0
    kept = [len(op._matrices) for op in built if op.terms is None and op._matrices]
    assert kept and set(kept) == {1}


def test_ranges_that_differ_below_their_first_row_or_column_share_one_matrix():
    # below degree min(0, -shift) a range holds no row and no column: A0 and
    # Lap_A from degree -2 are A0 and Lap_A from degree 0, and J+ (shift 2,
    # the moves of |x_A|^2) from degree -4 is J+ from degree -2, whose rows
    # start at degree 0
    ops = DunklOperators(PARAMS)
    a0, jp, _ = su11_triple(ops, (1, 2))
    lap = laplace(ops, (1, 2))
    for op, low, first in ((a0, -2, 0), (lap, -2, 0), (jp, -4, -2)):
        kept = materialize_on_monomials(op, 3, first, 3)
        assert materialize_on_monomials(op, 3, low, 3) is kept
        assert list(op._matrices) == [(3, first, 3)]
    # an empty range from below stays empty
    assert materialize_on_monomials(a0, 3, -2, -1).shape == (0, 0)


def test_support_is_read_from_coordinate_data():
    # moves and diagonals name their positions, and a composite unites its
    # factors'; a mutant built from data reads its support the same way
    ops = DunklOperators(PARAMS)
    a0, jp, jm = su11_triple(ops, (1, 3))
    assert ops.dunkl[2].support == ops.coordinates[2].support == {1}
    assert a0.support == jp.support == jm.support == laplace(ops, (1, 3)).support == {0, 2}
    assert casimir(ops, (2, 3)).support == {1, 2} and angular(ops, 1, 3).support == {0, 2}
    c13 = casimir(ops, (1, 3))
    mutants = [
        (LinearOperator.degree_diagonal((), lambda s: 1, "1", 1), set()),
        (LinearOperator.composite([(1, (c13, c13))], "C13^2"), {0, 2}),
        (one_monomial_map((1, 0, 2), (1, 2, 2)), {0, 1, 2}),
        (with_extra_image(jp, (1, 0, 0), (1, 2, 0)), {0, 1, 2}),
        (broken_dunkl(PARAMS, 1), {0, 1, 2}),
        (doubled_lowering(ops, (1, 3))[2], {0, 2}),
        (swapped_laplace(ops, (2, 3)), {1, 2}),
    ]
    for op, support in mutants:
        assert type(op.support) is frozenset and op.support == support, op.descriptor


def test_every_operator_a_suite_builds_has_a_frozenset_support(monkeypatch):
    # every verify suite, at n = 4, builds only operators whose coordinate
    # data name their positions
    built = []
    init = LinearOperator.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(LinearOperator, "__init__", recording)
    args = SimpleNamespace(blocks=None, order=None)
    params = ParameterSet.default(4)
    for suite in cli.SUITES.values():
        assert suite.run(params, 2, args).ok
    assert {op.descriptor[0] for op in built} >= set("TxLJACD|rd")
    for op in built:
        assert type(op.support) is frozenset and op.support <= {0, 1, 2, 3}, op.descriptor


def test_a_composite_has_terms_of_one_shift():
    # the declared shift is every term's, so every image lands on its degree
    t1, x1 = OPS.dunkl[1], OPS.coordinates[1]
    with pytest.raises(ValueError, match="T1 \\+ x1 shift the degree by \\[-1, 1\\]"):
        LinearOperator.composite([(1, (t1,)), (1, (x1,))], "T1 + x1")
    with pytest.raises(ValueError, match="empty has no terms"):
        LinearOperator.composite([], "empty")
    # a term with no factors would have no shift and no image
    with pytest.raises(ValueError, match=re.escape("the term (1, ()) of e has no factors")):
        LinearOperator.composite([(1, ())], "e")
    with pytest.raises(ValueError, match=re.escape("the term (-1, ()) of x1 - 1 has no")):
        LinearOperator.composite([(1, (x1,)), (-1, ())], "x1 - 1")
    assert LinearOperator.composite([(1, (x1, t1)), (-1, (t1, x1))], "[x1, T1]").shift == 0


def test_raising_and_lowering_are_primitive_moves():
    # J+ is |x_A|^2 over den 2, J- shares Lap_A's moves and kept values over 2L
    ops = DunklOperators(PARAMS)
    _, jp, jm = su11_triple(ops, (1, 3))
    lap = laplace(ops, (1, 3))
    assert jp.terms is None and jm.terms is None
    assert (jp.den, jm.den) == (2, 2 * lap.den)
    assert [step[0] for step in jp.moves] == [0, 2]
    assert all(a is b for a, b in zip(jm.moves, lap.moves))
    materialize_on_monomials(jm, 3, 0, 4)
    assert all(values[:5] for *_, values in lap.moves)


def test_an_operator_on_chosen_variables_is_the_operator_of_their_parameters():
    # Lap_{2,4}, C_{2,4} and A0, J+, J- of {2, 4} at n = 4, read on x2 and x4
    # alone, are the operators of {1, 2} built from (mu_2, mu_4) on two variables
    params = ParameterSet.make(["1/2", "7/3", "1/9", "1000000"])
    ops = DunklOperators(params)
    small = DunklOperators(ParameterSet.make(["7/3", "1000000"]))
    pairs = [
        (laplace(ops, (2, 4)), laplace(small, (1, 2))),
        (casimir(ops, (2, 4)), casimir(small, (1, 2))),
        *zip(su11_triple(ops, (2, 4)), su11_triple(small, (1, 2))),
    ]
    for op, other in pairs:
        assert materialize_on_monomials(op, 2, 0, 4, (1, 3)) == materialize_on_monomials(
            other, 2, 0, 4
        ), op.descriptor
    # variables 0..n-1 are the plain range: one kept matrix
    lap = laplace(ops, (1, 2))
    assert materialize_on_monomials(lap, 2, 0, 3, (0, 1)) is materialize_on_monomials(lap, 2, 0, 3)


def test_every_angular_momentum_reads_the_kept_coordinates():
    # x_i is built once per DunklOperators, on first lookup, like T_i
    ops = DunklOperators(PARAMS)
    assert not ops.coordinates
    (_, (x1, t2)), (_, (x2, t1)) = angular(ops, 1, 2).terms
    (_, (x1_again, t3)), (_, (x3, _)) = angular(ops, 1, 3).terms
    assert x1 is x1_again is ops.coordinates[1] and x2 is ops.coordinates[2]
    assert (t1, t2, t3) == (ops.dunkl[1], ops.dunkl[2], ops.dunkl[3])
    assert sorted(ops.coordinates) == [1, 2, 3] and x3.descriptor == "x3"
    for bad in (0, PARAMS.n + 1, "1"):
        with pytest.raises(KeyError):
            ops.coordinates[bad]


def assert_keeps_no_store(module):
    # no memoizing decorator, no global, and no module-level container to fill
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
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
        if isinstance(node, ast.ClassDef):
            # a class attribute would be one store shared by every instance
            for stmt in node.body:
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    assert [t.id for t in targets] == ["__slots__"], ast.unparse(stmt)


def test_operators_module_keeps_no_store():
    # kept images and matrices belong to the operators that computed them
    assert_keeps_no_store(operators)


def test_relations_module_keeps_no_store():
    # a sweep's generators are kept on its RelationWorkspace object alone
    assert_keeps_no_store(relations)
