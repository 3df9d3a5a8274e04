"""Value semantics of the record types, as callers and outputs rely on them.

Each record compares equal by its fields and only to its own class, the
immutable ones hash by their fields and refuse assignment and deletion,
Report and TridiagonalData are mutable and unhashable, Chain orders by
its ordering, and every repr lists the fields as ``Name(field=value, ...)``.
"""

import copy
from fractions import Fraction

import pytest

from racah_dunkl import (
    Chain,
    CheckResult,
    ConnectionMatrix,
    HarmonicBasisElement,
    HarmonicLabel,
    ParameterSet,
    Polynomial,
    RacahParameters,
    RecouplingGraph,
    Report,
    SpectralData,
    TridiagonalData,
    build_graph,
    enumerate_chains,
)
from racah_dunkl.cli import SUITES, Suite
from racah_dunkl.linalg import RationalMatrix

LABEL = "HarmonicLabel(order=(1, 2, 3), epsilon=(0, 1, 0), ell=(1, 0))"
MATRIX = "RationalMatrix(2x2, den=3)"


def label(ell=(1, 0)):
    return HarmonicLabel((1, 2, 3), (0, 1, 0), ell)


def matrix(den=3):
    return RationalMatrix([[1, 0], [0, 2]], den)


def report(witness=None):
    out = Report()
    out.add("r", (1,), 2, witness)
    return out


def suite(name):
    s = SUITES[name]
    return Suite(s.noun, s.min_n, s.kmax, s.option, s.count, s.run)


# name -> (make, a field or None when the record is mutable and unhashable, repr of make(0));
# make(v) builds a fresh record on each call, equal for equal v
RECORDS = {
    "ParameterSet": (
        lambda v: ParameterSet(2, (1, "1/2") if v == 0 else (1, 1)),
        "mu",
        "ParameterSet(n=2, mu=(Fraction(1, 1), Fraction(1, 2)))",
    ),
    "CheckResult": (
        lambda v: CheckResult("r", (1,), 2, "ok") if v == 0 else CheckResult("r", (1,), 3, "ok"),
        "status",
        "CheckResult(relation='r', index_tuple=(1,), degree=2, status='ok', "
        "first_discrepancy=None)",
    ),
    "Report": (
        lambda v: report(None if v == 0 else "x1"),
        None,
        "Report(results=[CheckResult(relation='r', index_tuple=(1,), degree=2, status='ok', "
        "first_discrepancy=None)])",
    ),
    "HarmonicLabel": (lambda v: label((1, 0) if v == 0 else (0, 1)), "ell", LABEL),
    "HarmonicBasisElement": (
        lambda v: HarmonicBasisElement(label(), Polynomial.variable(3, 2 + v)),
        "poly",
        f"HarmonicBasisElement(label={LABEL}, poly=Polynomial(3, '1 * x2'))",
    ),
    "ConnectionMatrix": (
        lambda v: ConnectionMatrix((label(),), (label(),), matrix(3 + v)),
        "matrix",
        f"ConnectionMatrix(from_labels=({LABEL},), to_labels=({LABEL},), matrix={MATRIX})",
    ),
    "TridiagonalData": (
        lambda v: TridiagonalData(matrix(3 + v), {(0, 1, 0): [0]}, Report()),
        None,
        f"TridiagonalData(matrix={MATRIX}, blocks={{(0, 1, 0): [0]}}, report=Report(results=[]))",
    ),
    "RacahParameters": (
        lambda v: RacahParameters.derive(Fraction(1), Fraction(2), Fraction(3), Fraction(4 + v)),
        "tau",
        "RacahParameters(alpha=Fraction(1, 1), beta=Fraction(2, 1), gamma=Fraction(3, 1), "
        "delta=Fraction(4, 1), tau=Fraction(14, 1))",
    ),
    "SpectralData": (
        lambda v: SpectralData(*(Fraction(i + v) for i in range(1, 6))),
        "sigma",
        "SpectralData(sigma=Fraction(1, 1), lambda1=Fraction(2, 1), lambda2=Fraction(3, 1), "
        "lambda3=Fraction(4, 1), lambda123=Fraction(5, 1))",
    ),
    "Chain": (lambda v: Chain((1, 2, 3) if v == 0 else (1, 3, 2)), "order", "Chain(order=(1, 2, 3))"),
    "RecouplingGraph": (
        lambda v: build_graph(3 + v),
        "edges",
        "RecouplingGraph(vertices=(Chain(order=(1, 2, 3)), Chain(order=(1, 3, 2)), "
        "Chain(order=(2, 3, 1))), edges=((0, 1), (0, 2), (1, 2)))",
    ),
    "Suite": (
        lambda v: suite("su11" if v == 0 else "ck"),
        "kmax",
        f"Suite(noun='su11', min_n=1, kmax=6, option=None, count={SUITES['su11'].count!r}, "
        f"run={SUITES['su11'].run!r})",
    ),
}
NAMES = list(RECORDS)


@pytest.mark.parametrize("name", NAMES)
def test_records_are_equal_by_their_fields(name):
    make = RECORDS[name][0]
    a, b, c = make(0), make(0), make(1)
    assert a is not b and a == b and not a != b
    assert a != c and not a == c


@pytest.mark.parametrize("name", NAMES)
def test_records_are_unequal_to_another_class(name):
    a = RECORDS[name][0](0)
    other = RECORDS[NAMES[NAMES.index(name) - 1]][0](0)
    assert a.__eq__(other) is NotImplemented and a.__eq__(object()) is NotImplemented
    assert a != other and not a == other


@pytest.mark.parametrize("name", NAMES)
def test_immutable_records_hash_by_their_fields_and_the_mutable_ones_not_at_all(name):
    make, field, _ = RECORDS[name]
    if field is None:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(make(0))
        return
    assert hash(make(0)) == hash(make(0))
    assert len({make(0), make(0), make(1)}) == 2


@pytest.mark.parametrize("name", NAMES)
def test_record_repr_lists_the_fields(name):
    make, _, text = RECORDS[name]
    assert repr(make(0)) == text


@pytest.mark.parametrize("name", [name for name in NAMES if RECORDS[name][1] is not None])
def test_immutable_records_refuse_assignment_and_deletion(name):
    make, field, _ = RECORDS[name]
    a = make(0)
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert getattr(a, field) is before


def test_every_report_gets_its_own_results_list():
    a, b = Report(), Report()
    a.add("r", (), 0, None)
    assert len(a) == 1 and b.results == [] and Report().results == []


def test_a_check_result_has_no_witness_unless_given_one():
    assert CheckResult("r", (), 0, "ok").first_discrepancy is None
    assert CheckResult("r", (), 0, "fail", "x1").first_discrepancy == "x1"


@pytest.mark.parametrize("name", NAMES)
def test_a_copy_is_an_equal_record(name):
    a = RECORDS[name][0](0)
    assert copy.copy(a) == a and copy.copy(a) is not a


def test_labels_and_chains_given_lists_store_tuples():
    listed = HarmonicLabel([1, 2, 3], [0, 1, 0], [1, 0])
    assert (listed.order, listed.epsilon, listed.ell) == ((1, 2, 3), (0, 1, 0), (1, 0))
    assert listed == label() and hash(listed) == hash(label()) and repr(listed) == LABEL
    chain = Chain([1, 2, 3])
    assert chain.order == (1, 2, 3) and chain == Chain((1, 2, 3))
    assert hash(chain) == hash(Chain((1, 2, 3))) and repr(chain) == "Chain(order=(1, 2, 3))"


def test_trusted_label_equals_the_checked_one():
    trusted = HarmonicLabel._trusted((1, 2, 3), (0, 1, 0), (1, 0))
    assert trusted == label() and hash(trusted) == hash(label()) and repr(trusted) == LABEL


def test_chains_order_by_their_ordering():
    a, b, twin = Chain((1, 2, 3, 4)), Chain((1, 2, 4, 3)), Chain((1, 2, 3, 4))
    assert a < b and a <= b and b > a and b >= a
    assert a <= twin and a >= twin and not a < twin and not a > twin
    assert not b < a and not b <= a and not a > b and not a >= b
    for compare in (a.__lt__, a.__le__, a.__gt__, a.__ge__):
        assert compare((1, 2, 3, 4)) is NotImplemented
    with pytest.raises(TypeError):
        a < (1, 2, 3, 4)
    assert [c.order for c in enumerate_chains(4)] == [
        (1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4), (1, 3, 4, 2), (1, 4, 2, 3), (1, 4, 3, 2),
        (2, 3, 1, 4), (2, 3, 4, 1), (2, 4, 1, 3), (2, 4, 3, 1), (3, 4, 1, 2), (3, 4, 2, 1),
    ]


@pytest.mark.parametrize("build, message", [
    (lambda: ParameterSet(0, ()), "dimension must be positive, got 0"),
    (lambda: ParameterSet(2, (1,)), "expected 2 deformation parameters, got 1"),
    (lambda: ParameterSet(2, (1, 0)), "mu_2 = 0 violates the requirement mu_i > 0"),
    (lambda: ParameterSet(1, (0.5,)),
     "mu_1 = 0.5 is a float; pass an int, a Fraction or a 'p/q' string"),
    (lambda: HarmonicLabel((1, 3), (0, 0), (0,)), "order (1, 3) is not a permutation of 1..2"),
    (lambda: HarmonicLabel((1, 2), (0, 2), (0,)), "epsilon (0, 2) must be a 0/1 vector of length 2"),
    (lambda: HarmonicLabel((1, 2), (0, 1), (-1,)), "ell (-1,) must be 1 non-negative integers"),
    (lambda: HarmonicLabel((1, 2), (0, 1), ()), "ell () must be 1 non-negative integers"),
    (lambda: Chain((1, 2)), "chains need at least three variables"),
    (lambda: Chain((1, 2, 4)), "(1, 2, 4) is not a permutation of 1..3"),
    (lambda: Chain((2, 1, 3)), "canonical chains have their first pair sorted"),
    (lambda: RacahParameters(*(Fraction(i) for i in (1, 2, 3, 4, 0))),
     "tau = 0 is inconsistent; expected 14"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
