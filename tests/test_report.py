"""Report records: a check fails exactly when it carries a witness."""

from fractions import Fraction

from racah_dunkl import Polynomial
from racah_dunkl.report import CheckResult, Report, first_witness


def test_status_follows_the_witness():
    report = Report()
    report.add("r", (1, 2), 3, None)
    report.add("r", [1], 0, "x1")
    ok, fail = report.results
    assert ok == CheckResult("r", (1, 2), 3, "ok", None)
    assert fail == CheckResult("r", (1,), 0, "fail", "x1")
    assert not report.ok and report.failures == [fail]
    assert all(r.ok == (r.first_discrepancy is None) for r in report)


def test_ok_entries_serialize_without_a_witness_key():
    report = Report()
    report.add("r", (1, 2), 3, None)
    report.add("s", (), 1, "2 != 3")
    assert report.to_json_obj() == [
        {"relation": "r", "index_tuple": [1, 2], "degree": 3, "status": "ok"},
        {
            "relation": "s",
            "index_tuple": [],
            "degree": 1,
            "status": "fail",
            "first_discrepancy_polynomial": "2 != 3",
        },
    ]


def test_first_witness_stops_at_the_first_nonzero_polynomial():
    def stream():
        yield Polynomial.zero(2)
        yield Polynomial.variable(2, 1).scale(Fraction(-3, 2))
        raise AssertionError("read past the first nonzero polynomial")

    assert first_witness(stream()) == "-3/2 * x1"
    assert first_witness([Polynomial.zero(2)]) is None
    assert first_witness([]) is None
