"""Report records: a check fails exactly when it carries a witness."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from racah_dunkl.report import CheckResult, Report

from report_helpers import failures


def test_status_follows_the_witness():
    report = Report()
    report.add("r", (1, 2), 3, None)
    report.add("r", [1], 0, "x1")
    ok, fail = report.results
    assert ok == CheckResult("r", (1, 2), 3, "ok", None)
    assert fail == CheckResult("r", (1,), 0, "fail", "x1")
    assert not report.ok and failures(report) == [fail]
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


def oracle_text(report: Report) -> str:
    """The bytes the verify command wrote before Report.to_json_text."""
    return json.dumps(report.to_json_obj(), indent=2, sort_keys=True) + "\n"


# quotes, backslashes, control characters, non-ASCII and lone surrogates
texts = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "é", "☃", "\U0001f600"]),
    st.characters(exclude_categories=()),
))
index_items = st.recursive(
    st.integers(), lambda items: st.lists(items, max_size=3).map(tuple), max_leaves=8
)
checks = st.tuples(
    texts,
    st.lists(index_items, max_size=4).map(tuple),
    st.one_of(st.integers(-3, 12), st.integers(-10**40, 10**40)),
    st.none() | texts,
)


@settings(max_examples=150, deadline=None)
@given(st.lists(checks, max_size=6))
def test_report_text_is_the_indented_sorted_json(drawn):
    report = Report()
    for relation, index_tuple, degree, witness in drawn:
        report.add(relation, index_tuple, degree, witness)
    assert report.to_json_text() == oracle_text(report)


def test_report_text_of_the_sweep_shapes():
    # flat, nested (lemma2) and three-block (embedding) index tuples, an
    # empty one, a witness, and the empty report
    report = Report()
    assert report.to_json_text() == oracle_text(report) == "[]\n"
    report.add("triple-relation", (1, 2, 3), 2, "539/1152 * x1 x2")
    report.add("nested-invariants-commute", ((2,), (1, 2)), 0, None)
    report.add("embedding-additivity", ((1, 2), (3,), (4,)), 1, None)
    report.add("tower-count", (), 3, "2 != 3")
    assert report.to_json_text() == oracle_text(report)
