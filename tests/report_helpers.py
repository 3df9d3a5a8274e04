"""Helpers the tests share for reading verification reports."""

from racah_dunkl.report import CheckResult, Report


def failures(report: Report) -> list[CheckResult]:
    """The failed checks of a report, in report order."""
    return [r for r in report if not r.ok]


def select(report: Report, *relations: str) -> Report:
    """The records of a report whose relation is one of relations, in report order."""
    return Report([r for r in report if r.relation in relations])
