"""Result records for identity-verification sweeps.

Every verification suite produces a Report: a flat list of per-identity
check results, each an immutable CheckResult.  A result names the
relation, the index tuple it was instantiated with, the polynomial degree
of the test space, its status and the first witnessing discrepancy, as
text.  A check fails ("fail", else "ok") exactly when it has a witness:
Report.add takes only the witness, and the status follows.

Report.to_json_text writes the bytes of every ``verify`` report: the text
of ``json.dumps(report.to_json_obj(), indent=2, sort_keys=True)`` plus a
newline, built from one template per entry with its keys in sorted order
and its strings quoted by json's C routine, so the pure-Python encoder
that ``indent`` selects never runs.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .poly import Frozen, Record, _set


class CheckResult(Frozen):
    __slots__ = ("relation", "index_tuple", "degree", "status", "first_discrepancy")

    def __init__(self, relation: str, index_tuple: tuple, degree: int, status: str,
                 first_discrepancy: str | None = None) -> None:
        _set(self, "relation", relation)
        _set(self, "index_tuple", index_tuple)
        _set(self, "degree", degree)
        _set(self, "status", status)
        _set(self, "first_discrepancy", first_discrepancy)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json_obj(self) -> dict:
        obj = {
            "relation": self.relation,
            "index_tuple": list(self.index_tuple),
            "degree": self.degree,
            "status": self.status,
        }
        if self.first_discrepancy is not None:
            obj["first_discrepancy_polynomial"] = self.first_discrepancy
        return obj


class Report(Record):
    __slots__ = ("results",)

    def __init__(self, results: list[CheckResult] | None = None) -> None:
        self.results = [] if results is None else results

    def add(
        self, relation: str, index_tuple: tuple, degree: int, witness: str | None
    ) -> None:
        """Record one check: it fails exactly when witness is not None."""
        status = "ok" if witness is None else "fail"
        self.results.append(
            CheckResult(relation, tuple(index_tuple), degree, status, witness)
        )

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def to_json_obj(self) -> list[dict]:
        return [r.to_json_obj() for r in self.results]

    def to_json_text(self) -> str:
        """json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n", byte for byte.

        Each distinct index tuple is written once: a sweep records it once
        per degree.  Index tuples hold ints and tuples of them, so equal
        tuples have equal text.
        """
        if not self.results:
            return "[]\n"
        index_text: dict[tuple, str] = {}
        entries = []
        for r in self.results:
            index = index_text.get(r.index_tuple)
            if index is None:
                index = index_text[r.index_tuple] = _json_value(r.index_tuple, "    ")
            witness = (
                ""
                if r.first_discrepancy is None
                else f'\n    "first_discrepancy_polynomial": {_quote(r.first_discrepancy)},'
            )
            entries.append(
                f'  {{\n    "degree": {_json_value(r.degree, "")},{witness}'
                f'\n    "index_tuple": {index},'
                f'\n    "relation": {_quote(r.relation)},'
                f'\n    "status": {_quote(r.status)}\n  }}'
            )
        return "[\n" + ",\n".join(entries) + "\n]\n"


def _json_value(x, indent: str) -> str:
    """json's indent-2 text of x, a scalar or a nested list, at the given indent."""
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = indent + "  "
        items = (",\n" + inner).join(_json_value(y, inner) for y in x)
        return f"[\n{inner}{items}\n{indent}]"
    if type(x) is int:
        return repr(x)
    return json.dumps(x)
