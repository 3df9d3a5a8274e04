"""Result records for identity-verification sweeps.

Every verification suite produces a Report: a flat list of per-identity
check results.  A result names the relation, the index tuple it was
instantiated with, the polynomial degree of the test space, and the first
witnessing discrepancy, serialized as text.  A check fails exactly when it
has a witness: Report.add takes only the witness, and the status follows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .poly import Polynomial


def first_witness(discrepancies: Iterable[Polynomial]) -> str | None:
    """Text of the first nonzero polynomial of a lazy stream, else None.

    The stream is consumed only up to its first nonzero member.
    """
    return next((d.to_text() for d in discrepancies if not d.is_zero), None)


@dataclass(frozen=True)
class CheckResult:
    relation: str
    index_tuple: tuple
    degree: int
    status: str  # "ok" or "fail"
    first_discrepancy: str | None = None

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


@dataclass
class Report:
    results: list[CheckResult] = field(default_factory=list)

    def add(
        self, relation: str, index_tuple: tuple, degree: int, witness: str | None
    ) -> None:
        """Record one check: it fails exactly when witness is not None."""
        status = "ok" if witness is None else "fail"
        self.results.append(
            CheckResult(relation, tuple(index_tuple), degree, status, witness)
        )

    def extend(self, other: "Report") -> None:
        self.results.extend(other.results)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.ok]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def to_json_obj(self) -> list[dict]:
        return [r.to_json_obj() for r in self.results]
