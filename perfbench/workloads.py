"""The three benchmark workloads, their seeded inputs and their correctness gate.

A workload is a fixed piece of verification work; only the deformation
parameters mu come from the seed.  ``run`` returns an ``Outcome`` holding
everything the gate needs: CLI exit codes, the parsed reports, the
canonical JSON of the output and, for the connection workload, whether the
composed per-edge product equals the direct matrix.  ``problems`` turns an
outcome into the list of reasons the run failed; an empty list is a pass.

The package modules are looked up at call time (``cli.main``,
``graph.connection_pipeline`` ...), so wrappers installed by ``spans``
after import see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

DEFAULT_SEED = 0
MU_COUNT = 5  # the largest n any workload uses; smaller n take a prefix
MU_RANGE = (1, 9)  # numerators and denominators are drawn from this range


@dataclass
class Outcome:
    exit_codes: list[int] = field(default_factory=list)
    reports: list[list[dict]] = field(default_factory=list)
    checks: list[int] = field(default_factory=list)
    product_equals_direct: bool | None = None
    canonical: str = ""
    output_bytes: int = 0

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.canonical.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    run: Callable[[list[Fraction]], Outcome]
    # exact check count per step: report entries for CLI suites, compared
    # matrix entries for the connection pipeline
    expected_checks: tuple[int, ...]
    # sha256 of the canonical output at DEFAULT_SEED
    expected_sha256: str
    # the verify reports name no mu, so their digest holds at every seed
    digest_every_seed: bool


def draw_mu(seed: int) -> list[Fraction]:
    """MU_COUNT distinct positive rationals drawn from the seed."""
    rng = random.Random(seed)
    lo, hi = MU_RANGE
    mu: list[Fraction] = []
    while len(mu) < MU_COUNT:
        value = Fraction(rng.randint(lo, hi), rng.randint(lo, hi))
        if value not in mu:
            mu.append(value)
    return mu


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _run_cli_suites(mu: list[Fraction], suites) -> Outcome:
    from racah_dunkl import cli

    out = Outcome()
    canonical = []
    for suite, n, kmax in suites:
        argv = ["verify", suite, "--n", str(n), "--kmax", str(kmax),
                "--mu", ",".join(str(m) for m in mu[:n])]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        text = buf.getvalue()
        report = json.loads(text) if text else []
        out.exit_codes.append(code)
        out.reports.append(report)
        out.checks.append(len(report))
        out.output_bytes += len(text.encode())
        canonical.append({"suite": suite, "n": n, "kmax": kmax, "report": report})
    out.canonical = _canonical(canonical)
    return out


RACAH_SUITES = (("racah", 4, 4), ("racah", 5, 2))
MONOMIAL_SUITES = (("lemma1", 5, 4), ("su11", 4, 4))
PIPELINE_N, PIPELINE_K = 4, 6
PIPELINE_START, PIPELINE_GOAL = (1, 2, 3, 4), (3, 4, 2, 1)  # (C12,C123) -> (C34,C234)


def run_racah_sweep(mu: list[Fraction]) -> Outcome:
    return _run_cli_suites(mu, RACAH_SUITES)


def run_monomial_sweeps(mu: list[Fraction]) -> Outcome:
    return _run_cli_suites(mu, MONOMIAL_SUITES)


def run_connection_pipeline(mu: list[Fraction]) -> Outcome:
    from racah_dunkl import connection, graph, harmonics, poly

    params = poly.ParameterSet(PIPELINE_N, tuple(mu[:PIPELINE_N]))
    start = graph.Chain.from_order(PIPELINE_START)
    goal = graph.Chain.from_order(PIPELINE_GOAL)
    edges = graph.connection_pipeline(params, PIPELINE_K, start, goal)
    product = edges[0]
    for w in edges[1:]:
        product = product.compose(w)
    direct = connection.connection_matrix(
        params,
        harmonics.build_basis_tower(params, PIPELINE_K, start.order),
        harmonics.build_basis_tower(params, PIPELINE_K, goal.order),
    )
    out = Outcome()
    out.product_equals_direct = product.entries == direct.entries
    out.checks.append(sum(len(row) for row in direct.entries))
    out.canonical = _canonical({
        "path": [str(c) for c in [start] + graph.path(start, goal)],
        "edges": [w.to_json_obj() for w in edges],
        "direct": direct.to_json_obj(),
    })
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "racah-sweep",
            run_racah_sweep,
            (630, 1668),
            "497b03487eddeee9814841ca983a2b9a6f1d89452e7a339862f2d702907cec7f",
            True,
        ),
        Workload(
            "connection-pipeline",
            run_connection_pipeline,
            (49 * 49,),
            "b8bd55e4f831231ec3dcd515931b40788578339c854a983ebf966cc7ef83b077",
            False,
        ),
        Workload(
            "monomial-sweeps",
            run_monomial_sweeps,
            (155, 225),
            "949e36b526720f6a7be6aef1a4292e0b21040135892a6cd411b77a1907165cd9",
            True,
        ),
    )
}


def problems(workload: Workload, seed: int, outcome: Outcome) -> list[str]:
    """Every reason the outcome fails the gate; empty when the run passed."""
    found = []
    if not outcome.checks or sum(outcome.checks) == 0:
        found.append("checked nothing")
    for code in outcome.exit_codes:
        if code != 0:
            found.append(f"exit code {code}")
    bad = sum(1 for report in outcome.reports for e in report if e.get("status") != "ok")
    if bad:
        found.append(f"{bad} report entries are not ok")
    if tuple(outcome.checks) != workload.expected_checks:
        found.append(f"check counts {outcome.checks} != {list(workload.expected_checks)}")
    if outcome.product_equals_direct is False:
        found.append("composed product differs from the direct connection matrix")
    if workload.digest_every_seed or seed == DEFAULT_SEED:
        if outcome.digest != workload.expected_sha256:
            found.append(f"output sha256 {outcome.digest} != recorded {workload.expected_sha256}")
    return found
