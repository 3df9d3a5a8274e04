"""Every function of src/racah_dunkl that reads mu, each with its reason.

A function reads mu when its body, nested functions and lambdas
included, reads an attribute named ``mu`` or ``mu_of``.  Reading mu back
from what a sweep proved (ROADMAP item 12) needs one list of the places
that read it, so a new reader fails this test until it is added here on
purpose.  The Dunkl data are read from DunklOperators, so the tower's
lift and the pairing are not readers.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "racah_dunkl"

READERS = {
    "poly.ParameterSet.mu_of": "the accessor of mu_i",
    "operators.dunkl": "T_i's coefficient, e + 2 mu_i at odd e",
    "operators._full_laplacian": "the closed form of T_i^2, kept apart from T_i so that "
    "ck's harmonicity records see a T_i defect",
    "operators.gamma": "gamma_A = |A|/2 + the sum of mu_i over A",
    "relations.RelationWorkspace.c1": "the one-variable invariant (mu^2 - mu r - 3/4)/4",
    "relations.RelationWorkspace.refl": "the diagonal 1 + 2 mu_i r_i",
    "relations.RelationWorkspace.square": "the diagonal (mu_i r_i + mu_j r_j)^2",
    "harmonics._closed_forms": "the hypergeometric base mu_v + 1/2 + eps, a route to the "
    "tower that shares nothing with the lift",
    "racah.spectral_data": "the central eigenvalues of a rank-one module",
    "racah.racah_parameters": "the recurrence parameters of a rank-one module",
    "cli._parameters": "the raw --mu string, parsed into a ParameterSet",
    "cli.cmd_connect": "the mu of the three-variable frame of the expected tridiagonal data",
}


def _reads_mu(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Attribute) and sub.attr in ("mu", "mu_of") for sub in ast.walk(node)
    )


def mu_readers() -> set[str]:
    """module.function or module.Class.method of each reader; a read outside them names its scope."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        scopes = [(path.stem, ast.parse(path.read_text(encoding="utf-8")).body)]
        while scopes:
            scope, body = scopes.pop()
            for node in body:
                if isinstance(node, ast.ClassDef):
                    scopes.append((f"{scope}.{node.name}", node.body))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if _reads_mu(node):
                        found.add(f"{scope}.{node.name}")
                elif _reads_mu(node):
                    found.add(scope)
    return found


def test_every_reader_of_mu_is_listed_with_its_reason():
    found = mu_readers()
    assert not found - set(READERS), f"unlisted readers of mu: {sorted(found - set(READERS))}"
    assert not set(READERS) - found, f"listed but not reading mu: {sorted(set(READERS) - found)}"
    assert all(READERS.values())
