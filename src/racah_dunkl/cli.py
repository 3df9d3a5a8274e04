"""Batch command-line interface for the verification suites and exports.

Rationals cross this boundary as "p/q" strings (a --mu entry that is not
one is named in the error); there is no floating point anywhere.
Identical configurations produce byte-identical output files.  ``verify``
writes its report through Report.to_json_text, the indented, key-sorted
JSON of the report; the other exports, ``connect`` included, encode their
objects with ``json.dumps``.

``verify`` reads a suite's noun, runner and these columns from SUITES:

    suite           smallest n  default --kmax  option
    su11            1           6
    racah           3           6, 4, 5, 4, 3 at n = 3..7, else 2
    lemma1          1           4
    lemma2          2           4
    drinfeld-kohno  3           4
    embedding       3           3               --blocks
    ck              2           4
    lemma3          1           3
    eigen           2           4               --order

Exit codes: 0 when every verified identity holds; 1 when some identity
fails (the report names the first violated one and carries a polynomial
witness), when a suite checked nothing, or when the engine raises, a
write that fails after the run (a full disk) included (stderr names the
exception class); 2 for configuration errors, all checked before any
computation and raised as ConfigError, such as an --out that names a
directory or sits in a missing one.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .connection import connection_matrix, parity_blocks, tridiagonal_check
from .graph import build_graph
from .harmonics import (
    basis_to_json_obj,
    build_basis_tower,
    casimir_eigenvalue,
    dimension_table,
    verify_ck,
    verify_power_action_sweep,
    verify_spectral_action,
)
from .operators import DunklOperators, casimir
from .poly import Frozen, ParameterSet
from .racah import module_dimension, module_tridiagonal_data, recurrence_table_json
from .relations import (
    default_degree_bound,
    verify_casimir_laplacian_commute,
    verify_drinfeld_kohno,
    verify_embedding,
    verify_nested_disjoint_commute,
    verify_racah_relations,
    verify_su11,
)
from .report import Report


class ConfigError(ValueError):
    pass


def _parameters(args) -> ParameterSet:
    try:
        if not args.mu:
            return ParameterSet.default(args.n)
        return ParameterSet(args.n, args.mu.split(","))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _bound(args, default) -> int:
    """--kmax, else the suite's default: an int, or a function of n."""
    if args.kmax is None:
        return default(args.n) if callable(default) else default
    if args.kmax < 0:
        raise ConfigError(f"degree bound --kmax {args.kmax} is negative")
    return args.kmax


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_order(text: str | None, n: int) -> tuple[int, ...] | None:
    if text is None:
        return None
    order = _parse_ints(text)
    if sorted(order) != list(range(1, n + 1)):
        raise ConfigError(f"order {order} is not a permutation of 1..{n}")
    return order


def _parse_blocks(text: str | None, n: int) -> tuple[tuple[int, ...], ...]:
    if text is None:
        return ((1, 2), (3,), (4,)) if n >= 4 else ((1,), (2,), (3,))
    blocks = tuple(_parse_ints(part) for part in text.split(";"))
    if len(blocks) != 3:
        raise ConfigError("blocks must be three ';'-separated index lists")
    seen: set[int] = set()
    for block in blocks:
        for i in block:
            if not 1 <= i <= n:
                raise ConfigError(f"block index {i} out of range 1..{n}")
            if i in seen:
                raise ConfigError(f"block index {i} repeated")
            seen.add(i)
    return blocks


def _emit_text(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# run(params, kmax, args) -> Report looks the suite's engine up when called
class Suite(Frozen):
    __slots__ = ("noun", "min_n", "kmax", "option", "run")


SUITES = {
    "su11": Suite("su11", 1, 6, None, lambda p, k, a: verify_su11(p, k)),
    "racah": Suite(
        "relation", 3, default_degree_bound, None, lambda p, k, a: verify_racah_relations(p, k)
    ),
    "lemma1": Suite("lemma1", 1, 4, None, lambda p, k, a: verify_casimir_laplacian_commute(p, k)),
    "lemma2": Suite(
        "nested/disjoint", 2, 4, None, lambda p, k, a: verify_nested_disjoint_commute(p, k)
    ),
    "drinfeld-kohno": Suite(
        "commutativity", 3, 4, None, lambda p, k, a: verify_drinfeld_kohno(p, k)
    ),
    "embedding": Suite(
        "embedding", 3, 3, "--blocks",
        lambda p, k, a: verify_embedding(p, *_parse_blocks(a.blocks, p.n), k),
    ),
    "ck": Suite("extension", 2, 4, None, lambda p, k, a: verify_ck(p, k)),
    "lemma3": Suite("lemma3", 1, 3, None, lambda p, k, a: verify_power_action_sweep(p, 2, k)),
    "eigen": Suite(
        "spectral", 2, 4, "--order",
        lambda p, k, a: verify_spectral_action(p, k, _parse_order(a.order, p.n)),
    ),
}
VERIFY_SUITES = tuple(SUITES)


def cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    for owner, other in SUITES.items():
        option = other.option
        if option and option != suite.option and getattr(args, option[2:]) is not None:
            raise ConfigError(f"{option} is read by the {owner} suite only, not by {args.suite}")
    params = _parameters(args)
    if params.n < suite.min_n:
        raise ConfigError(f"the {suite.noun} suite needs n >= {suite.min_n}")
    report = suite.run(params, _bound(args, suite.kmax), args)
    _emit_text(report.to_json_text(), args)
    if len(report) == 0:
        print(f"no identity checked: the {args.suite} suite is empty", file=sys.stderr)
        return 1
    return 0 if report.ok else 1


def cmd_basis(args) -> int:
    params = _parameters(args)
    order = _parse_order(args.order, params.n)
    if args.format == "csv":
        rows = dimension_table(params.n, args.k)
        text = "n,k,dim\n" + "".join(f"{a},{b},{c}\n" for a, b, c in rows)
        _emit_text(text, args)
        return 0
    elements = build_basis_tower(params, args.k, order)
    _emit_text(json.dumps(basis_to_json_obj(elements), indent=2, sort_keys=True) + "\n", args)
    return 0


def cmd_connect(args) -> int:
    params = _parameters(args)
    n = params.n
    from_order = _parse_order(args.from_order, n)
    to_order = _parse_order(args.to_order, n)
    source = build_basis_tower(params, args.k, from_order)
    target = build_basis_tower(params, args.k, to_order)
    w = connection_matrix(params, source, target)
    report = Report()
    if n == 3:
        pair = tuple(sorted(to_order[:2]))
        shared = set(from_order[:2]) & set(pair)
        if pair != tuple(sorted(from_order[:2])) and len(shared) == 1:
            frame = (
                next(i for i in from_order[:2] if i not in pair),
                next(iter(shared)),
                next(i for i in pair if i not in from_order[:2]),
            )
            eff_params = ParameterSet(3, tuple(params.mu_of(o) for o in frame))
            expected = {}
            for parities in parity_blocks(source):
                eff_eps = [parities[o - 1] for o in frame]
                expected[parities] = module_tridiagonal_data(eff_params, eff_eps, args.k)
            invariant = casimir(DunklOperators(params), pair)
            report = tridiagonal_check(params, invariant, source, expected).report
    if args.format == "csv":
        text = "".join(",".join(str(x) for x in row) + "\n" for row in w.entries)
    else:
        payload = {"connection": w.to_json_obj()}
        if len(report):
            payload["tridiagonal"] = report.to_json_obj()
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _emit_text(text, args)
    return 0 if report.ok else 1


def cmd_graph(args) -> int:
    if args.n < 3:
        raise ConfigError("the recoupling graph needs n >= 3")
    graph = build_graph(args.n)
    if args.format == "dot":
        _emit_text(graph.to_dot(), args)
    else:
        _emit_text(json.dumps(graph.to_json_obj(), indent=2, sort_keys=True) + "\n", args)
    return 0


def cmd_racah(args) -> int:
    params = _parameters(args)
    if params.n != 3:
        raise ConfigError("recurrence tables are three-variable objects")
    epsilon = _parse_ints(args.epsilon)
    if len(epsilon) != 3 or any(e not in (0, 1) for e in epsilon):
        raise ConfigError(f"epsilon {epsilon} must be three parity bits")
    if module_dimension(epsilon, args.degree) == 0:
        raise ConfigError(
            f"no module with parities {epsilon} at total degree {args.degree}"
        )
    table = recurrence_table_json(params, epsilon, args.degree)
    _emit_text(json.dumps(table, indent=2, sort_keys=True) + "\n", args)
    return 0


def cmd_spectrum(args) -> int:
    params = _parameters(args)
    order = _parse_order(args.order, params.n) or tuple(range(1, params.n + 1))
    rows = []
    for el in build_basis_tower(params, args.k, order):
        values = {}
        for m in range(2, params.n + 1):
            name = "C" + "".join(str(i) for i in sorted(order[:m]))
            values[name] = str(casimir_eigenvalue(params, el.label, m))
        rows.append(
            {"label": el.label.to_json_obj(), "degree": args.k, "eigenvalues": values}
        )
    _emit_text(json.dumps(rows, indent=2, sort_keys=True) + "\n", args)
    return 0


_OPTIONS = {
    "n": dict(type=int, default=3, help="ambient dimension"),
    "mu": dict(help="comma-separated positive rationals, e.g. 1/2,1/3,1/4"),
    "kmax": dict(type=int, default=None, help="degree bound"),
    "k": dict(type=int, required=True, help="homogeneous degree"),
    "out": dict(help="output path (default: stdout)"),
}


def _add_options(
    parser: argparse.ArgumentParser, names: tuple[str, ...], formats: tuple[str, ...] = ()
) -> None:
    """Declare the named shared options, and --format when formats are given."""
    for name in names:
        parser.add_argument("--" + name, **_OPTIONS[name])
    if formats:
        parser.add_argument("--format", default=formats[0], choices=formats)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every main call.

    parse_args keeps no state between calls: each returns a fresh
    namespace, and no option has a mutable default.
    """
    parser = argparse.ArgumentParser(
        prog="racah-dunkl",
        description="exact verification and export tool for the deformed-Laplacian "
        "symmetry algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run an identity-verification suite")
    p.add_argument("suite", choices=VERIFY_SUITES)
    _add_options(p, ("n", "mu", "kmax", "out"))
    p.add_argument("--order", help="variable order for the eigen suite")
    p.add_argument("--blocks", help="embedding blocks, e.g. 1,2;3;4")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("basis", help="export a harmonic basis (json) or dimension table (csv)")
    _add_options(p, ("n", "mu", "k", "out"), ("json", "csv"))
    p.add_argument("--order", help="variable order, e.g. 1,2,3")
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("connect", help="connection matrix between two chain bases")
    _add_options(p, ("n", "mu", "k", "out"), ("json", "csv"))
    p.add_argument("--from", dest="from_order", required=True, help="source variable order")
    p.add_argument("--to", dest="to_order", required=True, help="target variable order")
    p.set_defaults(fn=cmd_connect)

    p = sub.add_parser("graph", help="export the recoupling graph")
    _add_options(p, ("n", "out"), ("json", "dot"))
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("racah", help="export recurrence data of a fixed-parity module")
    _add_options(p, ("n", "mu", "out"))
    p.add_argument("--epsilon", required=True, help="three parity bits, e.g. 0,0,0")
    p.add_argument("--degree", type=int, required=True, help="total degree of the module")
    p.set_defaults(fn=cmd_racah)

    p = sub.add_parser("spectrum", help="eigenvalue table of the chain invariants")
    _add_options(p, ("n", "mu", "k", "out"))
    p.add_argument("--order", help="variable order, e.g. 1,2,3")
    p.set_defaults(fn=cmd_spectrum)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "k", 0) < 0:
            raise ConfigError(f"degree --k {args.k} is negative")
        if args.out and os.path.isdir(args.out):
            raise ConfigError(f"--out {args.out} is a directory")
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ConfigError(f"--out {args.out} is not in an existing directory")
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
