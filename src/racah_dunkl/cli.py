"""Batch command-line interface for the verification suites and exports.

Rationals cross this boundary as "p/q" strings; there is no floating
point anywhere.  Identical configurations produce byte-identical output
files.  ``verify`` writes its report through Report.to_json_text, the
indented, key-sorted JSON of the report; the other exports, ``connect``
included, encode their objects with ``json.dumps``.  Exit codes: 0 when
every verified identity holds; 1 when some identity fails (the report
names the first violated one and carries a polynomial witness), when a
suite checked nothing, or when the engine raises (stderr names the
exception class); 2 for configuration errors, which are all validated up
front and raised as ConfigError.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .connection import connection_matrix, parity_blocks, tridiagonal_check
from .graph import build_graph
from .harmonics import (
    basis_to_json_obj,
    build_basis_tower,
    casimir_eigenvalue,
    dimension_table,
    verify_closed_form,
    verify_extension_restrictions,
    verify_power_action_sweep,
    verify_spectral_action,
    verify_tower,
)
from .operators import DunklOperators, casimir
from .poly import ParameterSet
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

VERIFY_SUITES = (
    "su11",
    "racah",
    "lemma1",
    "lemma2",
    "drinfeld-kohno",
    "embedding",
    "ck",
    "lemma3",
    "eigen",
)


class ConfigError(ValueError):
    pass


def _parameters(args) -> ParameterSet:
    try:
        if not args.mu:
            return ParameterSet.default(args.n)
        return ParameterSet(args.n, tuple(Fraction(m) for m in args.mu.split(",")))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc)) from exc


def _bound(args, default: int) -> int:
    if args.kmax is None:
        return default
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


def _parse_blocks(text: str, n: int) -> tuple[tuple[int, ...], ...]:
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


def cmd_verify(args) -> int:
    suite = args.suite
    if args.order is not None and suite != "eigen":
        raise ConfigError(f"--order is read by the eigen suite only, not by {suite}")
    if args.blocks is not None and suite != "embedding":
        raise ConfigError(f"--blocks is read by the embedding suite only, not by {suite}")
    params = _parameters(args)
    n = params.n
    if suite == "su11":
        report = verify_su11(params, _bound(args, 6))
    elif suite == "racah":
        if n < 3:
            raise ConfigError("the relation suite needs n >= 3")
        report = verify_racah_relations(params, _bound(args, default_degree_bound(n)))
    elif suite == "lemma1":
        report = verify_casimir_laplacian_commute(params, _bound(args, 4))
    elif suite == "lemma2":
        if n < 2:
            raise ConfigError("the nested/disjoint suite needs n >= 2")
        report = verify_nested_disjoint_commute(params, _bound(args, 4))
    elif suite == "drinfeld-kohno":
        if n < 3:
            raise ConfigError("the commutativity suite needs n >= 3")
        report = verify_drinfeld_kohno(params, _bound(args, 4))
    elif suite == "embedding":
        if args.blocks:
            blocks = _parse_blocks(args.blocks, n)
        elif n >= 4:
            blocks = ((1, 2), (3,), (4,))
        elif n == 3:
            blocks = ((1,), (2,), (3,))
        else:
            raise ConfigError("the embedding suite needs n >= 3")
        report = verify_embedding(params, *blocks, _bound(args, 3))
    elif suite == "ck":
        if n < 2:
            raise ConfigError("the extension suite needs n >= 2")
        report = Report()
        report.extend(verify_tower(params, _bound(args, 4)))
        report.extend(verify_extension_restrictions(params, _bound(args, 4)))
        report.extend(verify_closed_form(params, _bound(args, 4)))
    elif suite == "lemma3":
        report = verify_power_action_sweep(params, 2, _bound(args, 3))
    elif suite == "eigen":
        if n < 2:
            raise ConfigError("the spectral suite needs n >= 2")
        order = _parse_order(args.order, n) if args.order else None
        report = verify_spectral_action(params, _bound(args, 4), order)
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown suite {suite!r}")
    _emit_text(report.to_json_text(), args)
    if len(report) == 0:
        print(f"no identity checked: the {suite} suite is empty", file=sys.stderr)
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
    if from_order is None or to_order is None:
        raise ConfigError("--from and --to variable orders are required")
    source = build_basis_tower(params, args.k, from_order)
    target = build_basis_tower(params, args.k, to_order)
    w = connection_matrix(params, source, target)
    if args.format == "csv":
        text = "".join(",".join(str(x) for x in row) + "\n" for row in w.entries)
        _emit_text(text, args)
        return 0
    payload = {"connection": w.to_json_obj()}
    report = Report()
    if n == 3:
        pair = tuple(sorted(to_order[:2]))
        shared = set(from_order[:2]) & set(pair)
        if pair != tuple(sorted(from_order[:2])) and len(shared) == 1 and source:
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
            data = tridiagonal_check(params, invariant, source, expected)
            report.extend(data.report)
            payload["tridiagonal"] = report.to_json_obj()
    _emit_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", args)
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
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
