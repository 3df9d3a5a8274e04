"""Batch command-line interface for the verification suites and exports.

COMMANDS is the one table of the command line: per command, its runner,
its help line, its positional (verify's suite) and its options, each with
its dest, type, default, required flag, choices and help.  parse_args reads
an argv against it and renders the usage and the -h/--help text from it.
Options and the positional come in any order, as ``--name value`` or
``--name=value``; option names are matched exactly.

Rationals cross this boundary as "p/q" strings (a --mu entry that is not
one is named in the error); there is no floating point anywhere.
Identical configurations produce byte-identical output files.  ``verify``
writes its report through Report.to_json_text, the indented, key-sorted
JSON of the report; the other exports, ``connect`` included, encode their
objects with ``json.dumps``.

``verify`` reads a suite's noun, runner, smallest n, default --kmax and
the one option it reads from SUITES, the one table of the suites.

Exit codes: 0 when every verified identity holds; 1 when some identity
fails (the report names the first violated one and carries a polynomial
witness), when a suite checked nothing, or when the engine raises, a
write that fails after the run (a full disk) included (stderr names the
exception class); 2 for configuration errors, all checked before any
computation and raised as ConfigError, such as an --out that names a
directory or sits in a missing one, and for parse errors (an unknown
command, suite or option, a missing or non-integer value, a missing
required option, a --format not among its choices), which print the
usage and the error to stderr and raise SystemExit(2).
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

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
        if args.mu is None:
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
        if pair != tuple(sorted(from_order[:2])):
            # two pairs of three variables share one: the frame is the source
            # pair's other variable, the shared one, then the target pair's other
            frame = (to_order[2], *(set(from_order[:2]) & set(pair)), from_order[2])
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
    if args.n < 2:
        raise ConfigError("the spectrum needs n >= 2")
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


class Option(Frozen):
    """One argument of a command: the attribute it sets, how its value is read and its help.

    type converts the value (int or str); default is the attribute's value
    when the argument is absent; choices, when given, are the values allowed.
    """

    __slots__ = ("dest", "type", "default", "required", "choices", "help")


class Command(Frozen):
    """A command: its runner, help line, positional (an Option or None) and options by name."""

    __slots__ = ("fn", "help", "positional", "options")


_N = Option("n", int, 3, False, None, "ambient dimension")
_MU = Option("mu", str, None, False, None, "comma-separated positive rationals, e.g. 1/2,1/3,1/4")
_K = Option("k", int, None, True, None, "homogeneous degree")
_OUT = Option("out", str, None, False, None, "output path (default: stdout)")
_ORDER = Option("order", str, None, False, None, "variable order, e.g. 1,2,3")
_CSV = Option("format", str, "json", False, ("json", "csv"), "output format")


COMMANDS = {
    "verify": Command(
        cmd_verify,
        "run an identity-verification suite",
        Option("suite", str, None, True, VERIFY_SUITES, "one of " + ", ".join(VERIFY_SUITES)),
        {
            "--n": _N,
            "--mu": _MU,
            "--kmax": Option("kmax", int, None, False, None, "degree bound"),
            "--out": _OUT,
            "--order": Option("order", str, None, False, None, "variable order of the eigen suite"),
            "--blocks": Option("blocks", str, None, False, None, "embedding blocks, e.g. 1,2;3;4"),
        },
    ),
    "basis": Command(
        cmd_basis,
        "export a harmonic basis (json) or dimension table (csv)",
        None,
        {"--n": _N, "--mu": _MU, "--k": _K, "--out": _OUT, "--format": _CSV, "--order": _ORDER},
    ),
    "connect": Command(
        cmd_connect,
        "connection matrix between two chain bases",
        None,
        {
            "--n": _N,
            "--mu": _MU,
            "--k": _K,
            "--out": _OUT,
            "--format": _CSV,
            "--from": Option("from_order", str, None, True, None, "source variable order"),
            "--to": Option("to_order", str, None, True, None, "target variable order"),
        },
    ),
    "graph": Command(
        cmd_graph,
        "export the recoupling graph",
        None,
        {
            "--n": _N,
            "--out": _OUT,
            "--format": Option("format", str, "json", False, ("json", "dot"), "output format"),
        },
    ),
    "racah": Command(
        cmd_racah,
        "export recurrence data of a fixed-parity module",
        None,
        {
            "--n": _N,
            "--mu": _MU,
            "--out": _OUT,
            "--epsilon": Option("epsilon", str, None, True, None, "three parity bits, e.g. 0,0,0"),
            "--degree": Option("degree", int, None, True, None, "total degree of the module"),
        },
    ),
    "spectrum": Command(
        cmd_spectrum,
        "eigenvalue table of the chain invariants",
        None,
        {"--n": _N, "--mu": _MU, "--k": _K, "--out": _OUT, "--order": _ORDER},
    ),
}
PROG = "racah-dunkl"
HELP = ("-h", "--help")


def _arguments(command: Command) -> list[tuple[str, Option]]:
    """(name, option) for each option of a command, then its positional under its dest."""
    arguments = list(command.options.items())
    if command.positional:
        arguments.append((command.positional.dest, command.positional))
    return arguments


def _metavar(name: str, option: Option) -> str:
    if not name.startswith("-"):
        return option.dest.upper()
    value = "{" + ",".join(option.choices) + "}" if option.choices else option.dest.upper()
    return f"{name} {value}"


def _wrap(head: str, parts: list[str], width: int = 79) -> str:
    """head and the parts joined by spaces; a part past width starts a line indented to head."""
    line, lines = head, []
    for part in parts:
        if len(line) > len(head) and len(line) + len(part) > width:
            lines.append(line.rstrip())
            line = " " * len(head)
        line += part + " "
    return "\n".join(lines + [line.rstrip()]) + "\n"


def _usage(name: str | None, head: str = "usage: ") -> str:
    if name is None:
        return f"{head}{PROG} [-h] {{{','.join(COMMANDS)}}} ...\n"
    parts = ["[-h]"]
    for arg, option in _arguments(COMMANDS[name]):
        metavar = _metavar(arg, option)
        parts.append(metavar if option.required else f"[{metavar}]")
    return _wrap(f"{head}{PROG} {name} ", parts)


def _rows(heading: str, rows: list[tuple[str, str]]) -> str:
    width = max(len(left) for left, _ in rows) + 4
    return f"\n{heading}:\n" + "".join(
        _wrap(f"  {left}".ljust(width), text.split()) for left, text in rows
    )


def _help(name: str | None) -> str:
    """The -h text of the program (name None) or of one command."""
    if name is None:
        return (
            _usage(None)
            + "\nexact verification and export tool for the deformed-Laplacian symmetry algebra\n"
            + _rows("commands", [(c, command.help) for c, command in COMMANDS.items()])
            + _rows("options", [(", ".join(HELP), "show this help message and exit")])
            + f"\ncommand lines ({PROG} COMMAND -h for one of them):\n"
            + "".join(_usage(c, "  ") for c in COMMANDS)
        )
    command = COMMANDS[name]
    rows = [(", ".join(HELP), "show this help message and exit")]
    for arg, option in _arguments(command):
        default = "" if option.default is None else f" (default: {option.default})"
        rows.append((_metavar(arg, option), option.help + default))
    return _usage(name) + f"\n{command.help}\n" + _rows("arguments", rows)


def _fail(name: str | None, message: str):
    """Print the usage and the error to stderr and exit 2, as a parse error."""
    prog = PROG if name is None else f"{PROG} {name}"
    sys.stderr.write(f"{_usage(name)}{prog}: error: {message}\n")
    raise SystemExit(2)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The namespace of an argv: command, fn and every dest of the command, absent ones at
    their defaults.

    Options and the positional come in any order, as --name value or
    --name=value; the token after --name is its value verbatim, and a
    repeated option keeps its last value.  Option names are matched
    exactly.  -h or --help prints the help to stdout and exits 0; a parse
    error prints the usage and the error to stderr and exits 2.
    """
    if not argv:
        _fail(None, "the following arguments are required: command")
    name, tokens = argv[0], iter(argv[1:])
    if name in HELP:
        sys.stdout.write(_help(None))
        raise SystemExit(0)
    command = COMMANDS.get(name)
    if command is None:
        _fail(None, f"invalid command {name!r} (choose from {', '.join(COMMANDS)})")
    values = {}
    for token in tokens:
        if token in HELP:
            sys.stdout.write(_help(name))
            raise SystemExit(0)
        if token.startswith("-"):
            arg, eq, value = token.partition("=")
            option = command.options.get(arg)
            if option is None:
                _fail(name, f"unrecognized argument {token!r}")
            if not eq:
                value = next(tokens, None)
                if value is None:
                    _fail(name, f"argument {arg}: expected one argument")
        else:
            option, value = command.positional, token
            if option is None or option.dest in values:
                _fail(name, f"unrecognized argument {token!r}")
            arg = option.dest
        try:
            value = option.type(value)
        except ValueError:
            _fail(name, f"argument {arg}: invalid {option.type.__name__} value: {value!r}")
        if option.choices and value not in option.choices:
            _fail(name, f"argument {arg}: invalid choice: {value!r} "
                  f"(choose from {', '.join(option.choices)})")
        values[option.dest] = value
    arguments = _arguments(command)
    missing = [arg for arg, option in arguments if option.required and option.dest not in values]
    if missing:
        _fail(name, f"the following arguments are required: {', '.join(missing)}")
    args = SimpleNamespace(command=name, fn=command.fn)
    for _, option in arguments:
        setattr(args, option.dest, values.get(option.dest, option.default))
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
