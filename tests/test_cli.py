"""Command-line interface: exit codes, outputs, determinism."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
import reference

from racah_dunkl import cli
from racah_dunkl.cli import main


def run(args):
    return main(args)


def test_verify_su11_exit_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run([
        "verify", "su11", "--n", "3", "--mu", "1/2,1/3,1/4",
        "--kmax", "2", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert all(row["status"] == "ok" for row in report)


def test_verify_rejects_negative_mu(capsys):
    code = run(["verify", "racah", "--mu", "1/2,-1/3,1/4"])
    assert code == 2
    assert "mu_2" in capsys.readouterr().err


def test_verify_rejects_wrong_mu_count(capsys):
    code = run(["verify", "su11", "--n", "3", "--mu", "1/2,1/3"])
    assert code == 2


@pytest.mark.parametrize("mu, entry", [("1/0,1,1", "mu_1 = '1/0'"), ("1,a,1", "mu_2 = 'a'")])
def test_verify_names_a_malformed_mu_entry(mu, entry, capsys):
    assert run(["verify", "racah", "--n", "3", "--mu", mu]) == 2
    message = f"configuration error: {entry} is not a 'p/q' rational with q != 0\n"
    assert capsys.readouterr().err == message


def test_verify_racah_small(tmp_path):
    out = tmp_path / "racah.json"
    code = run([
        "verify", "racah", "--n", "3", "--mu", "1/2,1/3,1/4",
        "--kmax", "2", "--out", str(out),
    ])
    assert code == 0


def test_verify_eigen_reports_labels(tmp_path):
    out = tmp_path / "eigen.json"
    code = run(["verify", "eigen", "--n", "3", "--kmax", "2", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert all(row["relation"] == "spectral-action" for row in rows)
    # the eigen suite reads --order
    assert run(["verify", "eigen", "--n", "3", "--kmax", "1", "--order", "3,2,1"]) == 0
    assert run(["verify", "eigen", "--n", "3", "--kmax", "1", "--order", "1,2"]) == 2


def test_verify_ck_and_lemma_suites(tmp_path):
    assert run(["verify", "ck", "--n", "3", "--kmax", "2", "--out", str(tmp_path / "a")]) == 0
    assert run(["verify", "lemma1", "--n", "3", "--kmax", "2", "--out", str(tmp_path / "b")]) == 0
    assert run(["verify", "lemma2", "--n", "3", "--kmax", "2", "--out", str(tmp_path / "c")]) == 0
    assert run(["verify", "lemma3", "--n", "2", "--kmax", "2", "--out", str(tmp_path / "d")]) == 0
    assert run(["verify", "drinfeld-kohno", "--n", "4", "--kmax", "1", "--out", str(tmp_path / "e")]) == 0
    assert run(["verify", "embedding", "--n", "3", "--kmax", "2", "--out", str(tmp_path / "f")]) == 0


def test_verify_embedding_custom_blocks(tmp_path):
    code = run([
        "verify", "embedding", "--n", "4", "--kmax", "1",
        "--blocks", "1;2;3,4", "--out", str(tmp_path / "emb.json"),
    ])
    assert code == 0
    assert run(["verify", "embedding", "--n", "4", "--blocks", "1;1;2"]) == 2
    assert run(["verify", "embedding", "--n", "4", "--blocks", "1;2"]) == 2


def test_basis_json_dimension(tmp_path):
    out = tmp_path / "basis.json"
    code = run([
        "basis", "--n", "3", "--k", "4", "--order", "1,2,3", "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data) == 9  # dim of degree-4 harmonics in three variables
    assert all(row["degree"] == 4 for row in data)


def test_basis_csv_dimension_table(tmp_path):
    out = tmp_path / "dims.csv"
    code = run(["basis", "--n", "3", "--k", "4", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,k,dim"
    assert lines[-1] == "3,4,9"


def test_basis_rejects_bad_order():
    assert run(["basis", "--n", "3", "--k", "2", "--order", "1,2"]) == 2
    assert run(["basis", "--n", "3", "--k", "2", "--order", "1,2,2"]) == 2


def test_connect_output(tmp_path):
    out = tmp_path / "connect.json"
    code = run([
        "connect", "--n", "3", "--k", "4", "--mu", "1/2,1/3,1/4",
        "--from", "1,2,3", "--to", "2,3,1", "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert "connection" in data and "tridiagonal" in data
    assert all(row["status"] == "ok" for row in data["tridiagonal"])
    size = len(data["connection"]["from"])
    assert size == 9


def test_connect_csv_flat_matrix(tmp_path):
    out = tmp_path / "w.csv"
    code = run([
        "connect", "--n", "3", "--k", "2", "--from", "1,2,3", "--to", "2,3,1",
        "--format", "csv", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5  # dim of degree-2 harmonics in three variables
    assert all(len(line.split(",")) == 5 for line in lines)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_connect_fails_on_wrong_tridiagonal_data_in_both_formats(monkeypatch, capsys, fmt):
    # the n = 3 check runs whatever the format; its report goes to JSON alone
    argv = ["connect", "--n", "3", "--k", "4", "--from", "1,2,3", "--to", "2,3,1", "--format", fmt]
    assert run(argv) == 0
    good = capsys.readouterr().out
    data = cli.module_tridiagonal_data

    def shifted(params, epsilon, d3):
        diag, offsq = data(params, epsilon, d3)
        return [b + 1 for b in diag], offsq

    monkeypatch.setattr(cli, "module_tridiagonal_data", shifted)
    assert run(argv) == 1
    out = capsys.readouterr().out
    if fmt == "csv":
        assert out == good
    else:
        failed = [row for row in json.loads(out)["tridiagonal"] if row["status"] != "ok"]
        assert {row["relation"] for row in failed} == {"diagonal-matches"}


def test_graph_outputs(tmp_path):
    out = tmp_path / "graph.json"
    assert run(["graph", "--n", "4", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["vertices"]) == 12
    assert len(data["edges"]) == 18

    dot = tmp_path / "graph.dot"
    assert run(["graph", "--n", "4", "--format", "dot", "--out", str(dot)]) == 0
    assert dot.read_text().count("--") == 18
    assert run(["graph", "--n", "2"]) == 2


def test_racah_table_and_errors(tmp_path):
    out = tmp_path / "racah.json"
    code = run([
        "racah", "--n", "3", "--mu", "1/2,1/3,1/4",
        "--epsilon", "0,0,0", "--degree", "4", "--out", str(out),
    ])
    assert code == 0
    rows = json.loads(out.read_text())
    assert [row["k"] for row in rows] == [0, 1, 2, 3]
    # parity mismatch: no module
    assert run(["racah", "--n", "3", "--epsilon", "1,0,0", "--degree", "4"]) == 2
    assert run(["racah", "--n", "3", "--epsilon", "0,2,0", "--degree", "4"]) == 2
    assert run(["racah", "--n", "4", "--epsilon", "0,0,0", "--degree", "4"]) == 2


def test_spectrum_output(tmp_path):
    out = tmp_path / "spec.json"
    code = run(["spectrum", "--n", "3", "--k", "2", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 5
    assert all(set(row["eigenvalues"]) == {"C12", "C123"} for row in rows)


def test_outputs_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "lemma1", "--n", "3", "--kmax", "2"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_rejects_negative_degree_bound(capsys):
    assert run(["verify", "racah", "--n", "3", "--kmax", "-2"]) == 2
    assert run(["verify", "su11", "--n", "3", "--kmax", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--kmax -1 is negative" in captured.err


def test_verify_empty_report_is_not_success(monkeypatch, capsys):
    from racah_dunkl import cli
    from racah_dunkl.report import Report

    monkeypatch.setattr(cli, "verify_su11", lambda params, kmax: Report())
    assert run(["verify", "su11", "--n", "3", "--kmax", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "[]\n"
    assert "no identity checked" in captured.err


@pytest.mark.parametrize("suite, n, kmax, want", [("su11", 3, 2, 63), ("lemma1", 3, 3, 28)])
def test_a_dropped_check_is_an_engine_defect_naming_both_counts(
    monkeypatch, capsys, suite, n, kmax, want
):
    # su11 records 3 (2^n - 1)(kmax + 1) checks and lemma1 (2^n - 1)(kmax + 1);
    # with the last check of subset {1} dropped every record still holds,
    # and the count alone exits 1, never 2
    from racah_dunkl import relations

    argv = ["verify", suite, "--n", str(n), "--kmax", str(kmax)]
    assert run(argv) == 0
    assert len(json.loads(capsys.readouterr().out)) == want
    build = "_su11_brackets" if suite == "su11" else "_laplacian_commutator"
    real = getattr(relations, build)

    def dropping(space, A, *ops):
        checks = list(real(space, A, *ops))
        return checks[:-1] if A == (1,) else checks

    monkeypatch.setattr(relations, build, dropping)
    assert run(argv) == 1
    captured = capsys.readouterr()
    records = json.loads(captured.out)
    assert len(records) == want - (kmax + 1)
    assert all(r["status"] == "ok" for r in records)
    assert captured.err == (
        f"engine defect: the {suite} suite recorded {want - kmax - 1} checks, "
        f"its closed form is {want}\n"
    )


def test_verify_writes_its_report_without_the_python_json_encoder(monkeypatch, capsys):
    # json.dumps with indent runs json.encoder._make_iterencode, the
    # pure-Python encoder; a verify report is written by Report.to_json_text
    import json.encoder

    calls = []
    make_iterencode = json.encoder._make_iterencode

    def counted(*args, **kwargs):
        calls.append(1)
        return make_iterencode(*args, **kwargs)

    monkeypatch.setattr(json.encoder, "_make_iterencode", counted)
    for suite in ("racah", "lemma1", "su11"):
        assert run(["verify", suite, "--n", "3", "--kmax", "2"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and all(row["status"] == "ok" for row in rows)
    assert calls == []
    # the counter sees the encoder that indent selects
    json.dumps([{"degree": 0}], indent=2, sort_keys=True)
    assert calls == [1]


def test_omega_zero_is_a_failure_not_a_configuration_error(capsys):
    # mu_1 + mu_2 = 1 puts the (0, 0, *) modules on sigma = 2, where omega_0
    # and lambda2 - lambda1 vanish together: B_0 is their cancelled ratio
    assert run([
        "racah", "--n", "3", "--mu", "1/2,1/2,1/3", "--epsilon", "0,0,0", "--degree", "2",
    ]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["k"] for row in rows] == [0, 1, 2]
    assert run([
        "connect", "--n", "3", "--k", "2", "--mu", "1/2,1/2,1/3",
        "--from", "1,2,3", "--to", "2,3,1",
    ]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    records = json.loads(captured.out)["tridiagonal"]
    assert [0, 0, 0] in [r["index_tuple"] for r in records]
    assert records and all(r["status"] == "ok" for r in records)


def test_configuration_checked_up_front(capsys):
    for command in ("basis", "spectrum"):
        assert run([command, "--n", "3", "--k", "-1"]) == 2
        assert "degree --k -1 is negative" in capsys.readouterr().err
    assert run(["basis", "--n", "3", "--k", "-1", "--format", "csv"]) == 2
    assert run(["connect", "--n", "3", "--k", "-1", "--from", "1,2,3", "--to", "2,3,1"]) == 2
    assert run(["verify", "ck", "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("configuration error:") == 3
    assert "the extension suite needs n >= 2" in captured.err
    # one variable leaves no invariant to tabulate, as verify eigen --n 1 rejects
    for k in ("1", "2"):
        assert run(["spectrum", "--n", "1", "--k", k]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "configuration error: the spectrum needs n >= 2\n"


UNREAD_OPTIONS = (
    "graph --n 4 --format csv",
    "basis --k 2 --format dot",
    "connect --k 2 --from 1,2,3 --to 2,3,1 --format dot",
    "verify su11 --format json",
    "racah --epsilon 0,0,0 --degree 2 --format json",
    "spectrum --k 2 --format json",
    "basis --k 2 --kmax 2",
    "connect --k 2 --from 1,2,3 --to 2,3,1 --kmax 2",
    "graph --n 4 --kmax 2",
    "racah --epsilon 0,0,0 --degree 2 --kmax 2",
    "spectrum --k 2 --kmax 2",
    "graph --n 4 --mu 1,2,3,4",
)


@pytest.mark.parametrize("argv", UNREAD_OPTIONS)
def test_options_a_subcommand_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv.split())
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


VERIFY_SUITE_OPTIONS = (
    ["racah", "--n", "3", "--kmax", "0", "--order", "3,2,1"],
    ["su11", "--n", "2", "--kmax", "0", "--order", "1,2"],
    ["embedding", "--n", "3", "--kmax", "0", "--order", "1,2,3"],
    ["su11", "--n", "2", "--kmax", "0", "--blocks", "1;2;3"],
    ["racah", "--n", "4", "--kmax", "0", "--blocks", "1,2;3;4"],
    ["eigen", "--n", "3", "--kmax", "0", "--blocks", "1;2;3"],
)


@pytest.mark.parametrize("argv", VERIFY_SUITE_OPTIONS)
def test_verify_rejects_an_option_its_suite_does_not_read(argv, capsys):
    # --order belongs to eigen and --blocks to embedding; any other suite
    # rejects them up front instead of dropping them
    assert run(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    option = argv[-2]
    assert f"configuration error: {option} is read by the" in captured.err
    assert f"not by {argv[0]}" in captured.err


def test_suite_too_small_for_n_is_a_configuration_error(capsys):
    assert run(["verify", "lemma2", "--n", "1"]) == 2
    assert "the nested/disjoint suite needs n >= 2" in capsys.readouterr().err
    assert run(["verify", "eigen", "--n", "1"]) == 2
    assert "the spectral suite needs n >= 2" in capsys.readouterr().err
    # no suite reports an empty check list at its smallest n: it either
    # checks something or rejects the dimension up front
    from racah_dunkl.cli import VERIFY_SUITES

    for suite in VERIFY_SUITES:
        for n in (1, 2):
            code = run(["verify", suite, "--n", str(n), "--kmax", "1"])
            captured = capsys.readouterr()
            if code == 2:
                assert captured.out == ""
                assert "configuration error:" in captured.err
            else:
                assert code == 0, (suite, n, captured.err)
                assert json.loads(captured.out), (suite, n)


def test_engine_failure_exits_one_naming_the_exception(monkeypatch, capsys):
    from racah_dunkl import SpanMismatch, cli

    def broken(params, kmax):
        raise SpanMismatch("source basis is linearly dependent")

    monkeypatch.setattr(cli, "verify_su11", broken)
    assert run(["verify", "su11", "--n", "3", "--kmax", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error" not in captured.err
    assert "SpanMismatch" in captured.err


# a valid argv of each command with its required arguments only
MINIMAL = {
    "verify": ["verify", "su11"],
    "basis": ["basis", "--k", "2"],
    "connect": ["connect", "--k", "2", "--from", "1,2,3", "--to", "2,3,1"],
    "graph": ["graph"],
    "racah": ["racah", "--epsilon", "0,0,0", "--degree", "2"],
    "spectrum": ["spectrum", "--k", "2"],
}


def each_option_in_both_forms():
    for name, command in cli.COMMANDS.items():
        for option, spec in command.options.items():
            value = spec.choices[-1] if spec.choices else "4" if spec.type is int else "1,2"
            yield MINIMAL[name] + [option, value]
            yield MINIMAL[name] + [f"{option}={value}"]


PARSED = [
    *MINIMAL.values(),
    *each_option_in_both_forms(),
    ["verify", "--n", "4", "--kmax", "1", "eigen", "--order", "1,2,3,4"],
    ["connect", "--to", "2,3,1", "--k", "2", "--n", "3", "--from", "1,2,3"],
    ["verify", "su11", "--n", "4", "--n", "5"],
    ["graph", "--format", "dot", "--format=json"],
    ["verify", "su11", "--kmax", "-1"],
    ["spectrum", "--k", "-1"],
    ["verify", "eigen", "--order", ""],
    ["basis", "--k", "2", "--order="],
]


def reference_option_names(name):
    (commands,) = reference.build_parser()._subparsers._group_actions
    return sorted(set(commands.choices[name]._option_string_actions) - {"-h", "--help"})


def test_the_command_table_declares_the_reference_options():
    assert list(cli.COMMANDS) == list(MINIMAL)
    for name, command in cli.COMMANDS.items():
        assert sorted(command.options) == reference_option_names(name)


@pytest.mark.parametrize("argv", PARSED)
def test_parse_args_gives_the_namespace_of_the_argparse_reference(argv):
    assert vars(cli.parse_args(argv)) == vars(reference.build_parser().parse_args(argv))


UNPARSED = [
    *(argv.split() for argv in UNREAD_OPTIONS),
    [],
    ["bogus"],
    ["verify"],
    ["verify", "nosuch"],
    ["verify", "su11", "racah"],
    ["verify", "su11", "--kmax"],
    ["graph", "--n", "x"],
    ["graph", "--n="],
    ["basis"],
    ["basis", "--k", "2", "--format", "xml"],
    ["connect", "--k", "2", "--from", "1,2,3"],
    ["racah", "--epsilon", "0,0,0", "--degree", "two"],
]


@pytest.mark.parametrize("argv", UNPARSED)
def test_parse_errors_exit_two_with_usage_on_stderr_as_the_reference_does(argv, capsys):
    for parse in (cli.parse_args, reference.build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: racah-dunkl")
        assert ": error: " in captured.err.splitlines()[-1]


def test_option_names_are_exact_where_the_reference_takes_a_prefix(capsys):
    argv = ["verify", "su11", "--km", "2"]
    assert reference.build_parser().parse_args(argv).kmax == 2
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv)
    assert exc.value.code == 2
    assert "racah-dunkl verify: error: unrecognized argument '--km'" in capsys.readouterr().err


def help_words(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "racah_dunkl.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: racah-dunkl")
    assert proc.stderr == ""
    return set(re.split(r"[\s\[\]{},]+", proc.stdout))


def test_help_names_every_command_suite_and_option():
    top = help_words(["-h"])
    assert set(cli.COMMANDS) <= top
    assert {option for c in cli.COMMANDS.values() for option in c.options} <= top
    verify = help_words(["verify", "-h"])
    assert set(cli.SUITES) <= verify
    assert set(cli.COMMANDS["verify"].options) <= verify


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "racah_dunkl.cli", "graph", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["vertices"] == ["(C12)", "(C13)", "(C23)"]


def test_main_calls_in_one_process_print_what_each_prints_alone(capsys):
    # a main call leaves nothing behind that changes the next one
    argvs = [
        ["verify", "su11", "--n", "3", "--mu", "1/2,1/3,1/4", "--kmax", "2"],
        ["verify", "lemma1", "--n", "3", "--kmax", "2"],
    ]
    shared = []
    for argv in argvs:
        assert main(argv) == 0
        shared.append(capsys.readouterr())
    for argv, out in zip(argvs, shared):
        proc = subprocess.run(
            [sys.executable, "-m", "racah_dunkl.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert (proc.stdout, proc.stderr) == (out.out, out.err)
    assert all(out.out and not out.err for out in shared)


def test_out_is_checked_before_any_computation(monkeypatch, tmp_path, capsys):
    # an --out naming a directory, or sitting in a missing one, is a
    # configuration error (exit 2) raised before the suite runs
    calls = []
    monkeypatch.setattr(cli, "verify_su11", lambda params, kmax: calls.append(kmax))
    missing = tmp_path / "missing" / "x.json"
    for out in (missing, tmp_path):
        assert run(["verify", "su11", "--n", "2", "--kmax", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: --out {out} ")
    assert calls == []
    assert run(["basis", "--n", "3", "--k", "2", "--out", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"configuration error: --out {missing} is not in an existing directory\n"
    )
    assert not missing.parent.exists()


def test_verify_rejects_an_empty_suite_option(capsys):
    # an empty --order, --blocks or --mu is a malformed value, not an absent one
    assert run(["verify", "eigen", "--n", "3", "--kmax", "1", "--order", ""]) == 2
    assert run(["verify", "embedding", "--n", "3", "--kmax", "1", "--blocks", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("configuration error: expected comma-separated integers") == 2
    assert run(["verify", "su11", "--n", "2", "--kmax", "0", "--mu", ""]) == 2
    assert run(["verify", "su11", "--n", "1", "--kmax", "0", "--mu", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "configuration error: expected 2 deformation parameters, got 1\n"
        "configuration error: mu_1 = '' is not a 'p/q' rational with q != 0\n"
    )


# suite: (smallest n, the message one below it)
SMALLEST_N = {
    "racah": (3, "the relation suite needs n >= 3"),
    "lemma2": (2, "the nested/disjoint suite needs n >= 2"),
    "drinfeld-kohno": (3, "the commutativity suite needs n >= 3"),
    "embedding": (3, "the embedding suite needs n >= 3"),
    "ck": (2, "the extension suite needs n >= 2"),
    "eigen": (2, "the spectral suite needs n >= 2"),
}


def test_smallest_n_of_each_suite_is_its_table_row():
    rows = {name: suite.min_n for name, suite in cli.SUITES.items() if suite.min_n > 1}
    assert rows == {name: n for name, (n, _) in SMALLEST_N.items()}
    assert cli.VERIFY_SUITES == tuple(cli.SUITES)


@pytest.mark.parametrize("suite", sorted(SMALLEST_N))
def test_suite_rejects_n_below_its_smallest(suite, capsys):
    smallest, message = SMALLEST_N[suite]
    assert run(["verify", suite, "--n", str(smallest - 1), "--kmax", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: {message}\n"


# suite: (a small n, the default --kmax at that n)
DEFAULT_KMAX = {
    "su11": (1, 6),
    "racah": (3, 6),
    "lemma1": (1, 4),
    "lemma2": (2, 4),
    "drinfeld-kohno": (3, 4),
    "embedding": (3, 3),
    "ck": (2, 4),
    "lemma3": (1, 3),
    "eigen": (2, 4),
}


@pytest.mark.parametrize("suite", list(DEFAULT_KMAX))
def test_omitted_kmax_is_the_suite_default(suite, capsys):
    n, kmax = DEFAULT_KMAX[suite]
    assert run(["verify", suite, "--n", str(n)]) == 0
    omitted = capsys.readouterr()
    assert run(["verify", suite, "--n", str(n), "--kmax", str(kmax)]) == 0
    explicit = capsys.readouterr()
    assert omitted.out and omitted.out == explicit.out
    assert omitted.err == explicit.err == ""
    # one degree fewer is a different report, so the default is pinned
    assert run(["verify", suite, "--n", str(n), "--kmax", str(kmax - 1)]) == 0
    assert capsys.readouterr().out != omitted.out


def readme_suite_rows() -> list[list[str]]:
    """The cells of each row of README's table of the verify suites."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = text[text.index("| suite | checks | smallest n |"):].split("\n\n")[0]
    rows = [line.strip("|").split("|") for line in table.splitlines()[2:]]
    return [[cell.strip() for cell in row] for row in rows]


def test_readme_suite_table_is_the_suite_table():
    # README's suite, smallest n, default --kmax and option columns are
    # read from SUITES, in its order
    rows = readme_suite_rows()
    assert [row[0] for row in rows] == [f"`{name}`" for name in cli.SUITES]
    for (_, _, smallest, kmax, option), suite in zip(rows, cli.SUITES.values()):
        assert int(smallest) == suite.min_n, rows
        if callable(suite.kmax):
            # "6, 4, 5, 4, 3 at n = 3..7, else 2"
            bounds = re.fullmatch(r"(.*) at n = (\d+)\.\.(\d+), else (\d+)", kmax)
            values, low, high, other = bounds.groups()
            want = {n: int(v) for n, v in zip(range(int(low), int(high) + 1), values.split(", "))}
            for n in range(suite.min_n, int(high) + 3):
                assert suite.kmax(n) == want.get(n, int(other)), (kmax, n)
        else:
            assert int(kmax) == suite.kmax, rows
        assert (re.match(r"`(--[\w-]+)`", option)[1] if option else None) == suite.option
