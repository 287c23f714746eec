"""The CLI builds only the parser of the invoked command.

Whatever the command line, that lean parser must print and exit exactly
as the parser with every command would.  Both are built here, in the
same interpreter, so argparse's own wording never differs between them.
"""

import pytest

from eraserlang.cli import _COMMANDS, _build_parser


def outcome(capsys, parser, argv):
    try:
        args = vars(parser.parse_args(argv))
        code = None
    except SystemExit as exc:
        args, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, args


def subcommands(parser):
    return [a for a in parser._actions if a.dest in ("command", "set_name")]


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["factor", "--help"],
    ["member", "--help"],
    ["member", "hv", "--help"],
    ["factor"],
    ["factor", "11", "extra"],
    ["member", "bogus", "x"],
    ["member", "hv", "0aba1", "extra"],
    ["bogus"],
    ["theta", "--help"],
    ["verify-rp", "--p", "0", "--n", "1"],
    ["enumerate", "lk", "--max-len", "3"],
    ["staged-erase", "0 E1", "--k", "2", "--up"],
    [],
])
def test_lean_parser_prints_and_exits_as_the_full_one(capsys, monkeypatch,
                                                      argv):
    monkeypatch.setenv("COLUMNS", "80")
    lean = outcome(capsys, _build_parser(argv), argv)
    full = outcome(capsys, _build_parser([]), argv)
    assert lean == full


def test_only_the_invoked_command_is_built():
    commands, = subcommands(_build_parser(["member", "hv", "1"]))
    assert list(commands.choices) == ["member"]
    sets, = subcommands(commands.choices["member"])
    assert list(sets.choices) == ["hv"]
    # a token that names no command builds them all
    commands, = subcommands(_build_parser(["--help"]))
    assert list(commands.choices) == list(_COMMANDS)
    commands, = subcommands(_build_parser(["member", "bogus"]))
    sets, = subcommands(commands.choices["member"])
    assert list(sets.choices) == list(_COMMANDS["member"][1])


def test_errors_without_a_command_name_the_command_argument(capsys):
    code, _, err, _ = outcome(capsys, _build_parser([]), [])
    assert code == 2
    assert err.endswith("error: the following arguments are required: "
                        "command\n")
    code, _, err, _ = outcome(capsys, _build_parser(["bogus"]), ["bogus"])
    assert code == 2 and "argument command: invalid choice: 'bogus'" in err
