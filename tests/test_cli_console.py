"""The command-line entry point ends without interpreter teardown, and
says exactly what ``sys.exit(main())`` says, but for a pipe whose
reader has gone, where it ends with status 1 and nothing on stderr.

Each case runs ``python -m eraserlang.cli`` and ``sys.exit(main())`` in
fresh interpreters with ``PYTHONUNBUFFERED`` removed, so that stdout is
buffered and the output is still in its buffer when main returns.
"""

import ast
import hashlib
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from eraserlang import cli

ROOT = Path(__file__).parents[1]
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = str(ROOT / "src")
CONSOLE = [sys.executable, "-m", "eraserlang.cli"]
REFERENCE = [sys.executable, "-c",
             "import sys; from eraserlang.cli import main; sys.exit(main())"]


def run(entry, argv):
    return subprocess.run(entry + argv, capture_output=True, env=ENV,
                          timeout=60)


def outcome(done) -> tuple:
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("argv", [
    ["theta", "--upto", "1200"],
    ["decode", "aa"],
    ["factor", "0aba1"],
    ["member", "l1-grammar", "E1 E2"],
    ["enumerate", "hv", "--max-len", "0"],
])
def test_the_entry_point_matches_sys_exit_of_main(argv):
    assert outcome(run(CONSOLE, argv)) == outcome(run(REFERENCE, argv))


def test_theta_table_through_buffered_stdout():
    fast = run(CONSOLE, ["theta", "--upto", "1200"])
    assert fast.returncode == 0 and fast.stderr == b""
    assert hashlib.sha1(fast.stdout).hexdigest() == (
        "bbb70ec86bebdc52466ad841c5fee95094ad0533")


def test_malformed_code_through_buffered_stderr():
    assert outcome(run(CONSOLE, ["decode", "aa"])) == (
        2, b"", b"malformed code at position 2\n")


def test_report_is_complete_at_exit(tmp_path):
    reports = [tmp_path / "fast.txt", tmp_path / "reference.txt"]
    fast, reference = [
        run(entry, ["verify-rp", "--p", "2", "--n", "9",
                    "--report", str(path)])
        for entry, path in zip((CONSOLE, REFERENCE), reports)]
    assert outcome(fast) == outcome(reference) == (0, b"true\n", b"")
    text = reports[0].read_text()
    assert text == reports[1].read_text()
    assert text.endswith("\n")
    assert text.splitlines()[2] == (
        "intersection side: 3583 words, encoded staged side: 3583 words")


def test_stdout_closed_before_the_first_write():
    # the whole output waits in the buffer, so the flush after main
    # meets the closed pipe, and the entry point ends the call quietly
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(CONSOLE + ["theta", "--upto", "12"],
                              stdout=write, stderr=subprocess.PIPE,
                              env=ENV, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")


@pytest.mark.parametrize("redirect", [">&-", "2>&-"])
@pytest.mark.parametrize("argv", [["factor", "11"], ["decode", "aa"]])
def test_a_stream_closed_at_start(redirect, argv):
    # the interpreter sets the stream to None, which has no flush
    def closed(entry):
        return subprocess.run(["sh", "-c", f'"$@" {redirect}', "sh", *entry,
                               *argv], capture_output=True, env=ENV,
                              timeout=60)

    fast, reference = closed(CONSOLE), closed(REFERENCE)
    assert outcome(fast) == outcome(reference)
    assert fast.returncode == (2 if argv[0] == "decode" else 0)


def test_stdout_closed_after_the_first_line():
    # about 200 KB, more than the pipe and the buffer hold, so a write
    # inside main meets the closed pipe, and the call ends quietly
    with subprocess.Popen(CONSOLE + ["theta", "--upto", "12000"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=ENV) as proc:
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        status = proc.wait(60)
    assert (status, line, err) == (1, b"0 1\n", b"")


def test_an_internal_error_still_gives_a_traceback():
    # main is left as it is in process, so an error inside it reaches
    # the interpreter, which prints it and exits 1
    script = ("import sys; from eraserlang import cli\n"
              "def broken(args): raise RuntimeError('internal')\n"
              "cli._COMMANDS['factor'] = ('', [], broken)\n"
              "sys.argv[1:] = ['factor']\n"
              "cli.console()\n")
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, env=ENV, timeout=60)
    assert done.returncode == 1 and done.stdout == b""
    assert done.stderr.startswith(b"Traceback (most recent call last):")
    assert done.stderr.endswith(b"RuntimeError: internal\n")


def test_script_target_is_what_the_main_block_calls():
    with open(ROOT / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["eraserlang"]
    module, name = target.split(":")
    assert module == cli.__name__ and callable(getattr(cli, name))
    tree = ast.parse(Path(cli.__file__).read_text())
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    [call] = block.body
    assert ast.unparse(call) == f"{name}()"
