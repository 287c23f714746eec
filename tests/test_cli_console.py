"""The command-line entry point ends without interpreter teardown, and
says exactly what ``sys.exit(main())`` says.

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
    # meets the closed pipe, and the entry point falls back to sys.exit
    def closed(entry):
        read, write = os.pipe()
        os.close(read)
        try:
            return subprocess.run(entry + ["theta", "--upto", "12"],
                                  stdout=write, stderr=subprocess.PIPE,
                                  env=ENV, timeout=60)
        finally:
            os.close(write)

    fast, reference = closed(CONSOLE), closed(REFERENCE)
    assert (fast.returncode, fast.stderr) == (reference.returncode,
                                              reference.stderr)
    assert fast.returncode == 120
    assert fast.stderr.endswith(b"BrokenPipeError: [Errno 32] Broken pipe\n")


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
    # inside main meets the closed pipe; the frames of the traceback
    # above main differ, as the entry point calls it from console
    def first_line(entry):
        with subprocess.Popen(entry + ["theta", "--upto", "12000"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=ENV) as proc:
            line = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            status = proc.wait(60)
        frames = [t for t in err.splitlines() if not t.startswith(b" ")]
        return status, line, frames

    fast, reference = first_line(CONSOLE), first_line(REFERENCE)
    assert fast == reference
    assert fast == (1, b"0 1\n", [b"Traceback (most recent call last):",
                                  b"BrokenPipeError: [Errno 32] Broken pipe"])


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
