"""A word argument of - reads the word from stdin.

``viable -`` reads stdin as a stream of checked chunks; every other
command reads it whole and then answers as on an argument.  One trailing
newline is dropped, and a malformed character exits 2 with its position
counted from the start of the input, past the first read too.
"""

import io
import os
import sys

import pytest

from eraserlang.cli import main

N = 10 ** 6


def run(monkeypatch, capsys, data: bytes, *argv: str):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, expected", [
    (["factor", "-"], "count=1 cuts=[]\n"),
    (["member", "hv", "-"], "true\n"),
    (["viable", "-"], "true\n"),
])
def test_a_million_letters_read_from_stdin(monkeypatch, capsys, argv,
                                           expected):
    # one factor: pads 0aba, then the closing 1
    word = b"0aba" * (N // 4) + b"1\n"
    assert run(monkeypatch, capsys, word, *argv) == (0, expected, "")


def test_viable_reads_a_stream_that_starves_late(monkeypatch, capsys):
    word = b"0" * N + b"aba" * (N + 1)
    assert run(monkeypatch, capsys, word, "viable", "-") == (0, "false\n", "")
    word = b"0" * N + b"aba" * N + b"ab"
    assert run(monkeypatch, capsys, word, "viable", "-") == (0, "true\n", "")


@pytest.mark.parametrize("data", [b"", b"\n", b"\r\n"])
def test_empty_stdin_is_the_empty_word(monkeypatch, capsys, data):
    assert run(monkeypatch, capsys, data, "factor", "-") == (
        0, "count=1 cuts=[]\n", "")
    assert run(monkeypatch, capsys, data, "viable", "-") == (0, "true\n", "")
    assert run(monkeypatch, capsys, data, "decode", "-") == (0, "\n", "")


@pytest.mark.parametrize("argv", [["factor", "-"], ["viable", "-"],
                                  ["member", "hv", "-"]])
def test_one_trailing_newline_is_dropped(monkeypatch, capsys, argv):
    for end in (b"", b"\n", b"\r\n"):
        code, out, err = run(monkeypatch, capsys, b"0aba11" + end, *argv)
        assert (code, err) == (0, "")
        # 0aba1 1 is a stream of two factors, so not one factor
        assert out == {"factor": "count=1 cuts=[5]\n", "viable": "true\n",
                       "member": "false\n"}[argv[0]]
    for end, bad in ((b"\n\n", "'\\n' at position 7"),
                     (b"\r", "'\\r' at position 7"),
                     (b"\n\r\n", "'\\n' at position 7")):
        code, out, err = run(monkeypatch, capsys, b"0aba11" + end, *argv)
        assert (code, out, err) == (2, "", f"unexpected character {bad}\n")


def test_staged_and_periodic_words_read_from_stdin(monkeypatch, capsys):
    assert run(monkeypatch, capsys, b"0 0 E2 1 E1\n", "staged-erase", "-",
               "--k", "2") == (0, "finite: 0\n", "")
    assert run(monkeypatch, capsys, b"|0 1 E1\r\n", "erase", "--up",
               "-") == (0, "infinite: |0\n", "")
    assert run(monkeypatch, capsys, b"|0aba1\n", "member", "encoded-r-approx",
               "-", "--p", "1") == (0, "true\n", "")


@pytest.mark.parametrize("argv", [["factor", "-"], ["viable", "-"],
                                  ["member", "hv", "-"], ["decode", "-"]])
@pytest.mark.parametrize("at, bad", [
    pytest.param(at, bad, id=f"{at}{name}")
    for bad, name in [(b"x", ""), ("é".encode(), "-e_acute")]
    for at in [1, 5, 65_535, 65_536, 65_537, 200_001]])
def test_malformed_stdin_exits_2_with_its_position(monkeypatch, capsys, argv,
                                                   at, bad):
    # a starved eraser first: viable knows its answer at once, and still
    # reads the rest of the word and finds the fault; at 65_536 the two
    # bytes of a two-byte character straddle the first read
    word = (b"aba" + b"0" * at)[:at - 1] + bad + b"0" * 10
    code, out, err = run(monkeypatch, capsys, word, *argv)
    assert (code, out) == (2, "")
    assert err == f"unexpected character {bad.decode()!r} at position {at}\n"


def test_bytes_that_are_not_utf8_exit_2(monkeypatch, capsys):
    code, out, err = run(monkeypatch, capsys, b"0\xffa", "viable", "-")
    assert (code, out) == (2, "")
    assert err.endswith("at position 2\n")


def test_a_word_argument_still_reads_no_stdin(monkeypatch, capsys):
    assert run(monkeypatch, capsys, b"x", "viable", "0ab") == (
        0, "true\n", "")
    assert run(monkeypatch, capsys, b"x", "factor", "11") == (
        0, "count=1 cuts=[1]\n", "")


@pytest.mark.parametrize("argv", [["viable", "-"], ["factor", "-"]])
def test_an_unreadable_stdin_exits_2(monkeypatch, capsys, argv):
    for stdin in (None, open(os.devnull, "w")):  # closed, or write-only
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "cannot read the word from stdin\n")
        if stdin is not None:
            stdin.close()
