"""The CLI answers every input with exit 0 or 2, never a traceback.

Exit 2 comes with one diagnostic line; exit 1 is reserved for internal
failures, so user input must never produce it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import eraserlang
from eraserlang import omega
from eraserlang.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ report path

def test_unwritable_report_path_exits_2(capsys, tmp_path):
    missing = tmp_path / "missing" / "report.txt"
    code, out, err = run(capsys, "verify-rp", "--p", "1", "--n", "3",
                         "--report", str(missing))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and str(missing) in err


def test_report_path_that_is_a_directory_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "verify-rp", "--p", "1", "--n", "3",
                         "--report", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and str(tmp_path) in err


def test_unwritable_report_path_fails_before_the_walks(capsys, tmp_path,
                                                       monkeypatch):
    def walk(steps, n, start, grow):
        raise AssertionError("walked before opening the report")

    def side(p, room, depth):
        raise AssertionError("made steps before opening the report")

    monkeypatch.setattr(omega, "_classes", walk)
    monkeypatch.setattr(omega, "_rp_steps", side)
    monkeypatch.setattr(omega, "_staged_steps", side)
    missing = tmp_path / "missing" / "report.txt"
    code, out, err = run(capsys, "verify-rp", "--p", "1", "--n", "14",
                         "--report", str(missing))
    assert (code, out) == (2, "")
    assert str(missing) in err


def test_writable_report_path_still_works(capsys, tmp_path):
    path = tmp_path / "report.txt"
    assert run(capsys, "verify-rp", "--p", "1", "--n", "3",
               "--report", str(path)) == (0, "true\n", "")
    assert path.read_text().splitlines()[1] == "result: PASS"


# ------------------------------------------------------ negative counts

@pytest.mark.parametrize("argv", [
    ["theta", "-1"],
    ["enumerate", "hv", "--max-len", "-1"],
])
def test_a_negative_count_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(": must be at least 0\n")


# ------------------------------------------------- an index past a string

# Python reads the index, but no string is long enough to hold its code
@pytest.mark.parametrize("argv", [
    ["encode", "0 E99999999999999999999"],
    ["encode", "--up", "|0 E99999999999999999999"],
])
def test_an_index_too_large_to_encode_exits_2(capsys, argv):
    assert run(capsys, *argv) == (
        2, "", "eraser index 99999999999999999999 is too large to encode\n")


# an index whose code fits a C size but not the memory at hand: the
# command runs in a fresh interpreter held to 256 MiB of address space
@pytest.mark.parametrize("argv, index", [
    (["encode", "0 E1000000000000"], 1000000000000),
    (["encode", "--up", "0|E99999999999"], 99999999999),
])
def test_an_index_too_large_for_memory_exits_2(argv, index):
    code = """if True:
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))
        from eraserlang.cli import main
        sys.exit(main(sys.argv[1:]))
    """
    src = str(Path(eraserlang.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, timeout=10,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"eraser index {index} is too large to encode\n")


# -------------------------------------------------------- any word, 0 or 2

# the last token has more digits than Python reads into an int
TOKENS = ["0", "1", "E1", "E2", "E3", "a", "b", "|", "x", "E0",
          "E" + "1" * 5000]
words = st.builds(lambda toks, sep: sep.join(toks),
                  st.lists(st.sampled_from(TOKENS), max_size=8),
                  st.sampled_from([" ", ""]))
small = st.integers(1, 4).map(str)

# every subcommand that takes a word, with its numeric options
COMMANDS = st.one_of(
    st.tuples(st.just("erase"), words),
    st.tuples(st.just("erase"), words, st.just("--up")),
    st.tuples(st.just("staged-erase"), words, st.just("--k"), small),
    st.tuples(st.just("staged-erase"), words, st.just("--k"), small,
              st.just("--up")),
    st.tuples(st.just("member"), st.just("l1-grammar"), words),
    st.tuples(st.just("member"), st.just("lk"), words, st.just("--k"), small),
    st.tuples(st.just("member"), st.just("lscript"), words),
    st.tuples(st.just("member"), st.just("hv"), words),
    st.tuples(st.just("member"), st.just("rp"), words, st.just("--p"), small),
    st.tuples(st.just("member"), st.just("r"), words),
    st.tuples(st.just("member"), st.just("r-approx"), words,
              st.just("--p"), small),
    st.tuples(st.just("member"), st.just("encoded-r-approx"), words,
              st.just("--p"), small),
    st.tuples(st.just("min-k"), words),
    st.tuples(st.just("encode"), words),
    st.tuples(st.just("encode"), words, st.just("--up")),
    st.tuples(st.just("decode"), words),
    st.tuples(st.just("factor"), words),
    st.tuples(st.just("viable"), words),
    st.tuples(st.just("lasso"), words, st.just("--bound"), small),
    st.tuples(st.just("dcheck"), words, words),
)


# run() drains capsys after every call, so examples cannot see each
# other's output through the shared fixture
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(COMMANDS)
def test_every_word_exits_0_or_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code in (0, 2), (argv, code, err)
    if code == 2:
        assert out == "" and err.count("\n") >= 1
    else:
        assert err == ""
