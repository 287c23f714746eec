import pytest

from eraserlang.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------- pinned examples

def test_erase_up_pinned(capsys):
    code, out, err = run(capsys, "erase", "--up", "|0 1 E1")
    assert (code, out, err) == (0, "infinite: |0\n", "")


def test_factor_pinned(capsys):
    code, out, err = run(capsys, "factor", "11")
    assert (code, out, err) == (0, "count=1 cuts=[1]\n", "")


def test_decode_malformed_pinned(capsys):
    code, out, err = run(capsys, "decode", "aa")
    assert code == 2
    assert out == ""
    assert err == "malformed code at position 2\n"


# ------------------------------------------------------------ evaluation

def test_erase_finite_and_undefined(capsys):
    assert run(capsys, "erase", "0 1 E1") == (0, "finite: 0\n", "")
    assert run(capsys, "erase", "E1") == (0, "undefined\n", "")
    assert run(capsys, "erase", "0 E1") == (0, "finite: \n", "")


def test_staged_erase(capsys):
    code, out, err = run(capsys, "staged-erase", "0 E1 E2", "--k", "2")
    assert (code, out) == (0, "undefined\n")
    code, out, err = run(capsys, "staged-erase", "--up", "|1 0 E1", "--k", "1")
    assert (code, out) == (0, "infinite: |1\n")


def test_erase_rejects_bad_tokens(capsys):
    code, out, err = run(capsys, "erase", "0 E0")
    assert code == 2 and out == "" and "position" in err


# ------------------------------------------------------------ membership

@pytest.mark.parametrize("argv, expected", [
    (("member", "l1-grammar", "0 E1"), "true"),
    (("member", "l1-grammar", "E1 0"), "false"),
    (("member", "lk", "E2 E1", "--k", "2"), "true"),
    (("member", "lk", "0 E1 E2", "--k", "2"), "false"),
    (("member", "lscript", "0aba"), "true"),
    (("member", "lscript", "aba"), "false"),
    (("member", "hv", "0aba1"), "true"),
    (("member", "hv", "11"), "false"),
    (("member", "rp", "|0aba", "--p", "1"), "true"),
    (("member", "rp", "|abba", "--p", "1"), "false"),
    (("member", "r", "|01"), "true"),
    (("member", "r", "1|0"), "false"),
    (("member", "r-approx", "|1 0 E1", "--p", "1"), "true"),
    (("member", "r-approx", "|0 E1", "--p", "1"), "false"),
    (("member", "encoded-r-approx", "|10aba", "--p", "1"), "true"),
    (("member", "encoded-r-approx", "|0aba", "--p", "1"), "false"),
    (("viable", "0ab"), "true"),
    (("viable", "aba"), "false"),
    (("dcheck", "01", "01"), "true"),
    (("dcheck", "01", "11"), "false"),
    (("dcheck", "00", "01"), "true"),
])
def test_membership_lines(capsys, argv, expected):
    assert run(capsys, *argv) == (0, expected + "\n", "")


def test_member_rejects_malformed_words(capsys):
    code, out, err = run(capsys, "member", "lscript", "0x1")
    assert code == 2 and "position 2" in err
    code, out, err = run(capsys, "member", "r-approx", "|E2", "--p", "1")
    assert code == 2 and err != ""
    # a malformed period is placed in the whole prefix|period text
    assert run(capsys, "member", "r", "0|2") == (
        2, "", "unexpected character '2' at position 3\n")


# ------------------------------------------------------------- listings

def test_enumerate_lk(capsys):
    code, out, err = run(capsys, "enumerate", "lk", "--k", "1",
                         "--max-len", "2")
    assert code == 0
    assert out == "\n0 E1\n1 E1\n"


def test_enumerate_hv(capsys):
    code, out, err = run(capsys, "enumerate", "hv", "--max-len", "2")
    assert code == 0
    assert out == "1\n01\n"


def test_min_k(capsys):
    assert run(capsys, "min-k", "E2 E1") == (0, "2\n", "")
    assert run(capsys, "min-k", "0 E1 E2") == (0, "none\n", "")


def test_theta(capsys):
    assert run(capsys, "theta", "5") == (0, "0aba1\n", "")
    code, out, err = run(capsys, "theta", "--upto", "2")
    assert code == 0
    assert out == "0 1\n1 01\n2 001\n"
    code, out, err = run(capsys, "theta")
    assert code == 2 and err == "theta needs an index or --upto\n"


# ------------------------------------------------------------- rewriting

def test_encode_decode(capsys):
    assert run(capsys, "encode", "0 E2 1") == (0, "0abba1\n", "")
    assert run(capsys, "encode", "--up", "|0 E1") == (0, "|0aba\n", "")
    assert run(capsys, "decode", "0abba1") == (0, "0 E2 1\n", "")
    code, out, err = run(capsys, "decode", "0ab")
    assert code == 0
    assert out == "0\ndangling: ab\n"


# ---------------------------------------------------------------- omega

def test_lasso(capsys):
    code, out, err = run(capsys, "lasso", "|01", "--bound", "8")
    assert code == 0
    assert out == "yes loop_start=0 loop_length=2 cuts=[0, 2]\n"
    assert run(capsys, "lasso", "|a1") == (0, "no\n", "")
    code, out, err = run(capsys, "lasso", "|0", "--bound", "4")
    assert out == "unknown bound=4\n"


def test_verify_rp(capsys, tmp_path):
    assert run(capsys, "verify-rp", "--p", "1", "--n", "4") == (0, "true\n",
                                                                "")
    path = tmp_path / "report.txt"
    code, out, err = run(capsys, "verify-rp", "--p", "1", "--n", "4",
                         "--report", str(path))
    assert code == 0 and out == "true\n"
    assert "result: PASS" in path.read_text()


# -------------------------------------------------------------- printers

@pytest.mark.parametrize("argv, expected", [
    (("enumerate", "hv", "--max-len", "0"), ""),
    (("enumerate", "lk", "--k", "1", "--max-len", "0"), "\n"),
    (("factor", ""), "count=1 cuts=[]\n"),
    (("min-k", ""), "1\n"),
    (("encode", "--up", "0 E1|1"), "0aba|1\n"),
    (("erase", "--up", "1 1|E1 0"), "finite: 1\n"),
    (("erase", "--up", "|E1"), "undefined\n"),
    (("staged-erase", "--up", "|E1", "--k", "3"), "undefined\n"),
    (("decode", ""), "\n"),
    (("lasso", "|01"), "yes loop_start=0 loop_length=2 cuts=[0, 2]\n"),
    (("theta", "--upto", "0"), "0 1\n"),
    (("factor", "ab01"), "count=0\n"),
])
def test_printer_branches(capsys, argv, expected):
    assert run(capsys, *argv) == (0, expected, "")