"""The package namespace loads lazily, and a CLI call imports only the
modules its command runs.

Module sets are read in fresh interpreters, since this process has
imported every module long before a test runs.
"""

import os
import pickle
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import eraserlang

SRC = str(Path(eraserlang.__file__).parents[1])

# module -> the public names it defines
PUBLIC = {
    "words": ["ALPHA", "BETA", "Eraser", "MalformedInput", "UPWord",
              "format_staged", "format_up", "format_word", "parse_binary",
              "parse_coded", "parse_staged", "parse_up", "up_equal",
              "up_normalize", "up_prefix"],
    "eraser": ["EvalOutcome", "LoopCertificate", "certificate_holds", "erase",
               "erase_up", "staged_erase", "staged_erase_up"],
    "staged": ["min_stages", "vanishes", "vanishes_by_grammar",
               "vanishing_words", "words_over"],
    "coding": ["DecodeResult", "decode", "decode_up", "encode", "encode_up",
               "in_block_stream"],
    "omega": ["Factorization", "LassoVerdict", "factor_index", "factor_words",
              "factorize", "has_infinitely_many_ones",
              "in_coded_erasure_ladder", "in_erasure_ladder", "is_factor",
              "lasso_member", "nth_factor", "pairing_consistent",
              "vanishes_coded", "verify_intersection_identity",
              "viable_prefix"],
}
ALL = sorted(name for names in PUBLIC.values() for name in names)


def run(*args: str, stdin: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], input=stdin,
                          capture_output=True, check=True, env=env).stdout


# ------------------------------------------------------------- namespace

def test_all_lists_the_public_names():
    assert len(ALL) == 48
    assert eraserlang.__all__ == ALL
    assert set(ALL) <= set(dir(eraserlang))


@pytest.mark.parametrize("module", PUBLIC)
def test_each_name_is_its_defining_module_attribute(module):
    home = import_module(f"eraserlang.{module}")
    for name in PUBLIC[module]:
        assert getattr(eraserlang, name) is getattr(home, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from eraserlang import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == ALL
    assert all(namespace[n] is getattr(eraserlang, n) for n in ALL)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        eraserlang.no_such_name
    assert not hasattr(eraserlang, "no_such_name")


def test_records_pickled_in_one_interpreter_load_in_another():
    # one record from each module that defines one
    made = ("[e.decode('0ab'), e.factorize('0aba11'), "
            "e.lasso_member(e.UPWord('', '01'), 8), "
            "e.erase_up(e.UPWord((), (0, 1, e.Eraser(1))))]")
    dump = ("import pickle, sys, eraserlang as e; "
            f"sys.stdout.buffer.write(pickle.dumps({made}))")
    load = ("import pickle, sys; "
            "print(repr(pickle.loads(sys.stdin.buffer.read())))")
    records = eval(made, {"e": eraserlang})
    blob = run("-c", dump)
    assert pickle.loads(blob) == records
    assert run("-c", load, stdin=blob).decode() == repr(records) + "\n"


# ------------------------------------------------------------ per command

MODULES = """
import sys
from eraserlang import cli
try:
    cli.main(sys.argv[1:])
except SystemExit:
    pass
print(sorted(m for m in sys.modules if m.startswith("eraserlang.")))
"""

HELP = ["cli", "words"]
ERASER = HELP + ["eraser"]
CODING = HELP + ["coding"]
STAGED = HELP + ["eraser", "staged"]
OMEGA = HELP + ["coding", "eraser", "omega"]  # staged only to build rows
EVERY = HELP + ["coding", "eraser", "omega", "staged"]


@pytest.mark.parametrize("argv, modules", [
    (["--help"], HELP),
    (["erase", "0 E1"], ERASER),
    (["erase", "--up", "|0 E1"], ERASER),
    (["staged-erase", "0 E1", "--k", "1"], ERASER),
    (["staged-erase", "--up", "|0 E1", "--k", "1"], ERASER),
    (["encode", "0 E1"], CODING),
    (["encode", "--up", "|0 E1"], CODING),
    (["decode", "0aba"], CODING),
    (["member", "rp", "|0aba", "--p", "1"], CODING),
    (["min-k", "0 E1"], STAGED),
    (["member", "lk", "0 E1", "--k", "1"], STAGED),
    (["member", "l1-grammar", "0 E1"], STAGED),
    (["enumerate", "lk", "--k", "1", "--max-len", "2"], STAGED),
    (["factor", "11"], OMEGA),
    (["viable", "0ab"], OMEGA),
    (["lasso", "|01", "--bound", "2"], OMEGA),
    (["theta", "3"], EVERY),
    (["dcheck", "01", "01"], EVERY),
    (["verify-rp", "--p", "1", "--n", "3"], OMEGA),
    (["enumerate", "hv", "--max-len", "2"], EVERY),
    (["member", "hv", "0aba1"], OMEGA),
    (["member", "lscript", "0aba"], OMEGA),
    (["member", "r", "|01"], OMEGA),
    (["member", "r-approx", "|1 0 E1", "--p", "1"], OMEGA),
    (["member", "encoded-r-approx", "|0aba1", "--p", "1"], OMEGA),
])
def test_a_command_loads_only_its_modules(argv, modules):
    last = run("-c", MODULES, *argv).decode().splitlines()[-1]
    assert last == repr(sorted(f"eraserlang.{m}" for m in modules))


def test_package_import_loads_no_module():
    code = ("import sys, eraserlang; "
            "print([m for m in sys.modules if m.startswith('eraserlang.')])")
    assert run("-c", code) == b"[]\n"


def test_no_module_imports_typing():
    # -S: without site, nothing else preloads typing
    code = ("import sys, eraserlang.cli, " +
            ", ".join(f"eraserlang.{m}" for m in PUBLIC) +
            "; print('typing' in sys.modules)")
    assert run("-S", "-c", code) == b"False\n"
