"""The public record types: immutable, picklable, with stable reprs.

The result records are named tuples; Eraser is a class of its own, since
it sits inside staged words, which are tuples themselves.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import eraserlang
from eraserlang import (DecodeResult, Eraser, EvalOutcome, Factorization,
                        LassoVerdict, LoopCertificate, MalformedInput, UPWord,
                        decode, erase_up, factorize, lasso_member)

CERT = LoopCertificate(warmup_periods=0, loop_periods=1, popped=0,
                       pushed=(0,))

RECORDS = [
    (Eraser(2), "Eraser(index=2)"),
    (UPWord("", "01"), "UPWord(prefix='', period='01')"),
    (UPWord((0,), (Eraser(1), 1)),
     "UPWord(prefix=(0,), period=(Eraser(index=1), 1))"),
    (CERT, "LoopCertificate(warmup_periods=0, loop_periods=1, popped=0, "
           "pushed=(0,))"),
    (EvalOutcome.undefined(),
     "EvalOutcome(status='undefined', word=None, up=None, certificate=None)"),
    (erase_up(UPWord((), (0, 1, Eraser(1)))),
     "EvalOutcome(status='infinite', word=None, "
     "up=UPWord(prefix=(), period=(0,)), certificate=" + repr(CERT) + ")"),
    (decode("0ab"), "DecodeResult(symbols=(0,), dangling='ab')"),
    (factorize("0aba11"), "Factorization(count=1, cuts=(0, 5, 6))"),
    (lasso_member(UPWord("", "01"), 8),
     "LassoVerdict(status='yes', loop_start=0, loop_length=2, "
     "factor_cuts=(0, 2), bound=None)"),
]


@pytest.mark.parametrize("record, text", RECORDS)
def test_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, _", RECORDS)
def test_pickle_and_deepcopy_round_trip(record, _):
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert twin == record and type(twin) is type(record)
        assert hash(twin) == hash(record)


@pytest.mark.parametrize("record, _", RECORDS)
def test_fields_are_read_only(record, _):
    field = "index" if isinstance(record, Eraser) else record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_named_tuples_keep_defaults_and_helpers():
    assert EvalOutcome("finite", word=(0,)) == EvalOutcome.finite((0,))
    assert EvalOutcome.finite(()).is_finite
    assert LassoVerdict("no") == ("no", None, None, None, None)
    assert DecodeResult((0,), "") == ((0,), "")
    assert Factorization(0, None).cuts is None


def test_constructors_still_reject_malformed_values():
    with pytest.raises(MalformedInput):
        Eraser(0)
    with pytest.raises(MalformedInput):
        UPWord("0", "")
    with pytest.raises(MalformedInput):
        UPWord("0", (0,))


def test_eraser_is_not_a_tuple():
    assert Eraser(1) != (1,) and (1,) != Eraser(1)
    assert Eraser(1) != 1
    assert Eraser(1) == Eraser(1) and Eraser(1) != Eraser(2)
    assert Eraser(3) is Eraser(3)
    assert {(0, Eraser(1)), (0, Eraser(1))} == {(0, Eraser(1))}


def test_cli_import_leaves_dataclasses_out():
    code = ("import sys, eraserlang.cli; "
            "print('dataclasses' in sys.modules)")
    src = str(Path(eraserlang.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert done.stdout == "False\n"
