"""Stages above the highest eraser index change nothing.

staged_erase_up runs only stage 1, the stages of the erasers that occur
in the word and one stage standing for all the others above them.  Its
outcomes, certificates included, must equal those of running every
stage, which this file does stage by stage: while the outcome stays
ultimately periodic a stage runs through the library's _erase_up_stage,
and once it is finite through oracles.single_pass.
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from eraserlang import Eraser, MalformedInput, UPWord, staged_erase_up
from eraserlang.cli import main
from eraserlang.eraser import EvalOutcome, _erase_up_stage

from oracles import single_pass

symbols = [0, 1, Eraser(1), Eraser(2), Eraser(3), Eraser(4)]
# a gap: Eraser(3) and Eraser(4) but never Eraser(2)
gapped = [0, 1, Eraser(1), Eraser(3), Eraser(4)]
up_words = st.sampled_from([symbols, gapped]).map(st.sampled_from).flatmap(
    lambda sym: st.builds(UPWord,
                          st.lists(sym, max_size=6).map(tuple),
                          st.lists(sym, min_size=1, max_size=6).map(tuple)))


def top_index(x):
    return max((s.index for s in x.prefix + x.period
                if isinstance(s, Eraser)), default=0)


def every_stage(x, stages):
    """The pipeline with all stages 1..stages run, one after another."""
    word, up, cert = None, x, None
    for j in range(1, stages + 1):
        if up is not None:
            out = _erase_up_stage(up, j)
        else:
            stack = single_pass(word, j)
            out = (EvalOutcome.undefined() if stack is None
                   else EvalOutcome.finite(stack))
        if out.is_undefined:
            return out
        if out.is_infinite:
            up, word, cert = out.up, None, out.certificate
        else:
            up, word = None, out.word
    if up is not None:
        return EvalOutcome.infinite(up, cert)
    return EvalOutcome.finite(word)


@settings(max_examples=200, deadline=None)
@given(up_words)
def test_stages_above_the_top_index_change_nothing(x):
    # stage 1 normalizes the input, so it counts as used even when the
    # word has no eraser: UPWord((), (0, 0)) leaves it with a two-letter
    # certificate and any later stage with a one-letter one
    top = max(top_index(x), 1)
    settled = staged_erase_up(x, top + 1)
    for k in range(top + 2, top + 8):
        assert staged_erase_up(x, k) == settled


@settings(max_examples=200, deadline=None)
@given(up_words, st.integers(0, 3))
def test_skipping_matches_every_stage(x, extra):
    stages = max(top_index(x), 1) + extra
    assert staged_erase_up(x, stages) == every_stage(x, stages)


def test_huge_stage_count_costs_nothing(capsys):
    t0 = time.perf_counter()
    out = staged_erase_up(UPWord((0,), (1,)), 10 ** 9)
    elapsed = time.perf_counter() - t0
    assert out == every_stage(UPWord((0,), (1,)), 3)
    assert elapsed < 0.1
    t0 = time.perf_counter()
    code = main(["member", "r-approx", "|0", "--p", "1000000000"])
    elapsed = time.perf_counter() - t0
    assert (code, capsys.readouterr().out) == (0, "false\n")
    assert elapsed < 0.1


def test_out_of_range_message_names_the_highest_index():
    x = UPWord((0, Eraser(2)), (Eraser(3), 1))
    with pytest.raises(MalformedInput, match="index 3 exceeds stage bound 1"):
        staged_erase_up(x, 1)
