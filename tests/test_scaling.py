"""Deep words, large stage counts and many queries stay cheap.

The deciders keep no state between calls and recurse nowhere, so their
cost follows the word alone: nesting depth does not touch the
interpreter's recursion limit, stages without an eraser in the word
cost nothing, and a run of queries leaves no memory behind.  The
enumerations build only words that fit the length asked for, so a huge
stage count costs nothing when no eraser fits.
"""

import gc
import os
import random
import subprocess
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path

import pytest

import eraserlang
from eraserlang import coding
from eraserlang import (
    Eraser,
    MalformedInput,
    UPWord,
    decode,
    factorize,
    format_staged,
    is_factor,
    lasso_member,
    pairing_consistent,
    parse_staged,
    staged_erase,
    staged_erase_up,
    vanishes,
    vanishes_by_grammar,
    vanishes_coded,
    viable_prefix,
)
from eraserlang.cli import main

from opcodes import count_opcodes

E1, E2, E3 = Eraser(1), Eraser(2), Eraser(3)


def test_grammar_decides_deep_nesting_without_recursion():
    depth = 3000
    assert depth > sys.getrecursionlimit() // 2
    member = (0,) * depth + (E1,) * depth
    assert vanishes_by_grammar(member)
    assert vanishes(member, 1)
    assert not vanishes_by_grammar(member[:-1])
    assert not vanishes_by_grammar((0,) + member[1:] + (E1,))


# a word of about 2h symbols in each shape the grammar decider refuses
REFUSED = {
    "odd length": lambda h: (0,) * (h + 1) + (E1,) * h,
    "ends in a letter": lambda h: (0,) * h + (E1,) * (h - 1) + (1,),
    "starts with E1": lambda h: (E1,) + (0,) * h + (E1,) * (h - 1),
}


@pytest.mark.parametrize("shape", sorted(REFUSED))
def test_grammar_refuses_by_shape_in_opcodes_that_do_not_grow(shape):
    # the per-symbol loop would run about 17 opcodes a symbol; a refused
    # word runs one alphabet check at C speed instead
    short, long = (REFUSED[shape](h) for h in (5, 50_000))
    assert not vanishes_by_grammar(short) and not vanishes_by_grammar(long)
    assert count_opcodes(vanishes_by_grammar, short) == \
        count_opcodes(vanishes_by_grammar, long)


def test_vanishes_decides_a_long_nested_member_at_once():
    m = 16667
    # stage 1 pops the inner 0s, stage 2 the E3s, stage 3 the outer 0s
    member = ((0,) * m + (E3,) * m + (0,) * m + (E1,) * m + (E2,) * m
              + (E3,) * m)
    assert len(member) > 10 ** 5
    t0 = time.perf_counter()
    assert vanishes(member, 3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1
    assert not vanishes(member[:-1], 3)
    # odd, so refused before any stage runs
    assert not vanishes(member[:-1] + (0, E3), 3)
    # even, so every stage runs, and stage 3 is left with two letters
    assert not vanishes(member[:-1] + (0,), 3)


def _timed(query, text):
    """query(text), or MalformedInput's (message, position), and the
    seconds it took."""
    t0 = time.perf_counter()
    try:
        out = query(text)
    except MalformedInput as exc:
        out = (str(exc), exc.position)
    return out, time.perf_counter() - t0


def test_coded_queries_read_a_million_letters_at_once():
    n = 10 ** 6
    # 100,000 short factors, then one whose pad nests 125,000 deep
    stream = "0aba1" * 100_000 + "0" * 125_000 + "aba" * 125_000 + "1"
    cuts = (0,) + tuple(range(5, 500_001, 5)) + (len(stream),)
    dangling, broken = "a" + "b" * n, "a" + "b" * n + "0"
    foreign = "0" * n + "x"
    want = {
        stream: (((0, E1, 1) * 100_000 + (0,) * 125_000 + (E1,) * 125_000
                  + (1,), ""), (1, cuts), True),
        dangling: (((), dangling), (0, None), True),
        broken: ((f"malformed code at position {n + 2}", n + 2),
                 (0, None), False),
        foreign: ((f"unexpected character 'x' at position {n + 1}", n + 1),
                  (0, None), False),
    }
    for text, (decoded, factors, viable) in want.items():
        for query, expected in ((decode, decoded), (factorize, factors),
                                (viable_prefix, viable)):
            out, elapsed = _timed(query, text)
            assert out == expected, (query.__name__, text[:20])
            assert elapsed < 2, (query.__name__, text[:20], elapsed)


def _peak_bytes(query, text):
    """The traced peak of query(text), in bytes."""
    tracemalloc.start()
    try:
        query(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_coded_text_is_matched_without_a_frame_per_token():
    # a backtracking match keeps about 160 bytes a token, 78 MB here;
    # the possessive one keeps nothing, and decode holds its symbols
    text = "0aba" * 250_000 + "1"
    assert _peak_bytes(coding._SCAN.match, text) < 100_000
    assert _peak_bytes(decode, text) < 40_000_000


def test_coded_queries_hold_one_list_per_word():
    # a query keeps its token list and nothing per token beside it
    text = "0aba" * 100_000 + "1"
    for query, word in ((factorize, text), (is_factor, text),
                        (vanishes_coded, text[:-1])):
        tokens = _peak_bytes(coding._tokenize, word)
        assert _peak_bytes(query, word) <= 1.1 * tokens, query.__name__


def test_coded_stages_make_no_object_per_code():
    # three indices, so three stages run; a stage stacks each code token
    # as the one copy of its code, and each letter as its token, or as
    # its position in factorize, whose cuts need it (1.5x with positions
    # for every token)
    text = "0abbbaabbaaba" * 30_000 + "1"
    for query, word in ((factorize, text), (is_factor, text),
                        (vanishes_coded, text[:-1])):
        tokens = _peak_bytes(coding._tokenize, word)
        assert _peak_bytes(query, word) <= 1.4 * tokens, query.__name__


def test_staged_evaluation_holds_symbols_not_positions():
    # the word tuple alone is 800,000 bytes; a stage stacks the symbols
    # themselves and makes no object per symbol
    word = (0, E2, 1, E1) * 25_000 + (1,)
    assert _peak_bytes(partial(staged_erase, stages=2), word) < 800_000
    assert _peak_bytes(partial(vanishes, stages=2), word[:-1]) < 800_000
    # the parser holds one eraser per index, not one per token
    assert _peak_bytes(parse_staged, format_staged(word)) < 2_000_000


def test_staged_up_evaluation_keeps_one_copy_of_the_prefix():
    # stage 1 keeps 50,002 of the prefix's 100,002 symbols, a 400 kB
    # list that becomes a tuple of the same size; the list must go as
    # soon as the tuple stands, or stage 2 runs beside both
    x = UPWord((0, E2, 1, E1) * 25_000 + (0, 1), (1, 0, E1))
    assert _peak_bytes(partial(staged_erase_up, stages=2), x) <= 950_000


def test_viable_prefix_reads_one_character_per_token():
    # 2,000 distinct codes, about 2 * 10^6 letters: a pass per distinct
    # code would read the word 2,000 times
    text = "".join("0a" + "b" * j + "a" for j in range(1, 2001))
    viable, elapsed = _timed(viable_prefix, text)
    assert viable and elapsed < 0.1, elapsed
    # 200,001 tokens: a list of them holds 1.6 MB of pointers, the kinds
    # one byte each
    assert _peak_bytes(viable_prefix, "0aba" * 10 ** 5 + "1") <= 400_000


def test_lasso_tries_only_where_a_stream_can_end():
    # no 1 in the word, so no loop start past 0 and no loop end is a
    # cut; trying each pair factorized about 3,000 prefixes
    for x, bound in ((UPWord("", "0"), 3000), (UPWord("", "0aba"), 2000)):
        out, elapsed = _timed(partial(lasso_member, bound=bound), x)
        assert out.status == "unknown" and out.bound == bound
        assert elapsed < 0.1, (x, elapsed)


def test_pairing_builds_only_the_factors_that_nu_reaches():
    # the fourth block asks for factor 10^6, which nu ends before
    sigma = "01" * 3 + "0" * 10 ** 6 + "1"
    query = partial(pairing_consistent, sigma)
    out, elapsed = _timed(query, "0101")
    assert out is True and elapsed < 0.1, elapsed
    assert _peak_bytes(query, "0101") < 1_000_000


def test_stages_without_erasers_cost_nothing():
    t0 = time.perf_counter()
    out = staged_erase((0,), 10 ** 6)
    elapsed = time.perf_counter() - t0
    assert out.is_finite and out.word == (0,)
    assert elapsed < 0.1


def test_cli_stage_count_costs_nothing(capsys):
    t0 = time.perf_counter()
    code = main(["staged-erase", "0", "--k", "1000000"])
    elapsed = time.perf_counter() - t0
    assert (code, capsys.readouterr().out) == (0, "finite: 0\n")
    assert elapsed < 0.1


def test_cli_erase_up_absorbs_a_long_prefix_at_once(capsys):
    # the prefix is 200 copies of the period, all absorbed by normalizing
    period = " ".join(["1"] + ["0"] * 1000)
    t0 = time.perf_counter()
    code = main(["erase", "--up", " ".join([period] * 200) + "|" + period])
    elapsed = time.perf_counter() - t0
    assert (code, capsys.readouterr().out) == (0, f"infinite: |{period}\n")
    assert elapsed < 1


def _query_everything(coded, staged):
    for w in coded:
        factorize(w)
        is_factor(w)
        viable_prefix(w)
        vanishes_coded(w)
    for w in staged:
        vanishes_by_grammar(w)


def test_queries_retain_no_memory():
    rng = random.Random(2024)
    # lengths past every exhaustive sweep of the suite, so that no
    # earlier test has seen these words
    coded = list({"".join(rng.choice("01ab") for _ in range(12))
                  for _ in range(10_000)})
    staged = list({tuple(rng.choice((0, 1, E1)) for _ in range(12))
                   for _ in range(10_000)})
    assert len(coded) + len(staged) > 19_000
    _query_everything(coded[:100], staged[:100])
    gc.collect()
    before = sys.getallocatedblocks()
    _query_everything(coded, staged)
    gc.collect()
    assert sys.getallocatedblocks() - before < 500


def test_cli_huge_stage_count_lists_erasers_lazily(capsys):
    t0 = time.perf_counter()
    code = main(["enumerate", "lk", "--k", "1000000", "--max-len", "1"])
    elapsed = time.perf_counter() - t0
    assert (code, capsys.readouterr().out) == (0, "\n")
    assert elapsed < 0.5


def test_cold_enumeration_reaches_a_far_index():
    # a fresh interpreter, so no row is built before the call
    code = ("from eraserlang import nth_factor; "
            "print(nth_factor(16000))")
    src = str(Path(eraserlang.__file__).parents[1])
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    elapsed = time.perf_counter() - t0
    assert done.stdout == "00000000aba0000001\n"
    assert elapsed < 2


def test_factor_rows_are_kept_packed():
    # a fresh interpreter, so the rows are built under the trace; the
    # factor rows up to 20 letters hold 111,865 factors, built from
    # 10,027 pads: one string a row, of pads or of factors, keeps about
    # 2.3 MB; one string object a pad would keep 2.9 MB, and one a
    # factor as well 9.2 MB
    code = ("import gc, tracemalloc; import eraserlang.omega as omega; "
            "tracemalloc.start(); omega.factor_words(20); gc.collect(); "
            "print(tracemalloc.get_traced_memory()[0])")
    src = str(Path(eraserlang.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert int(done.stdout) < 2_500_000


def test_cli_enumerates_long_factors_from_the_rows():
    # a fresh interpreter, as a shell user runs it; the timeout turns a
    # blow-up into a failure instead of a hang
    src = str(Path(eraserlang.__file__).parents[1])
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "eraserlang.cli", "enumerate", "hv",
         "--max-len", "16"],
        capture_output=True, text=True, check=True, timeout=10,
        env=dict(os.environ, PYTHONPATH=src))
    elapsed = time.perf_counter() - t0
    assert len(done.stdout.splitlines()) == 8304
    assert elapsed < 2
