import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from eraserlang import (
    Eraser,
    LoopCertificate,
    MalformedInput,
    UPWord,
    certificate_holds,
    erase,
    erase_up,
    parse_staged,
    parse_up,
    staged_erase,
    staged_erase_up,
    up_prefix,
)

from oracles import pipeline, single_pass, take


def sup(text):
    return parse_up(text, kind="staged")


def short_up_words(alphabet):
    """Every word with a prefix of at most 3 and a period of 1 to 3
    symbols over the alphabet."""
    for m in range(4):
        for prefix in product(alphabet, repeat=m):
            for n in range(1, 4):
                for period in product(alphabet, repeat=n):
                    yield UPWord(prefix, period)


# -------------------------------------------------- single eraser, finite

def test_erase_finite_examples():
    assert erase(parse_staged("0 E1")).word == ()
    assert erase(parse_staged("E1")).is_undefined
    assert erase(parse_staged("0 1 E1")).word == (0,)


def test_erase_uses_the_words_own_eraser_kind():
    # the one-eraser map does not care which index the word uses
    assert erase((0, Eraser(2))).word == ()
    assert erase((Eraser(3),)).is_undefined


def test_erase_rejects_mixed_kinds():
    text = r"^word mixes eraser kinds \[1, 2\], expected one$"
    with pytest.raises(MalformedInput, match=text):
        erase((0, Eraser(2), Eraser(1)))


@given(st.integers(1, 3).flatmap(lambda j: st.tuples(
    st.just(j), st.lists(st.sampled_from([0, 1, Eraser(j)]), max_size=12))))
def test_erase_agrees_with_stack_oracle(case):
    j, symbols = case
    word = tuple(symbols)
    out = erase(word)
    ref = single_pass(word, j)
    if ref is None:
        assert out.is_undefined
    else:
        assert out.word == ref


@given(st.lists(st.sampled_from([0, 1, Eraser(1)]), max_size=12))
def test_erase_length_bookkeeping(symbols):
    # every eraser of a defined evaluation removes itself and one letter
    word = tuple(symbols)
    out = erase(word)
    if out.is_finite:
        erasers = sum(1 for s in word if isinstance(s, Eraser))
        assert len(out.word) == len(word) - 2 * erasers


# ------------------------------------------------ single eraser, infinite

def test_erase_up_paper_examples():
    assert erase_up(sup("|0 E1")).word == ()
    out = erase_up(sup("|0 1 E1"))
    assert out.is_infinite and out.up == UPWord((), (0,))
    assert erase_up(sup("1 1|E1 0")).word == (1,)
    assert erase_up(sup("E1|0 E1")).is_undefined
    assert erase_up(sup("0 E1 E1|0")).is_undefined


def test_erase_up_certificate_replays():
    for text in ["|0 1 E1", "|1 0 E1 1", "0|1 E1 0 0", "|1 1 E1"]:
        out = erase_up(sup(text))
        assert out.is_infinite
        assert certificate_holds(sup(text), out.certificate)


def _truncation_outcomes(x, lo, hi):
    base = len(x.prefix)
    step = len(x.period)
    return [single_pass(take(x, base + m * step)) for m in range(lo, hi)]


def test_finite_truncations_stabilize_with_fixed_tail():
    # Truncating an evaluation that converges to f yields f plus the
    # period's pushed letters: a constant word that extends f, not f
    # itself.  bb(Ea)^omega evaluates to b while every truncation
    # evaluates to ba.
    x = sup("1 1|E1 0")
    assert erase_up(x).word == (1,)
    outs = _truncation_outcomes(x, 1, 50)
    assert all(out == (1, 0) for out in outs)


def test_truncation_coherence_random_words():
    rng = random.Random(7)
    alphabet = [0, 1, Eraser(1)]
    random_words = []
    for _ in range(150):
        prefix = tuple(rng.choice(alphabet)
                       for _ in range(rng.randrange(0, 4)))
        period = tuple(rng.choice(alphabet)
                       for _ in range(rng.randrange(1, 5)))
        random_words.append(UPWord(prefix, period))
    for x in random_words + list(short_up_words(alphabet)):
        out = erase_up(x)
        outs = _truncation_outcomes(x, 30, 50)
        if out.is_undefined:
            assert None in _truncation_outcomes(x, 0, 50)
        elif out.is_finite:
            assert all(o == outs[0] for o in outs)
            assert outs[0][:len(out.word)] == out.word
        else:
            assert certificate_holds(x, out.certificate)
            # all but the top |period| stack symbols are permanent
            for res in outs:
                keep = max(0, len(res) - len(x.period))
                assert res[:keep] == take(out.up, keep)
            for shorter, longer in zip(outs, outs[1:]):
                assert len(shorter) < len(longer)


def test_certificate_holds_rejects_non_witnesses():
    # each replays literally, but no loop of them makes the stack grow
    x = sup("|0 E1")
    assert erase_up(x).word == ()
    for cert in [(0, 1, 0, ()), (0, 0, 0, ()), (-1, 1, 0, ()),
                 (0, -1, 0, ()), (-1, 0, 0, ())]:
        assert not certificate_holds(x, LoopCertificate(*cert))
    y = sup("1|E1 1")
    assert erase_up(y).word == ()
    assert not certificate_holds(y, LoopCertificate(0, 1, 1, (1,)))
    z = sup("|0 1 E1")
    assert certificate_holds(z, erase_up(z).certificate)
    assert not certificate_holds(z, LoopCertificate(0, 0, 0, ()))


def loop_effect(x, warmup, loops, j):
    """(popped, pushed) of loops periods run after the prefix and warmup
    periods, read off the stacks of the unrolled truncations; None when
    one of them starves."""
    start = len(x.prefix) + warmup * len(x.period)
    stacks = [single_pass(take(x, t), j)
              for t in range(start, start + loops * len(x.period) + 1)]
    if None in stacks:
        return None
    low = min(map(len, stacks))
    return len(stacks[0]) - low, stacks[-1][low:]


def replay_holds(x, cert, j):
    """A certificate holds iff its loop runs, grows the stack, and
    matches the literal effect of its periods."""
    if cert.warmup_periods < 0 or cert.loop_periods < 1:
        return False
    return (len(cert.pushed) > cert.popped
            and loop_effect(x, cert.warmup_periods, cert.loop_periods, j)
            == (cert.popped, cert.pushed))


@pytest.mark.parametrize("j", [1, 2])
def test_certificate_replay_matches_unrolled_truncations(j):
    verdicts = set()
    for x in short_up_words([0, 1, Eraser(j)]):
        out = erase_up(x)
        if out.is_infinite:
            cert = out.certificate
            assert certificate_holds(x, cert)
        else:
            # the period's effect on a stack deep enough for it
            deep = UPWord((0,) * len(x.period), x.period)
            cert = LoopCertificate(0, 1, *loop_effect(deep, 0, 1, j))
        popped, pushed = cert.popped, cert.pushed
        for c in [cert, cert._replace(popped=popped + 1),
                  cert._replace(popped=popped - 1),
                  cert._replace(pushed=pushed[:-1]),
                  cert._replace(pushed=pushed + (0,)),
                  cert._replace(warmup_periods=cert.warmup_periods + 1),
                  cert._replace(loop_periods=2)]:
            verdict = certificate_holds(x, c)
            assert verdict == replay_holds(x, c, j), (x, c)
            verdicts.add(verdict)
    assert verdicts == {True, False}


# ------------------------------------------------------------ staged mode

def test_staged_erase_examples():
    assert staged_erase(parse_staged("E2 E1"), 2).word == ()
    assert staged_erase(parse_staged("0 E1 E2"), 2).is_undefined
    assert staged_erase(parse_staged("0 1 E1 E2"), 2).word == ()


def test_staged_erase_rejects_out_of_range_indices():
    with pytest.raises(MalformedInput):
        staged_erase(parse_staged("0 E2"), 1)
    with pytest.raises(ValueError):
        staged_erase((), 0)


def test_stage_order_is_low_index_first():
    # stage one pops the letter, leaving the higher eraser to starve
    assert staged_erase(parse_staged("0 E1 E2"), 2).is_undefined


def test_staged_erase_matches_the_pipeline_on_every_short_word():
    alphabet = [0, 1, Eraser(1), Eraser(2), Eraser(3)]
    for n in range(7):
        for word in product(alphabet, repeat=n):
            out = staged_erase(word, 3)
            ref = pipeline(word, 3)
            assert (out.word == ref if ref is not None
                    else out.is_undefined), word


@pytest.mark.parametrize("text, stage_three", [
    # stage 1 pops 0 and E2, leaving E3 first, on an empty stack
    ("E3 1 0 E2 E1 E1", ("E3", "1")),
    # stage 3 pops 0 and then finds nothing for its last eraser
    ("0 1 E2 E3 E1 E3 E3", ("0", "E3", "E3")),
])
def test_staged_erase_starves_at_either_end_of_stage_three(text, stage_three):
    word = parse_staged(text)
    assert pipeline(word, 2) == parse_staged(" ".join(stage_three))
    assert pipeline(word, 3) is None
    assert staged_erase(word, 3).is_undefined


@given(st.lists(st.sampled_from(
    [0, 1, Eraser(1), Eraser(2), Eraser(3)]), max_size=9))
def test_staged_finite_results_have_no_erasers(symbols):
    out = staged_erase(tuple(symbols), 3)
    if out.is_finite:
        assert all(not isinstance(s, Eraser) for s in out.word)


def test_staged_erase_up_examples():
    out = staged_erase_up(sup("|1 0 E1"), 1)
    assert out.is_infinite and out.up == UPWord((), (1,))
    out = staged_erase_up(sup("|0 1 E1"), 1)
    assert out.is_infinite and out.up == UPWord((), (0,))
    assert staged_erase_up(sup("|E1 0"), 1).is_undefined


def test_staged_erase_up_runs_every_stage():
    # one period supplies material for both stages
    out = staged_erase_up(sup("|0 0 E2 1 E1"), 2)
    assert out.is_infinite and out.up == UPWord((), (0,))
    # stage one eats the high eraser itself, so the zeros pile up
    out = staged_erase_up(sup("|0 E2 E1"), 2)
    assert out.is_infinite and out.up == UPWord((), (0,))
    # a period that cleans up after itself leaves just the prefix
    assert staged_erase_up(sup("1|0 E2 E1 E1"), 2).word == (1,)


def settled_stage_one(x, periods=30, window=20):
    """What stage 1 keeps for good of the first symbols of x, cut after
    at least ``periods`` periods where its stack never gets lower again
    within ``window`` more; None when stage 1 starves on them.

    A cut at a period's end can leave an E2 on top that the next
    period's E1 pops: 0 (E1 E2)^omega evaluates to the empty word, yet
    stage 2 starves on every such truncation.
    """
    word = take(x, len(x.prefix) + (periods + window) * len(x.period))
    heights = []
    for t in range(len(word)):
        stack = single_pass(word[:t + 1])
        if stack is None:
            return None
        heights.append(len(stack))
    start = len(x.prefix) + periods * len(x.period)
    cut = next(t for t in range(start, len(word))
               if heights[t] == min(heights[t:]))
    return single_pass(word[:cut + 1])


def test_settled_stage_one_cuts_past_a_passing_eraser():
    x = sup("0|E1 E2")
    assert staged_erase_up(x, 2).word == ()
    assert pipeline(take(x, 41), 2) is None
    assert single_pass(settled_stage_one(x), 2) == ()


def test_staged_erase_up_matches_truncations():
    rng = random.Random(11)
    alphabet = [0, 1, Eraser(1), Eraser(2)]
    for _ in range(100):
        period = tuple(rng.choice(alphabet)
                       for _ in range(rng.randrange(1, 5)))
        # the empty prefix, then prefixes of 1 to 4 symbols, which
        # stage 1 runs as a finite word
        for m in range(5):
            x = UPWord(tuple(rng.choice(alphabet) for _ in range(m)),
                       period)
            out = staged_erase_up(x, 2)
            kept = settled_stage_one(x)
            ref = None if kept is None else single_pass(kept, 2)
            if out.is_undefined:
                assert ref is None, x
            elif out.is_finite:
                assert ref is not None and ref[:len(out.word)] == out.word
            else:
                assert ref is not None
                probe = min(len(ref), 10)
                assert ref[:probe] == take(out.up, probe), x
