import sys
from itertools import chain, product

import pytest
from hypothesis import given, settings, strategies as st

from eraserlang import (
    Eraser,
    MalformedInput,
    encode,
    min_stages,
    parse_staged,
    vanishes,
    vanishes_by_grammar,
    vanishes_coded,
    vanishing_words,
    words_over,
)
from eraserlang.staged import _rank_key

from oracles import grammar_loop, min_stages_brute, pipeline, vanishes_brute

E1, E2, E3, E4 = Eraser(1), Eraser(2), Eraser(3), Eraser(4)


# ----------------------------------------------------------- the grammar

def test_grammar_examples():
    assert vanishes_by_grammar(parse_staged("0 E1"))
    assert vanishes_by_grammar(())
    assert not vanishes_by_grammar(parse_staged("E1 0"))
    assert not vanishes_by_grammar(parse_staged("0 1 E1"))
    assert vanishes_by_grammar(parse_staged("0 1 E1 E1"))


def test_grammar_rejects_foreign_indices():
    # in all but the first word the prefix before the foreign index is
    # already no member: the index is checked all the same
    for word in [(0, E2), (E1, E2), (0, E1, E1, E3), (1, 0, E4)]:
        with pytest.raises(MalformedInput, match="outside the one-stage"):
            vanishes_by_grammar(word)


def test_grammar_agrees_with_pipeline():
    for length in range(9):
        for word in product([0, 1, E1], repeat=length):
            assert vanishes_by_grammar(word) == (pipeline(word, 1) == ())


def _outcome(decide, word):
    """The answer, or the type and text of what was raised."""
    try:
        return decide(word)
    except Exception as exc:
        return type(exc), str(exc)


def test_grammar_answers_as_the_loop_on_every_short_word():
    for length in range(8):
        for word in product([0, 1, E1, E2], repeat=length):
            assert _outcome(vanishes_by_grammar, word) == \
                _outcome(grammar_loop, word), word


@pytest.mark.parametrize("foreign", [E2, E3, E4])
def test_grammar_refused_shapes_still_raise_on_a_foreign_index(foreign):
    # odd length, ends in a letter, starts with E1, ends in E2
    shapes = [(0, 1, E1, 0, E1), (0, E1, 1, E1, 0, 1), (E1, 0, 1, E1, 0, E1),
              (0, 1, E1, E1, 0, E2)]
    for word in shapes:
        for at in (0, len(word) // 2, len(word) - 1):
            bad = word[:at] + (foreign,) + word[at + 1:]
            first = next(s for s in bad if type(s) is Eraser and s.index > 1)
            expected = (MalformedInput, f"eraser index {first.index} is "
                        "outside the one-stage alphabet")
            assert _outcome(grammar_loop, bad) == expected
            assert _outcome(vanishes_by_grammar, bad) == expected, bad


@pytest.mark.parametrize("item", [2, "0", None, [], 1.0, True])
def test_grammar_reads_other_items_as_the_loop_does(item):
    # the loop counts every item that is no eraser as a letter; an
    # unhashable one makes the alphabet check raise, and the loop decides
    for length in range(5):
        for word in product([0, E1, E2, item], repeat=length):
            assert _outcome(vanishes_by_grammar, word) == \
                _outcome(grammar_loop, word), word


# ------------------------------------------------------------ membership

def test_vanishes_examples():
    assert vanishes(parse_staged("0 E1"), 1)
    assert vanishes(parse_staged("E2 E1"), 2)
    assert not vanishes(parse_staged("0 E1 E2"), 2)


def test_out_of_alphabet_indices_are_nonmembers_not_errors():
    assert not vanishes((0, E2), 1)
    assert not vanishes((E3, E1), 2)


def test_vanishes_validates_stage_count():
    with pytest.raises(ValueError):
        vanishes((), 0)


def test_empty_word_is_in_every_language():
    assert all(vanishes((), k) for k in range(1, 6))


def test_vanishes_agrees_with_brute_pipeline():
    # lengths 6 and 7 hold words that use three stages, at the stage
    # counts that cover them; the shorter words also meet the bound
    for word in words_over(3, 7):
        for k in range(1 if len(word) <= 5 else 3, 5):
            assert vanishes(word, k) == vanishes_brute(word, k)


def test_end_symbol_refusal_holds_by_brute_force():
    # the rule itself, checked on the oracle alone: a word ending in a
    # letter or starting with E1 never vanishes; k = 3 covers every
    # index of these words, and membership is monotone in k
    refused = [w for w in words_over(3, 6)
               if w and (not isinstance(w[-1], Eraser) or w[0] == E1)]
    assert len(refused) == 10156  # of 19,531
    for word in refused:
        assert not vanishes_brute(word, 3)
        assert min_stages_brute(word) is None


def test_end_symbol_refusal_runs_no_pass(monkeypatch):
    # even words that show a second index early, so without the refusal
    # they reach the pipeline
    def no_pass(*args):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr("eraserlang.eraser._stages", no_pass)
    body = (0, E2, 0, E1) * 10 ** 5
    for word in [body + (E2, 1), (E1,) + body + (E2,)]:
        assert len(word) % 2 == 0
        assert not vanishes(word, 2)
        assert min_stages(word) is None


_ALPHABET4 = [0, 1, E1, E2, E3, E4]
# concatenations of members are members, so these reach long words
# that vanish; one symbol changed makes near misses of them
_members = st.lists(st.sampled_from(vanishing_words(4, 6)), max_size=6).map(
    lambda ws: tuple(chain.from_iterable(ws)))


@st.composite
def _near_misses(draw):
    w = list(draw(_members.filter(bool)))
    w[draw(st.integers(0, len(w) - 1))] = draw(st.sampled_from(_ALPHABET4))
    return tuple(w)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(_ALPHABET4), max_size=40).map(tuple),
                 _members, _near_misses()))
def test_vanishes_and_coded_agree_with_brute_pipeline(word):
    for k in range(1, 5):
        assert vanishes(word, k) == vanishes_brute(word, k)
    assert vanishes_coded(encode(word)) == vanishes_brute(word, 4)


# ----------------------------------------------------------- enumeration

def test_vanishing_words_pinned_lists():
    assert vanishing_words(1, 2) == [(), (0, E1), (1, E1)]
    assert vanishing_words(2, 2) == [
        (), (0, E1), (0, E2), (1, E1), (1, E2), (E2, E1)]
    assert vanishing_words(1, 0) == [()]
    assert vanishing_words(1, -1) == []


@pytest.mark.parametrize("k, max_len", [(1, 8), (2, 6), (3, 5), (4, 4)])
def test_vanishing_words_order_and_completeness(k, max_len):
    alphabet = [0, 1] + [Eraser(j) for j in range(1, k + 1)]
    expected = [w for length in range(max_len + 1)
                for w in product(alphabet, repeat=length)
                if vanishes_brute(w, k)]
    assert vanishing_words(k, max_len) == expected


@pytest.mark.parametrize("top", [sys.maxunicode - 1])
def test_rank_key_orders_the_highest_indices(top):
    """The rank of Eraser(top) is top + 1: the last code point."""
    erasers = [Eraser(top), Eraser(top - 1), Eraser(1)]
    words = [(x, y) for x in [1, 0] + erasers for y in erasers + [1, 0]]
    alphabet = [0, 1, erasers[2], erasers[1], erasers[0]]
    expected = sorted(words, key=lambda w: [alphabet.index(s) for s in w])
    assert sorted(words, key=_rank_key) == expected


def test_vanishing_words_validates_stage_count():
    with pytest.raises(ValueError):
        vanishing_words(0, 4)


def test_vanishing_words_share_one_eraser_per_index():
    erasers = [s for w in vanishing_words(50, 2) for s in w
               if isinstance(s, Eraser)]
    assert len({id(s) for s in erasers}) == len({s.index for s in erasers})


# ----------------------------------------------------------- chain shape

def test_languages_grow_with_the_stage_count():
    for k in (1, 2):
        members = vanishing_words(k, 6)
        assert all(vanishes(w, k + 1) for w in members)
        witness = (0, Eraser(k + 1))
        assert vanishes(witness, k + 1) and not vanishes(witness, k)


def test_members_have_even_length():
    assert all(len(w) % 2 == 0 for w in vanishing_words(4, 8))


def test_one_stage_members_pair_erasers_with_letters():
    for w in vanishing_words(1, 8):
        erasers = sum(1 for s in w if isinstance(s, Eraser))
        assert len(w) == 2 * erasers


def test_higher_stages_allow_eraser_heavy_members():
    # four erasers in six symbols: an eraser can erase a higher one
    w = (0, 0, E2, E2, E1, E2)
    assert vanishes(w, 2)
    erasers = sum(1 for s in w if isinstance(s, Eraser))
    assert len(w) != 2 * erasers


def test_a_late_second_index_rescues_a_starved_eraser():
    # the second E2 starves against E2 alone, but stage 1 pops it first
    w = (0, E2, E2, E1)
    assert vanishes(w, 2) and not vanishes(w, 1)
    assert min_stages(w) == 2
    assert not vanishes((E2, E2, E1), 3)
    # with one index the starved eraser is final, letters after it or not
    for w in [(E1, 0), (0, E1, E1, 0)]:
        assert not vanishes(w, 1)
        assert min_stages(w) is None


# ---------------------------------------------------------- least stages

def test_min_stages_examples():
    assert min_stages(parse_staged("0 E1")) == 1
    assert min_stages(parse_staged("E2 E1")) == 2
    assert min_stages(parse_staged("0 E1 E2")) is None
    assert min_stages(()) == 1


def test_min_stages_agrees_with_brute_search():
    for word in words_over(3, 5):
        assert min_stages(word) == min_stages_brute(word, kmax=5)
