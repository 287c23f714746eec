"""The factor language is a code, checked by brute force and by
Sardinas-Patterson.

factorize reads its one decomposition off a single pipeline run, so it
cannot report two; the oracle here counts every split into
(pad 0)* (pad 1) factors instead.  It has its own literal decoder,
decides pads with oracles.pipeline and uses nothing of the omega module.
Sardinas-Patterson reads only the listing of the factors, and decides
for concatenations of any length that each slice of it is a code.
"""

import re
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from eraserlang import (Eraser, factor_words, factorize, nth_factor,
                        viable_prefix)

from oracles import pipeline, sardinas_patterson

_CODED = re.compile(r"(?:[01]|ab+a)*")
_SYMBOL = re.compile(r"[01]|ab+a")


def literal_decode(text):
    """Staged symbols of a whole sequence of letters and codes a b^j a,
    or None for any other text."""
    if not _CODED.fullmatch(text):
        return None
    return tuple(int(t) if t in "01" else Eraser(len(t) - 2)
                 for t in _SYMBOL.findall(text))


def split_oracle():
    """Brute-force deciders over coded text, memoized per call."""

    @cache
    def is_pad(text):
        symbols = literal_decode(text)
        if symbols is None:
            return False
        top = max((s.index for s in symbols if isinstance(s, Eraser)),
                  default=0)
        return pipeline(symbols, top) == ()

    @cache
    def zero_blocks(text):
        """Is text in (pad 0)*?"""
        return text == "" or (text[-1] == "0" and any(
            is_pad(text[i:-1]) and zero_blocks(text[:i])
            for i in range(len(text))))

    @cache
    def is_factor(text):
        return text[-1:] == "1" and any(
            is_pad(text[i:-1]) and zero_blocks(text[:i])
            for i in range(len(text)))

    @cache
    def factorizations(text):
        """Cut tuples of every split of text into factors."""
        if text == "":
            return ((0,),)
        return tuple(cuts + (len(text),)
                     for i in range(len(text)) if is_factor(text[i:])
                     for cuts in factorizations(text[:i]))

    @cache
    def pad_prefix(text):
        """Does some extension make text a pad?  The search closes a
        dangling code as the first possible index or one above it, then
        appends up to one index-1 eraser per symbol."""
        closers = ("",) if literal_decode(text) is not None else (
            "a", "ba", "bba")
        return any(is_pad(text + close + "aba" * m)
                   for close in closers for m in range(len(text) + 1))

    def viable(text):
        """Complete factors, then (pad 0)*, then a pad prefix."""
        return any(factorizations(text[:i]) and zero_blocks(text[i:j])
                   and pad_prefix(text[j:])
                   for i in range(len(text) + 1)
                   for j in range(i, len(text) + 1))

    return factorizations, viable


def coded_words(max_len):
    for length in range(max_len + 1):
        for tup in product("01ab", repeat=length):
            yield "".join(tup)


def agree(factorizations, word):
    splits = factorizations(word)
    fac = factorize(word)
    assert fac.count == len(splits), word
    assert fac.cuts == (splits[0] if len(splits) == 1 else None), word
    return len(splits)


def test_split_oracle_examples():
    factorizations, viable = split_oracle()
    assert factorizations("") == ((0,),)
    assert factorizations("11") == ((0, 1, 2),)
    assert factorizations("0aba11") == ((0, 5, 6),)
    assert factorizations("1aba1") == ((0, 5),)
    assert factorizations("0") == ()
    assert viable("abba00") and viable("0ab") and not viable("aba")


def test_every_short_word_has_the_oracles_factorization():
    factorizations, _ = split_oracle()
    streams = sum(agree(factorizations, w) for w in coded_words(8))
    assert streams == 401  # words up to 8 letters that are streams


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 300), min_size=1, max_size=4),
       st.integers(0, 10 ** 6), st.sampled_from("01ab"))
def test_factor_concatenations_match_the_oracle(indices, where, ch):
    factorizations, _ = split_oracle()
    factors = [nth_factor(i) for i in indices]
    word = "".join(factors)
    assert agree(factorizations, word) == 1
    ends = [0]
    for f in factors:
        ends.append(ends[-1] + len(f))
    assert factorize(word).cuts == tuple(ends)
    i = where % len(word)
    agree(factorizations, word[:i] + ch + word[i + 1:])


def test_viable_prefix_matches_the_split_definition():
    _, viable = split_oracle()
    for word in coded_words(7):
        assert viable_prefix(word) == viable(word), word


def test_sardinas_patterson_examples():
    assert sardinas_patterson(["1", "01", "001"]) == 0  # prefix-free
    assert sardinas_patterson(["1", "1aba1"]) == 1
    assert sardinas_patterson(["a", "ab", "bb"]) == float("inf")
    assert sardinas_patterson(["a", "ab", "b"]) is None  # ab = a b


def test_each_slice_of_the_factors_is_a_code():
    # the rounds grow with n, as the deciphering delay is unbounded
    rounds = [sardinas_patterson(factor_words(n)) for n in range(5, 17)]
    assert rounds == [1] * 4 + [2] * 4 + [3] * 4
    words = factor_words(16)
    assert sardinas_patterson(words + [words[0] + words[-1]]) is None


@pytest.mark.parametrize("k", [1, 2, 5, 50])
def test_no_cut_is_final_before_the_word_ends(k):
    # 1^k is k factors, yet 1^k (aba)^k 1 is one
    assert factorize("1" * k).cuts == tuple(range(k + 1))
    word = "1" * k + "aba" * k + "1"
    assert factorize(word).cuts == (0, len(word))
