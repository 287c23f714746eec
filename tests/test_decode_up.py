"""decode_up against decode on long unrolled prefixes.

decode_up decodes the prefix with decode, then one period copy at a
time, each behind the code left open at the end of the one before it.
A decodable word needs at most two boundary open codes: the one after
the prefix and the one every later copy ends in (its period holds an
even number of a's, so each copy leaves a code open or closed as it
found it).  The staged period is read off between two boundaries that
leave the same open code.  A malformed word raises decode's message and
position on the unrolled word; a code that stays open for ever raises
"code never closes".  The fault is placed by the one scan that found it:
a rejected copy's position is shifted into the unrolled word, which is
never decoded.
"""

import time
from itertools import product

import pytest

from eraserlang import (Eraser, MalformedInput, UPWord, decode, decode_up,
                        encode_up, up_equal, up_prefix)
import eraserlang.coding as coding


def coded_words(max_len):
    for length in range(max_len + 1):
        for letters in product("01ab", repeat=length):
            yield "".join(letters)


def unrolled(x):
    return up_prefix(x, len(x.prefix) + (len(x.period) + 4) * len(x.period))


def decodes(x):
    """Literal oracle: a long prefix decodes, and its dangling code is no
    longer than the period, so every code in it closes."""
    try:
        res = decode(unrolled(x))
    except MalformedInput:
        return False
    return len(res.dangling) <= len(x.period)


def assert_rejects_like_decode(x):
    with pytest.raises(MalformedInput) as got:
        decode_up(x)
    try:
        decode(unrolled(x))
    except MalformedInput as want:
        assert (str(got.value), got.value.position) == (
            str(want), want.position), x
    else:
        assert str(got.value) == "code never closes", x


def test_two_boundary_states_decode():
    # boundary states: "a" after the prefix, then "ab" after every copy
    x = UPWord("a", "baab")
    assert decode("a" + "baab").dangling == "ab"
    assert decode("ab" + "baab").dangling == "ab"
    assert decode_up(x) == UPWord((Eraser(1),), (Eraser(2),))


@pytest.mark.parametrize("period", ["b", "bb", "bbbb"])
def test_code_that_never_closes_raises(period):
    with pytest.raises(MalformedInput, match="code never closes"):
        decode_up(UPWord("a", period))


def test_short_words_decode_exactly_when_the_oracle_says():
    decoded = 0
    for prefix in coded_words(3):
        for period in coded_words(4):
            if not period:
                continue
            x = UPWord(prefix, period)
            if decodes(x):
                assert up_equal(encode_up(decode_up(x)), x), x
                decoded += 1
            else:
                assert_rejects_like_decode(x)
    assert decoded > 500


@pytest.mark.parametrize("x", [UPWord("0000ab", "x0"), UPWord("01010", "aaba"),
                               UPWord("0101abbb", "0")])
def test_positions_count_from_the_start_of_the_word(x):
    assert_rejects_like_decode(x)


def test_long_codes_take_linear_time():
    t0 = time.perf_counter()
    with pytest.raises(MalformedInput, match="code never closes"):
        decode_up(UPWord("a", "b" * 2000))
    assert time.perf_counter() - t0 < 0.1
    t0 = time.perf_counter()
    assert decode_up(UPWord("a" + "b" * 4000 + "a", "0")) == UPWord(
        (Eraser(4000),), (0,))
    assert time.perf_counter() - t0 < 0.1


class CountingScan:
    """The coding's scan pattern, counting its matches."""

    def __init__(self, pattern):
        self.pattern, self.matches = pattern, 0

    def match(self, *args):
        self.matches += 1
        return self.pattern.match(*args)


@pytest.fixture
def scan(monkeypatch):
    counting = CountingScan(coding._SCAN)
    monkeypatch.setattr(coding, "_SCAN", counting)
    return counting


def test_a_rejected_decode_scans_once(scan):
    with pytest.raises(MalformedInput, match="^malformed code at position 4$"):
        decode("0abx")
    assert scan.matches == 1


def test_a_malformed_copy_is_placed_without_scanning_again(scan):
    with pytest.raises(MalformedInput) as got:
        decode_up(UPWord("0aba", "0abx"))
    assert scan.matches == 2  # the prefix, then the first copy
    assert (str(got.value), got.value.position) == (
        "malformed code at position 8", 8)
