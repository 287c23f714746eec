"""The guard of decode_up at its boundary.

decode_up scans period copies until the dangling text at a period
boundary repeats, and gives up with "code never closes" once it has
seen more than len(period) + 3 boundary states.  A decodable word needs
at most two: the one after the prefix and the one every later copy ends
in (its period holds an even number of a's, so each copy leaves the
scanner inside or outside a code as it found it).
"""

from itertools import product

import pytest

from eraserlang import (Eraser, MalformedInput, UPWord, decode, decode_up,
                        encode_up, up_equal, up_prefix)


def coded_words(max_len):
    for length in range(max_len + 1):
        for letters in product("01ab", repeat=length):
            yield "".join(letters)


def decodes(x):
    """Literal oracle: a long prefix decodes, and its dangling code is no
    longer than the period, so every code in it closes."""
    copies = len(x.period) + 4
    try:
        res = decode(up_prefix(x, len(x.prefix) + copies * len(x.period)))
    except MalformedInput:
        return False
    return len(res.dangling) <= len(x.period)


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
                with pytest.raises(MalformedInput):
                    decode_up(x)
    assert decoded > 500
