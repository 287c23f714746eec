"""The staged side of the intersection identity, against its definition.

The definition: every prefix of length up to n of encode(s), over the
staged words s with indices up to p on which stage one never starves.
It is built here from oracles.staged_words, oracles.single_pass and an
encoder of this file's own, with no budget and no pruning; the walk in
the omega module stops at length n and yields the mid-code stops from
the parent of the code they cut.
"""

import time

import pytest

from eraserlang import Eraser, verify_intersection_identity
from eraserlang.omega import _encoded_staged_prefixes

from oracles import single_pass, staged_words


def literal_encode(word):
    return "".join("a" + "b" * s.index + "a" if isinstance(s, Eraser)
                   else str(s) for s in word)


def literal_image(p, max_n):
    """Each prefix of length up to max_n, of the encoding of any viable
    staged word.  A staged word of max_n symbols codes at least max_n
    letters, so longer ones add no new prefix."""
    image = set()
    for word in staged_words(max_n, p):
        if single_pass(word, 1) is not None:
            coded = literal_encode(word)
            image.update(coded[:i] for i in range(min(len(coded), max_n) + 1))
    return image


@pytest.mark.parametrize("p, max_n", [(1, 7), (2, 7), (3, 6)])
def test_staged_side_is_the_literal_image(p, max_n):
    image = literal_image(p, max_n)
    for n in range(max_n + 1):
        walked = list(_encoded_staged_prefixes(p, n))
        assert len(walked) == len(set(walked)), (p, n)
        assert set(walked) == {w for w in image if len(w) <= n}, (p, n)


def test_staged_side_ignores_indices_that_cannot_fit():
    assert (set(_encoded_staged_prefixes(10 ** 9, 7))
            == set(_encoded_staged_prefixes(7, 7)))


def test_larger_identity_case_is_fast():
    t0 = time.perf_counter()
    assert verify_intersection_identity(3, 9)
    assert time.perf_counter() - t0 < 1.0
