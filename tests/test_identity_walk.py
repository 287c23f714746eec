"""Both sides of the intersection identity, against their definitions.

The staged side: every prefix of length up to n of encode(s), over the
staged words s with indices up to p on which stage one never starves.
It is built here from oracles.staged_words, oracles.single_pass and an
encoder of this file's own, with no budget and no pruning.

In the omega module each side is nothing but its one-token steps, and
one class walk spells both, stopping at length n.  The literal sets
below are built without that walk, so they check each side on its own.

The intersection side: every coded word up to length n that
oracles.decode_by_hand decodes, with no index above p, whose dangling
code completes to some index-j eraser, j <= p, that stage one does not
starve on.
"""

import re
import time
import tracemalloc
from collections import Counter
from itertools import product

import pytest

from eraserlang import (Eraser, MalformedInput, omega,
                        verify_intersection_identity)
from eraserlang.coding import _OUT
from eraserlang.omega import (_classes, _encoded_staged_prefixes, _rp_steps,
                              _staged_steps, _viable_rp_prefixes)

from oracles import decode_by_hand, single_pass, staged_words


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


def literal_intersection(p, max_n):
    """Each coded word up to max_n letters that decodes, uses no index
    above p and has a completion that stage one does not starve on: its
    own symbols, or those plus the eraser its dangling code a b^i can
    still become, a b^j a with max(1, i) <= j <= p."""
    words = set()
    for n in range(max_n + 1):
        for letters in product("01ab", repeat=n):
            word = "".join(letters)
            try:
                symbols, dangling = decode_by_hand(word)
            except MalformedInput:
                continue
            if any(isinstance(s, Eraser) and s.index > p for s in symbols):
                continue
            completions = ([symbols + (Eraser(j),)
                            for j in range(max(1, len(dangling) - 1), p + 1)]
                           if dangling else [symbols])
            if any(single_pass(c, 1) is not None for c in completions):
                words.add(word)
    return words


@pytest.mark.parametrize("p, max_n", [(1, 7), (2, 7), (3, 6)])
def test_intersection_side_is_the_literal_set(p, max_n):
    literal = literal_intersection(p, max_n)
    for n in range(max_n + 1):
        walked = list(_viable_rp_prefixes(p, n))
        assert len(walked) == len(set(walked)), (p, n)
        assert set(walked) == {w for w in literal if len(w) <= n}, (p, n)


@pytest.mark.parametrize("p, n, size", [(1, 10, 6245), (2, 9, 3583),
                                        (3, 12, 47380), (2, 13, 96204)])
def test_walk_sizes_are_pinned(p, n, size):
    for walk in (_viable_rp_prefixes, _encoded_staged_prefixes):
        walked = list(walk(p, n))
        assert len(walked) == len(set(walked)) == size, (walk, p, n)


def sizes(steps, n):
    """The number of words of each length up to n, as the class walk
    counts them from a side's steps."""
    return [sum(classes.values())
            for classes in _classes(steps, n, 1, lambda count, s: count)]


def dropping(side, lost):
    """The side's steps without the step lost at depth 1: the walk then
    loses every word that takes it, from its counts as from its
    listing."""
    def dropped(p, n):
        steps = side(p, n)
        return lambda depth: [step for step in steps(depth)
                              if depth != 1 or step != lost]
    return dropped


# the index-1 eraser that closes a code at depth 1, down to depth 0
ERASER_AT_DEPTH_1 = ("aba", (_OUT, 0))


def test_a_missing_word_fails_the_check(monkeypatch, tmp_path):
    monkeypatch.setattr(omega, "_rp_steps",
                        dropping(omega._rp_steps, ERASER_AT_DEPTH_1))
    report = tmp_path / "report.txt"
    assert not verify_intersection_identity(1, 4, report_path=str(report))
    lines = report.read_text().splitlines()
    assert lines[1] == "result: FAIL"
    assert lines[2] == ("intersection side: 51 words, "
                        "encoded staged side: 53 words")
    assert lines[3:] == ["only in encoded staged side: 0aba",
                         "only in encoded staged side: 1aba"]


def test_a_missing_image_word_fails_the_check(monkeypatch, tmp_path):
    monkeypatch.setattr(omega, "_staged_steps",
                        dropping(omega._staged_steps, ERASER_AT_DEPTH_1))
    report = tmp_path / "report.txt"
    assert not verify_intersection_identity(1, 4, report_path=str(report))
    lines = report.read_text().splitlines()
    assert lines[1] == "result: FAIL"
    assert lines[2] == ("intersection side: 53 words, "
                        "encoded staged side: 51 words")
    assert lines[3:] == ["only in intersection side: 0aba",
                         "only in intersection side: 1aba"]


def test_an_image_word_outside_the_intersection_fails_the_check(
        monkeypatch):
    """Writing the letter 1 as b keeps every count of the image walk, so
    only the step check can see it."""
    staged_steps = omega._staged_steps

    def misspelt(p, n):
        steps = staged_steps(p, n)
        return lambda depth: [("b" if s == "1" else s, child)
                              for s, child in steps(depth)]

    monkeypatch.setattr(omega, "_staged_steps", misspelt)
    assert (sizes(omega._rp_steps(1, 4), 4)
            == sizes(omega._staged_steps(1, 4), 4))
    assert not verify_intersection_identity(1, 4)


def test_staged_side_ignores_indices_that_cannot_fit():
    assert (set(_encoded_staged_prefixes(10 ** 9, 7))
            == set(_encoded_staged_prefixes(7, 7)))


def test_larger_identity_case_is_fast():
    t0 = time.perf_counter()
    assert verify_intersection_identity(3, 9)
    assert time.perf_counter() - t0 < 1.0


# ------------------------------------------ the check counts, not lists

@pytest.mark.parametrize("p", range(1, 6))
def test_counts_are_the_sizes_of_the_listings(p):
    for n in range(12):
        for side, listing in ((_rp_steps, _viable_rp_prefixes),
                              (_staged_steps, _encoded_staged_prefixes)):
            listed = Counter(map(len, listing(p, n)))
            assert (sizes(side(p, n), n)
                    == [listed[length] for length in range(n + 1)]), (p, n)


@pytest.mark.parametrize("p, n", [(2, 200), (5, 120)])
def test_long_prefixes_pass_in_seconds(p, n):
    t0 = time.perf_counter()
    assert verify_intersection_identity(p, n)
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.parametrize("p, n, size", [(1, 10, 6245), (2, 9, 3583)])
def test_pass_report_is_pinned(p, n, size, tmp_path):
    report = tmp_path / "report.txt"
    assert verify_intersection_identity(p, n, report_path=str(report))
    assert report.read_bytes() == (
        f"intersection identity check: block order p={p}, "
        f"lengths up to n={n}\n"
        "result: PASS\n"
        f"intersection side: {size} words, "
        f"encoded staged side: {size} words\n").encode("ascii")


def test_a_report_at_length_120_is_fast(tmp_path):
    report = tmp_path / "report.txt"
    t0 = time.perf_counter()
    assert verify_intersection_identity(5, 120, report_path=str(report))
    assert time.perf_counter() - t0 < 1.0
    lines = report.read_text().splitlines()
    assert lines[1] == "result: PASS"
    assert re.fullmatch(r"intersection side: (\d+) words, "
                        r"encoded staged side: \1 words", lines[2])


def test_memory_stays_flat_in_the_length():
    tracemalloc.start()
    try:
        assert verify_intersection_identity(2, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10 ** 6


# ----------------------------------- the verdict is a local step check
#
# Without a report no count is taken, so each fault below must fail the
# step check alone.

def test_an_index_one_eraser_closing_at_depth_0_fails_the_check(
        monkeypatch):
    rp_key = omega._rp_key

    def lenient(p, key, ch):
        if key == (1, 0) and ch == "a":
            return (_OUT, 0)
        return rp_key(p, key, ch)

    monkeypatch.setattr(omega, "_rp_key", lenient)
    assert not verify_intersection_identity(2, 6)


def test_a_code_open_at_depth_0_under_p_1_fails_the_check(monkeypatch):
    rp_key = omega._rp_key

    def lenient(p, key, ch):
        if key == (_OUT, 0) and ch == "a":
            return (0, 0)
        return rp_key(p, key, ch)

    monkeypatch.setattr(omega, "_rp_key", lenient)
    assert not verify_intersection_identity(1, 6)


def test_a_staged_stop_at_depth_0_under_p_1_fails_the_check(monkeypatch):
    staged_steps = omega._staged_steps

    def stopping(p, n):
        steps = staged_steps(p, n)
        return lambda depth: steps(depth) + ([("a", (0, 0))] if depth == 0
                                             else [])

    monkeypatch.setattr(omega, "_staged_steps", stopping)
    assert not verify_intersection_identity(1, 6)


def test_a_staged_token_one_depth_off_fails_the_check(monkeypatch):
    staged_steps = omega._staged_steps

    def shifted(p, n):
        steps = staged_steps(p, n)
        return lambda depth: [(s, (state, d + 1) if s == "0" else (state, d))
                              for s, (state, d) in steps(depth)]

    monkeypatch.setattr(omega, "_staged_steps", shifted)
    assert not verify_intersection_identity(2, 6)


@pytest.mark.parametrize("p", range(1, 6))
def test_short_prefixes_pass(p):
    assert all(verify_intersection_identity(p, n) for n in range(16))


def test_huge_block_order_passes():
    assert verify_intersection_identity(10 ** 9, 60)


@pytest.mark.parametrize("p, n", [(5, 400), (2, 2000)])
def test_very_long_prefixes_pass_within_a_second(p, n):
    t0 = time.perf_counter()
    assert verify_intersection_identity(p, n)
    assert time.perf_counter() - t0 < 1.0


def test_memory_stays_flat_at_two_thousand_letters():
    tracemalloc.start()
    try:
        assert verify_intersection_identity(2, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10 ** 6


# ------------------------- depths 0 and 1 stand for every depth (shift)
#
# The verdict compares the steps at depths 0 and 1 only.  That rests on
# the shift: from any depth d >= 1 each side takes its depth-1 steps with
# every landing depth raised by d - 1.  The pin below checks it on both
# sides, so a rule that tells two depths >= 1 apart fails here even
# where the verdict cannot see it.

def raised(steps, by):
    """The steps with every landing depth raised by `by`."""
    return {(s, (state, depth + by)) for s, (state, depth) in steps}


def shift_breaks(p, max_depth=40):
    """Each (side, depth, room) at which the steps from a class
    (_OUT, d >= 1) are not the depth-1 steps raised by d - 1."""
    broken = []
    for room in range(p + 4):
        for name, side in (("intersection", omega._rp_steps),
                           ("staged", omega._staged_steps)):
            steps = side(p, room)
            one = set(steps(1))
            broken += [(name, d, room) for d in range(1, max_depth + 1)
                       if set(steps(d)) != raised(one, d - 1)]
    return broken


@pytest.mark.parametrize("p", range(1, 6))
def test_deeper_steps_are_the_depth_1_steps_shifted(p):
    assert shift_breaks(p) == []


def all_depths_verdict(p, n):
    """The reference verdict, which assumes no shift: the steps compared
    at every depth d from 0 to n, each within room n - d."""
    sides = (omega._rp_steps(p, n), omega._staged_steps(p, n))
    for d in range(n + 1):
        rp, staged = ({(s, child) for s, child in steps(d) if len(s) <= n - d}
                      for steps in sides)
        if rp != staged:
            return False
    return True


@pytest.mark.parametrize("p", range(1, 6))
def test_verdict_agrees_with_every_depth(p):
    for n in range(16):
        assert verify_intersection_identity(p, n) == all_depths_verdict(p, n)


def test_a_fault_at_depth_3_breaks_the_shift(monkeypatch, tmp_path):
    """An index-1 eraser refused at depth 3 alone: the steps at depths 0
    and 1 stay equal, so the pin and a report's counts must catch it."""
    rp_key = omega._rp_key

    def strict(p, key, ch):
        if key == (1, 3) and ch == "a":
            return None
        return rp_key(p, key, ch)

    monkeypatch.setattr(omega, "_rp_key", strict)
    assert not all_depths_verdict(2, 9)
    assert ("intersection", 3, 3) in shift_breaks(2)
    report = tmp_path / "report.txt"
    assert not verify_intersection_identity(2, 9, report_path=str(report))
    assert report.read_text().splitlines()[1] == "result: FAIL"


def test_a_billion_letters_pass_at_once():
    t0 = time.perf_counter()
    assert all(verify_intersection_identity(p, 10 ** 9) for p in range(1, 6))
    assert time.perf_counter() - t0 < 0.1
    tracemalloc.start()
    try:
        assert all(verify_intersection_identity(p, 10 ** 9)
                   for p in range(1, 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6
