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
from functools import partial
from itertools import product

import pytest

from eraserlang import (Eraser, MalformedInput, omega,
                        verify_intersection_identity)
from eraserlang.omega import (_OUT, _classes, _listed, _rp_steps,
                              _staged_steps)

from oracles import decode_by_hand, single_pass, staged_words


def viable_rp_prefixes(p, n):
    """Every viable prefix of an order-p block stream, up to length n."""
    return _listed(partial(_rp_steps, p, n), n)


def encoded_staged_prefixes(p, n):
    """Every prefix of length up to n of the encoding of a staged viable
    prefix over indices up to p, each once."""
    return _listed(partial(_staged_steps, p, n), n)


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
        walked = list(encoded_staged_prefixes(p, n))
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
        walked = list(viable_rp_prefixes(p, n))
        assert len(walked) == len(set(walked)), (p, n)
        assert set(walked) == {w for w in literal if len(w) <= n}, (p, n)


@pytest.mark.parametrize("p, n, size", [(1, 10, 6245), (2, 9, 3583),
                                        (3, 12, 47380), (2, 13, 96204)])
def test_walk_sizes_are_pinned(p, n, size):
    for walk in (viable_rp_prefixes, encoded_staged_prefixes):
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
    def dropped(p, room, depth):
        return [step for step in side(p, room, depth)
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

    def misspelt(p, room, depth):
        return [("b" if s == "1" else s, child)
                for s, child in staged_steps(p, room, depth)]

    monkeypatch.setattr(omega, "_staged_steps", misspelt)
    assert (sizes(partial(omega._rp_steps, 1, 4), 4)
            == sizes(partial(omega._staged_steps, 1, 4), 4))
    assert not verify_intersection_identity(1, 4)


def test_staged_side_ignores_indices_that_cannot_fit():
    assert (set(encoded_staged_prefixes(10 ** 9, 7))
            == set(encoded_staged_prefixes(7, 7)))


def test_larger_identity_case_is_fast():
    t0 = time.perf_counter()
    assert verify_intersection_identity(3, 9)
    assert time.perf_counter() - t0 < 1.0


# ------------------------------------------ the check counts, not lists

@pytest.mark.parametrize("p", range(1, 6))
def test_counts_are_the_sizes_of_the_listings(p):
    for n in range(12):
        for side, listing in ((_rp_steps, viable_rp_prefixes),
                              (_staged_steps, encoded_staged_prefixes)):
            listed = Counter(map(len, listing(p, n)))
            assert (sizes(partial(side, p, n), n)
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

    def stopping(p, room, depth):
        return staged_steps(p, room, depth) + ([("a", (0, 0))] if depth == 0
                                               else [])

    monkeypatch.setattr(omega, "_staged_steps", stopping)
    assert not verify_intersection_identity(1, 6)


def test_a_staged_token_one_depth_off_fails_the_check(monkeypatch):
    staged_steps = omega._staged_steps

    def shifted(p, room, depth):
        return [(s, (state, d + 1) if s == "0" else (state, d))
                for s, (state, d) in staged_steps(p, room, depth)]

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

def sides():
    """Each side's step function, as the omega module holds it now."""
    return (("intersection", omega._rp_steps),
            ("staged", omega._staged_steps))


def raised(steps, by):
    """The steps with every landing depth raised by `by`."""
    return {(s, (state, depth + by)) for s, (state, depth) in steps}


def shift_breaks(p, max_depth=40):
    """Each (side, depth, room) at which the steps from a class
    (_OUT, d >= 1) are not the depth-1 steps raised by d - 1."""
    broken = []
    for room in range(p + 4):
        for name, side in sides():
            one = set(side(p, room, 1))
            broken += [(name, d, room) for d in range(1, max_depth + 1)
                       if set(side(p, room, d)) != raised(one, d - 1)]
    return broken


@pytest.mark.parametrize("p", range(1, 6))
def test_deeper_steps_are_the_depth_1_steps_shifted(p):
    assert shift_breaks(p) == []


def all_depths_verdict(p, n):
    """The reference verdict, which assumes neither shift nor clamp: the
    steps at the full (p, n), compared at every depth d from 0 to n, each
    within room n - d."""
    return all(set(omega._rp_steps(p, n - d, d))
               == set(omega._staged_steps(p, n - d, d)) for d in range(n + 1))


@pytest.mark.parametrize("p", range(1, 9))
def test_verdict_agrees_with_every_depth(p):
    for n in range(16):
        assert verify_intersection_identity(p, n) == all_depths_verdict(p, n)


# staged sides that each break one rule for a whole family of steps, the
# same way at every depth >= 1 or at depth 0, and at every code index or
# at the top one, p: the clamped verdict must see each where the
# reference does
UNIFORM_FAULTS = {
    "index-1 eraser": lambda p, d, s: d >= 1 and s == "aba",
    "top code": lambda p, d, s: d == 0 and s == "a" + "b" * p + "a",
    "top stop": lambda p, d, s: d >= 1 and s == "a" + "b" * p,
    "bare stop": lambda p, d, s: d == 0 and s == "a",
    "long codes": lambda p, d, s: d >= 1 and len(s) >= 4 and s[-1] == "a",
}


@pytest.mark.parametrize("fault", sorted(UNIFORM_FAULTS))
def test_the_clamp_keeps_a_uniform_fault_in_sight(monkeypatch, fault):
    lost = UNIFORM_FAULTS[fault]
    staged_steps = omega._staged_steps

    def faulty(p, room, depth):
        return [(s, child) for s, child in staged_steps(p, room, depth)
                if not lost(p, depth, s)]

    monkeypatch.setattr(omega, "_staged_steps", faulty)
    reference = {(p, n): all_depths_verdict(p, n)
                 for p in range(1, 9) for n in range(13)}
    assert not all(reference.values())
    assert all(verify_intersection_identity(p, n) == verdict
               for (p, n), verdict in reference.items())


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


def test_a_verdict_without_a_report_makes_no_count_walk(monkeypatch):
    def walk(steps, n, start, grow):
        raise AssertionError("counted words without a report")

    monkeypatch.setattr(omega, "_classes", walk)
    assert verify_intersection_identity(5, 400)
    assert verify_intersection_identity(10 ** 9, 10 ** 9)


@pytest.mark.parametrize("p, n", [(10 ** 9, 10 ** 9), (10 ** 5, 10 ** 5),
                                  (2 * 10 ** 4, 2 * 10 ** 4)])
def test_a_huge_block_order_and_length_pass_at_once(p, n):
    t0 = time.perf_counter()
    assert verify_intersection_identity(p, n)
    assert time.perf_counter() - t0 < 0.1
    tracemalloc.start()
    try:
        assert verify_intersection_identity(p, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


# ---------------- a few b's stand for every code index (index shift)
#
# The verdict runs at a (p, n) clamped within (5, 5).  That rests on how
# each side reads a step's b count: past two b's only against p and the
# room, so the step of code j + 1 is the step of code j with one more b,
# landing on the same class (a stop one state further on).  The pins
# below check it on both sides, the index pin far past the clamped
# (p, n) and the clamp pin for each move the verdict makes, so a rule
# that tells two large codes apart fails here even where the verdict
# cannot see it.

def grown(step):
    """The step with one more b in its code, a stop landing one state
    further on."""
    s, (state, depth) = step
    return "ab" + s[1:], (state if state == _OUT else state + 1, depth)


def index_breaks(p, room, depths=range(3)):
    """Each (side, depth, j), 2 <= j < min(p, room - 2), at which the
    steps with j + 1 b's are not the steps with j b's grown."""
    broken = []
    for name, side in sides():
        for d in depths:
            by_count = {}
            for step in side(p, room, d):
                by_count.setdefault(step[0].count("b"), set()).add(step)
            broken += [(name, d, j) for j in range(2, min(p, room - 2))
                       if set(map(grown, by_count[j])) != by_count[j + 1]]
    return broken


def test_each_code_past_two_bs_takes_the_steps_of_the_one_before():
    assert index_breaks(1102, 1104) == []


def test_an_intersection_rule_at_code_1000_breaks_the_index_pin(
        monkeypatch):
    """The code a b^1000 a refused: the clamped verdict never meets it,
    so the pin must."""
    rp_key = omega._rp_key

    def strict(p, key, ch):
        if key[0] == 1000 and ch == "a":
            return None
        return rp_key(p, key, ch)

    monkeypatch.setattr(omega, "_rp_key", strict)
    assert verify_intersection_identity(10 ** 9, 10 ** 9)
    assert set(index_breaks(1102, 1104)) == {
        ("intersection", d, j) for d in range(3) for j in (999, 1000)}


def test_a_staged_rule_at_code_1000_breaks_the_index_pin(monkeypatch):
    """The code a b^1000 a read as an index-1 eraser: the clamped
    verdict never meets it, so the pin must."""
    staged_steps = omega._staged_steps
    code = "a" + "b" * 1000 + "a"

    def popping(p, room, depth):
        return [(s, (_OUT, depth - 1) if s == code else child)
                for s, child in staged_steps(p, room, depth)]

    monkeypatch.setattr(omega, "_staged_steps", popping)
    assert verify_intersection_identity(10 ** 9, 10 ** 9)
    assert set(index_breaks(1102, 1104)) == {
        ("staged", d, j) for d in range(3) for j in (999, 1000)}


def shifted_index(steps):
    """The steps at (p, n) that the index shift makes of the steps at
    (p - 1, n - 1): those with at most two b's as they are, and those
    with two or more grown by one b."""
    return ({step for step in steps if step[0].count("b") <= 2}
            | {grown(step) for step in steps if step[0].count("b") >= 2})


def clamp_breaks(max_p=12, max_room=16, depths=range(4)):
    """Each (side, move, p, room, depth) at which a move of the clamp
    changes a side's steps: p past the room, the room past the codes, or
    p and the room lowered by one together."""
    broken = []
    for name, side in sides():
        for p, room, d in product(range(1, max_p + 1), range(max_room + 1),
                                  depths):
            steps = set(side(p, room, d))
            if p >= max(room, 2) and steps != set(side(p + 1, room, d)):
                broken.append((name, "p", p, room, d))
            if room >= p + 2 and steps != set(side(p, room + 1, d)):
                broken.append((name, "room", p, room, d))
            if (p >= 3 and room >= 5
                    and steps != shifted_index(side(p - 1, room - 1, d))):
                broken.append((name, "index", p, room, d))
    return broken


def test_each_move_of_the_clamp_keeps_both_sides():
    assert clamp_breaks() == []


def test_a_rule_at_one_block_order_breaks_the_clamp_pin(monkeypatch):
    """The code a b^2 a refused under p = 7 alone: the verdict clamps
    p = 7 away, so the pin must see it."""
    rp_key = omega._rp_key

    def strict(p, key, ch):
        if p == 7 and key[0] == 2 and ch == "a":
            return None
        return rp_key(p, key, ch)

    monkeypatch.setattr(omega, "_rp_key", strict)
    assert all(verify_intersection_identity(7, n) for n in range(20))
    assert not all_depths_verdict(7, 6)
    assert {(name, move) for name, move, *_ in clamp_breaks()} == {
        ("intersection", "p"), ("intersection", "index")}
