"""Membership and factorization machinery for the omega power of the
factor language.

The factor language consists of the coded words (pad 0)^* (pad 1) where
a pad is any coded word whose decoded staged form erases to nothing.
Because every pad erases away, a factor is the coding of one generator
letter 0^k 1 padded with vanishing material.  The central facts made
checkable here at desk scale:

* finite words have at most one factorization into factors (the factor
  language is a code): the factor separators are exactly the letters
  that survive the stage pipeline,
* prefixes of the omega power are exactly the decodable words on which
  stage one never starves an eraser,
* ultimately periodic words can be certified inside the omega power by
  a factorization lasso,
* intersecting the omega power with an order-p block stream gives
  exactly the coded image of the p-stage picture, checked prefix for
  prefix,
* the factor language is enumerable (length order, then 0 < 1 < a < b),
  which yields the pairing decider for index streams.
"""

from __future__ import annotations

import _thread
from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import cache, partial
from itertools import accumulate, chain, compress, count, product

from .words import MalformedInput, UPWord, parse_binary, parse_coded, up_prefix
from .eraser import _stages, staged_erase_up
from .coding import _coded, _stage_one, _tokenize, decode_up, encode
from .staged import _vanishing_rows


# ---------------------------------------------------------------- pads

def vanishes_coded(word: str) -> bool:
    """Does the word decode to a staged word that erases to nothing?

    The stages run on the tokens themselves, each code mapped to one
    copy of itself, and no symbol is built.  Every stage removes an even
    number of symbols, so an odd token count is refused before any stage
    runs.
    """
    tokens, dangling = _tokenize(word)
    # malformed, a code left open, or odd
    if tokens is None or dangling or len(tokens) % 2:
        return False
    # with no code no stage runs, and only the empty word vanishes
    return not tokens or _stages(*_coded(tokens, tokens)) == []


# ------------------------------------------------------------- factors

class Factorization(namedtuple("Factorization", "count cuts")):
    """Number of factor decompositions; cut positions when unique.

    cuts lists every boundary including 0 and the word length, or is
    None.
    """

    __slots__ = ()


_NO_PARSE = Factorization(0, None)


def factorize(word: str) -> Factorization:
    """Factor decomposition read off one run of the stages over the word's
    tokens.

    In a factor stream each pad erases itself at every stage without
    reaching past the letter before it: a pass pops only what the pad
    itself pushed, so the pad's stages run as if it stood alone.  The
    letters that survive every stage are therefore exactly the
    separators, and conversely a surviving letter shields everything to
    its left, so the stretches between survivors are pads.  The word is
    a stream iff no eraser starves, every survivor is a letter and the
    last symbol is a surviving 1; the cuts fall after each surviving 1,
    so there is never more than one decomposition.  Only the first of
    these needs a test: each eraser is spent at its own stage, popping
    or starving, so only letters survive, and the final 1, checked
    first, has nothing after it to pop it.
    """
    if not word:
        return Factorization(1, (0,))
    if word[-1] != "1":  # so the word cannot end inside a code
        return _NO_PARSE
    tokens = _tokenize(word)[0]
    if tokens is None:
        return _NO_PARSE
    # each letter runs as its position, so the survivors are positions
    alive = _stages(*_coded(tokens, count()))
    if alive is None:  # an eraser starved
        return _NO_PARSE
    # a cut ends each surviving 1, read off the token lengths
    cut = bytearray(len(tokens))
    for i in alive:
        cut[i] = tokens[i] == "1"
    return Factorization(1, (0, *compress(accumulate(map(len, tokens)), cut)))


def is_factor(word: str) -> bool:
    """Membership in the factor language (pad 0)^* (pad 1): a stream
    whose only cut is the end, read off the run of ``factorize``."""
    return factorize(word).cuts == (0, len(word))


# ------------------------------------------------------ viable prefixes

def viable_prefix(word: str | Iterable[str]) -> bool:
    """Is the word, a str or an iterable of str chunks, a prefix of some
    element of the omega power?

    Exactly when it decodes, a dangling code allowed, and stage one never
    starves.  A starved index-1 eraser can never be fed, since the pass
    runs left to right.  Otherwise the dangling code completes to an
    index >= 2 eraser, plain content for stage one, and one appended
    index-1 eraser per stage-one survivor empties stage one before any
    later stage runs: the word becomes a pad, and a 1 closes the factor.

    Stage one pushes every token but the code of Eraser(1), which pops,
    so its stack is one counter: the depth, which starts at 0, rises by
    one per other token and falls by one per ``aba``, and an eraser
    starves where it would fall below 0.  A str is one chunk.  Each
    chunk is read whole by ``coding._stage_one``, behind the code left
    open at the end of the chunk before, and the depth carries along.
    Memory stays that of one chunk, however long the stream.
    """
    if isinstance(word, str):
        return _stage_one(0, "", word) is not None
    state = 0, ""
    for chunk in word:
        if (state := _stage_one(*state, chunk)) is None:
            return False
    return True


# ----------------------------------------------------------- omega words

class LassoVerdict(namedtuple(
        "LassoVerdict", "status loop_start loop_length factor_cuts bound",
        defaults=(None, None, None, None))):
    """Outcome of the bounded lasso search.

    yes: the word provably lies in the omega power; the loop segment
    starts at loop_start (inside the periodic part), its length is a
    multiple of the period length, and factor_cuts factorizes prefix and
    loop.  no: some finite prefix is not viable.  unknown: neither
    happened within the explored bound.
    """

    __slots__ = ()


def lasso_member(x: UPWord, bound: int) -> LassoVerdict:
    """Search for a factorization lasso within bound period copies.

    w[p1:p2] is a stream after the stream w[:p1] exactly when p1 is a
    cut of w[:p2], since factorizations are unique.  A lasso makes every
    prefix of the word viable, so a word that is not viable has none.
    A cut is 0 or falls just after a 1, and a nonempty stream ends in
    1, so only such p1 and p2 are tried.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    ulen, plen = len(x.prefix), len(x.period)
    w = up_prefix(x, ulen + bound * plen)
    n = len(w)
    if not viable_prefix(w):
        return LassoVerdict("no")
    cuts_upto = cache(lambda p2: factorize(w[:p2]).cuts)
    for p1 in range(ulen, n + 1):
        if p1 and w[p1 - 1] != "1":
            continue
        for p2 in range(p1 + plen, n + 1, plen):
            cuts = w[p2 - 1] == "1" and cuts_upto(p2)
            if cuts and p1 in cuts:
                return LassoVerdict("yes", loop_start=p1,
                                    loop_length=p2 - p1, factor_cuts=cuts)
    return LassoVerdict("unknown", bound=bound)


def has_infinitely_many_ones(x: UPWord) -> bool:
    """Does the denoted binary word contain 1 beyond every position?"""
    for sym in chain(x.prefix, x.period):
        if sym not in (0, 1, "0", "1"):
            raise MalformedInput("word is not over the binary alphabet")
    # a period holds a 1 iff its primitive root does
    return any(sym in (1, "1") for sym in x.period)


def in_erasure_ladder(x: UPWord, p: int) -> bool:
    """Does the p-stage pipeline send x to a word with infinitely many 1s?"""
    # staged_erase_up refuses p < 1 (ValueError, in _check_stages) and
    # indices above p (MalformedInput)
    out = staged_erase_up(x, p)
    return out.is_infinite and has_infinitely_many_ones(out.up)


def in_coded_erasure_ladder(x: UPWord, p: int) -> bool:
    """Coded twin of the ladder: x decodes to a word whose indices stay
    within p (a block stream of order p) and which lies in the ladder."""
    if p < 1:
        raise ValueError("block order must be >= 1")
    try:
        return in_erasure_ladder(decode_up(x), p)
    except MalformedInput:  # not decodable, or an index above p
        return False


# ------------------------------------------------- intersection identity

#
# The two sides share no rule, so each checks the other.  Each side is a
# prefix-closed set in which a word's continuations depend on a small
# class alone, never on its letters: the scanner state and the stage-one
# depth.  So a side is nothing but its step function: steps(p, room, d)
# lists each string of at most room letters that takes a class (_OUT, d)
# outside a code to the next class outside one (a whole token) or stops
# inside a code, with the class it lands on.  The intersection side
# searches its steps over its rules, _rp_key; the staged side reads them
# off the encoded tokens.
#
# One walk, _classes, spells either side from its steps.  It goes length
# by length over the classes of words, asks once per class outside a
# code for its steps, and extends the whole class at once.  Every word
# still arises once, cut after each prefix whose class lies outside a
# code.  The walk is generic in what a class carries: start is the value
# of the empty word's class, grow(value, s) the value of a class
# extended by the letters s, and classes that meet merge by +.  Carrying
# the words ([""], grown by appending s) lists a side; carrying a count
# (1, grown by nothing) counts it without building a word.
#
# The steps at depths 0 and 1 decide the check: there both sides must
# offer the same strings, landing on the same classes.  A deeper class
# takes the depth-1 steps with its landing depths shifted, on both sides,
# so the two sides are then equal at every length; and past a few b's a
# code takes the steps of the code one b shorter, so a small (p, n)
# stands for any (see verify_intersection_identity).  The walk only
# serves a report.

_OUT = -1  # scanner state: outside any code; n >= 0 means inside with n betas


def _merge(classes: dict, key: tuple, value) -> None:
    classes[key] = classes[key] + value if key in classes else value


def _scan_step(state: int, ch: str, p: int) -> int | None:
    """Advance the order-p block scanner by one character; None rejects."""
    if state == _OUT:
        if ch == "0" or ch == "1":
            return _OUT
        if ch == "a":
            return 0
        return None  # beta outside a code
    if ch == "b":
        return state + 1 if state + 1 <= p else None
    if ch == "a":
        return _OUT if state >= 1 else None  # empty codes are not blocks
    return None  # letter inside a code


def _rp_key(p: int, key: tuple, ch: str) -> tuple | None:
    """The class of an intersection word of class key extended by the
    letter ch, or None once it leaves the intersection.

    A class is the scanner state and the stage-one depth (the survivor
    count).  Every live scanner state can be completed to a full stream,
    so the depth is all viable_prefix asks about: no index-1 eraser may
    meet depth 0.  Under p = 1 a dangling code can only complete to an
    index-1 eraser, so it needs depth 1 or more.
    """
    state, depth = key
    nxt = _scan_step(state, ch, p)
    if nxt is None:
        return None
    if nxt != _OUT:  # inside a code
        return None if p == 1 and depth == 0 else (nxt, depth)
    if state != 1:  # a letter or an index >= 2 eraser
        return (nxt, depth + 1)
    if depth:  # an index-1 eraser
        return (nxt, depth - 1)
    return None


def _rp_steps(p: int, room: int, depth: int) -> list:
    """The steps of the intersection side: each string of at most room
    letters that takes class (_OUT, depth) out of a code again or stops
    inside one, with the class _rp_key gives it.

    A search over _rp_key, one letter at a time: a string that lands
    inside a code is a stop and grows on, one that lands outside is a
    token and ends its branch.
    """
    found = []
    frontier = [("", (_OUT, depth))]
    for s, key in frontier:  # the stops appended below are searched too
        if len(s) < room:
            for ch in "01ab":
                child = _rp_key(p, key, ch)
                if child is not None:
                    step = (s + ch, child)
                    found.append(step)
                    if child[0] != _OUT:
                        frontier.append(step)
    return found


def _staged_steps(p: int, room: int, depth: int) -> list:
    """The steps of the staged side: each string of at most room letters
    that extends a class of whole encodings at stage-one depth depth,
    with the class it leads to.

    A staged viable prefix extends by a letter or by any eraser but an
    index-1 one at depth 0; a whole encoding is in class (_OUT, depth).
    A staged word coded longer than the room adds no whole encoding but
    a stop inside its last code, an open code a b^j in class (j, depth):
    a alone, or the code of Eraser(j) before its closing a.  It needs an
    eraser that may follow, which depth 0 allows only from index 2.
    """
    landing = (_OUT, depth + 1)
    steps = [("0", landing), ("1", landing)] if room else []
    stops = depth or p >= 2  # an open code needs an eraser to follow
    if stops and room:
        steps.append(("a", (0, depth)))
    for j in range(1, min(p, room - 1) + 1):
        code = "a" + "b" * j + "a"
        if stops:
            steps.append((code[:-1], (j, depth)))
        step = 1 if j > 1 else -1  # only an index-1 eraser pops
        if depth + step >= 0 and len(code) <= room:
            steps.append((code, (_OUT, depth + step)))
    return steps


def _classes(steps, n: int, start, grow) -> Iterator[dict]:
    """The words of length up to n that a side's steps spell from the
    empty word, one dict of classes per length.

    steps(depth) lists the steps from class (_OUT, depth).  They depend
    on the class alone, so the walk lists the classes in length order,
    each step placing its children len(step) letters further on.  A stop
    ends its word.
    """
    steps = cache(steps)  # one search per depth, for this walk only
    levels: list = [{(_OUT, 0): start}] + [{} for _ in range(n)]
    for length in range(n + 1):
        # a walked level is let go, so memory stays flat in n
        classes, levels[length] = levels[length], None
        yield classes
        for (state, depth), value in classes.items():
            if state != _OUT:
                continue
            for s, child in steps(depth):
                if length + len(s) <= n:
                    _merge(levels[length + len(s)], child, grow(value, s))


def _listed(steps, n: int) -> Iterator[str]:
    """Every word a side's steps spell, the walk carrying the words."""
    levels = _classes(steps, n, [""], lambda words, s: [w + s for w in words])
    return (w for classes in levels for ws in classes.values() for w in ws)


def _steps_agree(p: int, n: int) -> bool:
    """The verdict: both sides take the same steps at depths 0 and 1, at
    the clamped (q, m) within (5, 5).  The proof that this decides the
    identity is on verify_intersection_identity.
    """
    q = min(p, max(n, 2))
    m = min(n, q + 3)
    if q > 2 and m > 5:  # the index shift, down to q = 2 or m = 5
        shift = min(q - 2, m - 5)
        q, m = q - shift, m - shift
    for d in range(min(m, 1) + 1):  # depths 0 and 1 stand for all
        if set(_rp_steps(q, m - d, d)) != set(_staged_steps(q, m - d, d)):
            return False
    return True


def verify_intersection_identity(p: int, n: int,
                                 report_path: str | None = None) -> bool:
    """Compare, for every length up to n, prefixes of the intersection
    (omega power meets order-p block streams) against encodings of staged
    viable prefixes over indices up to p, mid-code stops included.

    The verdict is a local step check, with no word of either side built.
    A step from a class (_OUT, d) is a whole token, which lands outside a
    code, or a stop inside one, each with the class it lands on.  For
    every depth d from 0 to n, the steps of at most n - d letters must
    be the same on both sides: those the intersection rules allow
    (_rp_steps, a search over _rp_key) and those the staged side takes
    (_staged_steps).  Equal steps make equal sides by induction.

    * Both sides are deterministic over the same classes: a word's class
      is fixed by its parent's class and the letters added.
    * A word's depth never exceeds the letters it has read: a token adds
      at most one to the depth and is at least one letter long.  So a
      word of m letters in class (_OUT, d) has d <= m, and a step it
      takes within length n has at most n - m <= n - d letters.  The
      check holds every step a word up to length n can take.
    * Cut a word of the intersection side after each prefix whose class
      lies outside a code.  Every piece is a step from the class before
      it, all the way inside a code but for its end, and only the last
      piece may stop inside one.  By induction over the pieces each is a
      staged step from the same class, landing on the same class, so the
      word is on the staged side.  Conversely a staged word splits
      uniquely into tokens plus an optional stop, since the tokens
      [01]|ab+a form a prefix code; by the same induction each of them is
      a step of the intersection side, so _rp_key never rejects the word.

    So the two sides are equal at every length up to n, and still share
    no rule.  The check compares the steps at d = 0 (room n) and d = 1
    (room n - 1) only, which stand for every depth:

    * Shift.  _rp_key reads the depth only through `p == 1 and
      depth == 0` and `if depth`; inside a code the depth does not
      change, and a step moves it by at most one, at the step's end
      only.  _staged_steps reads it only through `depth + step >= 0`
      and `depth or p >= 2`.  No test tells two depths >= 1 apart, so
      on each side the steps from any d >= 1 are the depth-1 steps with
      every landing depth raised by d - 1.
    * Room.  A smaller room n - d keeps, on both sides alike, the
      shifted depth-1 steps of at most n - d letters.  So equal steps at
      d = 1 within room n - 1 are equal steps at every d >= 1 within
      room n - d.

    The b count of a step, its code index, stands for every larger one
    in the same way.  A step is a letter, a stop a b^i landing in state
    i, or a code a b^j a landing outside, and each side reads p, n and
    the b count only through a few tests: the scanner through
    `state + 1 <= p` and `state >= 1`, _rp_key through `state != 1` and
    `p == 1`, the search through the room; _staged_steps through
    `j > 1`, `p >= 2`, min(p, room - 1) and the room against a code's
    length j + 2.  Each of three moves keeps the outcome of every test
    at depths 0 and 1, so it leaves both sides' steps, and the verdict,
    as they were:

    * p past the room.  The search adds a b only to a stop shorter than
      the room, so the scanner never compares p with more than n - 1,
      and min(p, room - 1) is room - 1 once p >= n.  So p may drop to
      max(n, 2), which keeps `p == 1` and `p >= 2`.
    * n past the codes.  No step has more than p b's, so none has more
      than p + 2 letters, and rooms n and n - 1 of at least p + 2 cut
      none.  So n may drop to p + 3.
    * Index shift, p >= 3 and n >= 6.  A step with at most two b's has
      at most four letters, within the rooms at (p, n) and at
      (p - 1, n - 1), and its scanner tests 1 <= p and 2 <= p hold at
      p - 1 >= 2 too: it is a step at both or at neither.  A step with
      j >= 3 b's is a step at (p, n) exactly when the same step with
      j - 1 b's is one at (p - 1, n - 1), a stop landing one state
      lower and a code on the same class: `state >= 1`, `state != 1`
      and `j > 1` hold for both counts, while `state + 1 <= p`, the
      length and the room all move by one.  So on each side the steps
      at (p, n) are the same one-to-one image of those at
      (p - 1, n - 1), and the sides agree at one exactly when they agree
      at the other.

    So the verdict at (p, n) is the verdict at p' = min(p, max(n, 2)),
    n' = min(n, p' + 3), both lowered by max(0, min(p' - 2, n' - 5)):
    a (p', n') within (5, 5), at O(1) whatever p and n.  The moves rest
    on how the two sides read the code index, which the tests pin on
    both, as they pin the shift; a report compares the counts at the
    full (p, n), so it sees a fault at any depth and any index.

    Only a report counts the words: one walk, _classes, spells each side
    from its own steps at every depth, carrying a count per class, at
    O(n^2 * p), and the two counts must agree at every length too.  The
    walk spells each word once, since its pieces are fixed: on the
    intersection side by where its class lies outside a code, on the
    staged side by the prefix code of the tokens, with a stop a b^j an
    open code that no whole encoding ends in.  Only a failed check with a
    report lists the words, to name each difference.
    """
    if p < 1:
        raise ValueError("block order must be >= 1")
    if n < 0:
        raise ValueError("length bound must be >= 0")
    if report_path is None:
        return _steps_agree(p, n)
    # opened before any walk, so an unwritable path fails at once
    with open(report_path, "w", encoding="ascii") as report:
        sides = [partial(steps, p, n) for steps in (_rp_steps, _staged_steps)]
        sizes = [[sum(classes.values())
                  for classes in _classes(steps, n, 1, lambda count, s: count)]
                 for steps in sides]
        ok = _steps_agree(p, n) and sizes[0] == sizes[1]
        lines = [
            f"intersection identity check: block order p={p}, "
            f"lengths up to n={n}",
            f"result: {'PASS' if ok else 'FAIL'}",
            f"intersection side: {sum(sizes[0])} words, "
            f"encoded staged side: {sum(sizes[1])} words",
        ]
        if not ok:
            intersection, image = (set(_listed(steps, n)) for steps in sides)
            lines += [f"only in intersection side: {w or '(empty)'}"
                      for w in sorted(intersection - image)]
            lines += [f"only in encoded staged side: {w or '(empty)'}"
                      for w in sorted(image - intersection)]
        report.write("\n".join(lines) + "\n")
    return ok


# ----------------------------------------------------- factor enumeration
#
# The factors are enumerated one row per length, built constructively from
# pads, which come from staged._vanishing_rows and not from a stage run as
# in factorize; the tests check the rows against an is_factor filter
# over all coded words.  A row, of pads or of factors, is kept as one
# string, its words back to back, so it costs one byte a letter and no
# object a word.
#
# One table holds the enumeration, three lists indexed by length:
# _PADS[m] the pads coded m long, _ROWS[n] the factors n letters long
# and _STARTS[n] the number of factors shorter than n.  Only _grow
# appends to them, under a lock, so each row is built once however many
# threads ask for it, and it enters each row before the start counted
# from it: a reader that finds a start past i finds the row holding i
# built.  nth_factor finds its row by bisecting the starts, and
# factor_index adds the start to the word's place in its row.  The rows
# are exact, so once a row is built it is its own membership test: a
# word of that length is a factor iff the bisection lands on it.  Only
# before its row is in the table does factor_index run is_factor, so
# that a non-factor builds no row.

_PADS: list[str] = []
_ROWS = [""]  # no factor is empty
_STARTS = [0, 0]  # no factor is shorter than 0 or 1 letters
_GROWING = _thread.allocate_lock()


def _grow(n: int) -> None:
    """Build and enter the factor rows up to n and the pad rows up to
    n - 1.

    The pads coded m long are the sorted encodings of the vanishing
    staged words of that coded length, from one walk up to Eraser(m - 2),
    the highest eraser whose code fits.  A factor (pad 0)^* (pad 1) of
    m + 1 letters is a pad coded m long and a 1, or a pad coded k < m
    long and a 0 before a factor of m - k letters; pads and factors are
    sliced out of their packed rows.  The pairs are joined at C speed,
    and the row is sorted and joined once.
    """
    with _GROWING:  # so that no row is built twice
        for m in range(len(_PADS), n):
            # only the walk's last row lives on into the sort
            pads = "".join(sorted(map(encode, _vanishing_rows(
                m - 2, lambda sym: len(encode((sym,))), m)[m])))
            words = [pad + "1" for pad in _row_words(pads, m)]
            for k in range(m):
                heads = [pad + "0" for pad in _row_words(_PADS[k], k)]
                tails = _row_words(_ROWS[m - k], m - k)
                words += map("".join, product(heads, tails))
            # entered once built, so a build cut short leaves no trace
            _ROWS.append(row := "".join(sorted(words)))
            _PADS.append(pads)
            _STARTS.append(_STARTS[-1] + len(row) // (m + 1))


def _row_words(row: str, n: int) -> Iterator[str]:
    """The words of a packed row, n letters each.  The one row of width
    0, the pads coded 0 long, holds the empty word alone, which no
    length of the packed string can count."""
    starts = range(0, len(row), n) if n else [0]
    return map(row.__getitem__, map(slice, starts, count(n, n)))


def nth_factor(i: int) -> str:
    """The i-th factor in length order, ties broken by 0 < 1 < a < b.

    The row holding i is found by bisecting the row starts, once they
    reach past i; every row holds 0^(n-1) 1, so each start is larger
    than the one before.
    """
    if i < 0:
        raise ValueError("index must be >= 0")
    while i >= _STARTS[-1]:
        _grow(len(_ROWS))
    n = bisect_right(_STARTS, i) - 1
    at = (i - _STARTS[n]) * n
    return _ROWS[n][at:at + n]


def factor_index(word: str) -> int | None:
    """Position of a factor in the enumeration, None for non-members.

    Once the word's row is in the table, the row alone decides: a
    bisection over its offsets finds where the word would stand, and it
    is a factor iff the row holds it there.  Before that, is_factor runs
    first, so that a non-factor builds no row.
    """
    # the empty word, or row n not in the table yet
    if not 0 < (n := len(word)) < len(_ROWS):
        if not is_factor(word):
            return None
        _grow(n)
    row = _ROWS[n]
    at = bisect_left(range(0, len(row), n), word, key=lambda k: row[k:k + n])
    return _STARTS[n] + at if row[at * n:at * n + n] == word else None


def factor_words(max_len: int) -> list[str]:
    """Every factor of length up to max_len, in the order of nth_factor;
    the rows listed stay in the table."""
    _grow(max_len)
    return [w for n in range(1, max_len + 1) for w in _row_words(_ROWS[n], n)]


# ------------------------------------------------------- index pairings

def pairing_consistent(sigma: str, nu: str) -> bool:
    """Can (sigma, nu) be extended to a paired stream where each block
    0^k 1 of sigma is matched in nu by the k-th factor?

    Past the factors of sigma's complete blocks, nu only has to be a
    viable prefix.  Any viable prefix completes to a single pad, which
    extends to factors of unbounded length, hence unbounded index, so
    the open block of sigma can always grow to match.  Once the factors
    cover nu, no later one is compared and the rest of nu is empty, so
    none is built.
    """
    parse_binary(sigma)
    parse_coded(nu)
    # nu is matched, up to at, against the factor of each closed block
    # 0^k 1 of sigma, whose k is read off where its 1 falls
    at = start = 0
    while at < len(nu) and (end := sigma.find("1", start)) >= 0:
        factor = nth_factor(end - start)
        if not nu.startswith(factor[:len(nu) - at], at):
            return False
        at, start = at + len(factor), end + 1
    return viable_prefix(nu[at:])
