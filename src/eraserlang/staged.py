"""The chain of staged erasure languages.

Stage count k fixes the alphabet {0, 1, Eraser(1), .., Eraser(k)}.  A
word belongs to the k-th language when the stage pipeline erases it to
the empty word.  The k = 1 language is also generated by the grammar

    S -> a S E S   (a in {0, 1}, E the single eraser)
    S -> empty

and neither the grammar decider nor the generator of the vanishing
words below calls the eraser engine, so each can check the engine.

Every member has even length: each stage's active erasers remove
themselves and one symbol each, so every stage removes an even number
of symbols.  The generator rests on the same pair fact, and ``vanishes``
refuses an odd word before any stage runs.  It refuses by the end
symbols there too: no eraser ever pops a final letter, and a leading
Eraser(1) starves at stage 1, the first to run.  The grammar decider
is one loop: its parse stack is always S (E S)^h, so the height h
stands for it.

The grammar decider refuses by shape as well, from the grammar alone:
every production adds one letter and one E, so a derived word has even
length, and a nonempty one starts with a letter and ends with an E.
It answers such a word once one C-speed set check finds every item in
the alphabet; the loop takes every other word, and still names a
foreign index wherever it stands.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from itertools import chain, product

from .words import Eraser, MalformedInput, StagedWord
from .eraser import _vanishing_top

# the grammar's terminals: the two letters and its single eraser
_TERMINALS = frozenset((0, 1, Eraser(1)))


def vanishes_by_grammar(word: StagedWord) -> bool:
    """Stage-1 membership by grammar derivation alone.

    Only letters and Eraser(1) may appear; other indices are outside the
    grammar's alphabet and rejected as malformed, also behind a prefix
    that already fails.

    This is the predictive LL(1) parse of S -> a S E S | empty, one loop
    over the word.  Its stack of grammar symbols still to be derived is
    always S (E S)^h, top last: it starts as S, a letter replaces the
    top S by S E S (S -> a S E S, a matched) and an eraser drops the top
    S and matches the E under it (S -> empty).  So the height h is the
    whole stack: a letter adds one, an eraser on h = 0 finds no E to
    match, and the input is derived iff it ends at h = 0 (S -> empty).

    The loop runs only when the word's shape allows a derivation.  Each
    production adds one letter and one E, so a derived word has even
    length, and a nonempty one starts with a letter and ends with an E.
    A word of odd length, ending in a letter or starting with an eraser
    is refused once ``_TERMINALS.issuperset`` finds every item in the
    alphabet; there the only eraser is Eraser(1), so the shape reads as
    the grammar's.  Otherwise, or when an unhashable item makes the
    lookup raise, the loop decides: it raises on the first foreign index
    and counts every item that is no eraser as a letter.
    """
    try:  # an unhashable item goes on to the loop, which reads it as a letter
        if (len(word) % 2 or word and (type(word[-1]) is not Eraser
                or type(word[0]) is Eraser)) and _TERMINALS.issuperset(word):
            return False
    except TypeError:
        pass
    height = 0
    starved = False
    for sym in word:
        if type(sym) is not Eraser:
            height += 1
        elif sym.index != 1:
            raise MalformedInput(
                f"eraser index {sym.index} is outside the one-stage alphabet")
        elif height:
            height -= 1
        else:
            starved = True
    return not starved and height == 0


def vanishes(word: StagedWord, stages: int) -> bool:
    """Does the stage pipeline erase the word to nothing?

    Words using eraser indices above the stage count are simply not
    members (they are outside the alphabet), not an error.  A member has
    even length, since every stage removes its erasers in pairs with the
    symbols they pop, so an odd word is refused before any stage runs.
    So is a word that ends in a letter, which no eraser can pop, or
    starts with Eraser(1), which starves at stage 1.
    """
    if stages < 1:
        raise ValueError("stage count must be >= 1")
    top = _vanishing_top(word)
    return top is not None and top <= stages


def _vanishing_rows(top: int, cost: Callable, budget: int) -> list[dict]:
    """Row m maps every vanishing staged word over indices <= top of total
    cost m to its lowest eraser index (top + 1 for the empty word).

    Letters cost 1 and an eraser's cost never falls as its index grows.
    Each row is grown from the cheaper ones by inserting an adjacent pair
    x Eraser(j), x a letter or an eraser above j, into a word whose
    lowest index is at least j, at every position up to its first
    Eraser(j).  Sound: no stage below j sees the pair, and stage j
    pushes x and pops it at once, so every stage outputs what it did on
    the shorter word.  Complete: the lowest stage j of a nonempty
    vanishing word sees the word itself, so its first Eraser(j) pops the
    symbol just before it, a letter or a higher eraser; without those
    two the word still vanishes, by the same argument, and holds no index
    below j.  That pair is the inserted one, so each word is made once.
    """
    rows = [{(): top + 1}] if budget >= 0 else []
    for m in range(1, budget + 1):
        row: dict[StagedWord, int] = {}
        for j in range(1, top + 1):  # erasers made lazily: top may be huge
            eraser = Eraser(j)
            rest = m - cost(eraser)
            if rest < 1:  # no room left for the erased symbol
                break
            for x in chain((0, 1), map(Eraser, range(j + 1, top + 1))):
                if cost(x) > rest:
                    break
                for w, low in rows[rest - cost(x)].items():
                    if low >= j:
                        first = w.index(eraser) if low == j else len(w)
                        for i in range(first + 1):
                            row[w[:i] + (x, eraser) + w[i:]] = j
        rows.append(row)
    return rows


def vanishing_words(stages: int, max_len: int) -> list[StagedWord]:
    """All members up to max_len, in length order, then left to right by
    the symbol order 0 < 1 < Eraser(1) < .. < Eraser(stages)."""
    if stages < 1:
        raise ValueError("stage count must be >= 1")
    rows = _vanishing_rows(stages, lambda sym: 1, max_len)
    return [w for row in rows for w in sorted(row, key=_rank_key)]


def _rank_key(word: StagedWord) -> str:
    """A sort key for staged words by the symbol ranks 0 < 1 < Eraser(1)
    < Eraser(2) < .., one code point per rank.

    Encodings would order the words alike, but grow with the eraser
    index.  The string compares like the list of ranks and is cheaper to
    build.  A rank past the last code point, Eraser(sys.maxunicode),
    would raise, but ``vanishing_words`` never meets one: it would stand
    in a row of at least two symbols, and the row of two alone holds
    about 6 * 10**11 words once the stages reach that index.
    """
    return "".join([chr(sym.index + 1) if type(sym) is Eraser else chr(sym)
                    for sym in word])


def min_stages(word: StagedWord) -> int | None:
    """Smallest stage count whose language contains the word, if any.

    Membership is monotone in the stage count and constant once every
    index in the word is covered, so only one pipeline run is needed.
    """
    top = _vanishing_top(word)
    return None if top is None else top or 1


def words_over(stages: int, max_len: int) -> Iterator[StagedWord]:
    """Every staged word up to max_len over the stage-k alphabet."""
    alphabet = [0, 1] + [Eraser(j) for j in range(1, stages + 1)]
    for length in range(max_len + 1):
        yield from product(alphabet, repeat=length)
