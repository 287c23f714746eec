"""The chain of staged erasure languages.

Stage count k fixes the alphabet {0, 1, Eraser(1), .., Eraser(k)}.  A
word belongs to the k-th language when the stage pipeline erases it to
the empty word.  The k = 1 language is also generated by the grammar

    S -> a S E S   (a in {0, 1}, E the single eraser)
    S -> empty

and the grammar decider below is kept independent of the eraser engine
so the two can check each other.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Optional

from .words import Eraser, MalformedInput, StagedWord
from .eraser import _kinds, _pipeline

_S, _E = 0, 1  # grammar symbols on the parse stack: the nonterminal, E1


def vanishes_by_grammar(word: StagedWord) -> bool:
    """Stage-1 membership by grammar derivation alone.

    Only letters and Eraser(1) may appear; other indices are outside the
    grammar's alphabet and rejected as malformed.
    """
    for sym in word:
        if isinstance(sym, Eraser) and sym.index != 1:
            raise MalformedInput(
                f"eraser index {sym.index} is outside the one-stage alphabet")
    return _derivable(word)


def _derivable(w: StagedWord) -> bool:
    """Predictive LL(1) parse of S -> a S E S | empty on an explicit stack.

    The stack holds the grammar symbols still to be derived, top last.
    Whenever a symbol is read its top is S, because every E is pushed
    with an S above it; one symbol of lookahead then picks the rule.
    """
    stack = [_S]
    for sym in w:
        if isinstance(sym, Eraser):
            stack.pop()  # S -> empty
            if not stack:
                return False
            stack.pop()  # match E
        else:
            stack += (_E, _S)  # S -> a S E S, a matched
    return len(stack) == 1  # S -> empty at the end of input


def vanishes(word: StagedWord, stages: int) -> bool:
    """Does the stage pipeline erase the word to nothing?

    Words using eraser indices above the stage count are simply not
    members (they are outside the alphabet), not an error.
    """
    if stages < 1:
        raise ValueError("stage count must be >= 1")
    kinds = _kinds(word)
    return max(kinds, default=0) <= stages and _pipeline(kinds) == []


def _alphabet(stages: int) -> list:
    return [0, 1] + [Eraser(j) for j in range(1, stages + 1)]


def vanishing_words(stages: int, max_len: int) -> list[StagedWord]:
    """All members up to max_len, in length order, then left to right by
    the symbol order 0 < 1 < Eraser(1) < .. < Eraser(stages)."""
    if stages < 1:
        raise ValueError("stage count must be >= 1")
    alphabet = _alphabet(stages)
    found: list[StagedWord] = [()]
    for length in range(1, max_len + 1):
        if length % 2 == 1:
            continue  # members pair every eraser with one erased symbol
        for word in product(alphabet, repeat=length):
            if vanishes(word, stages):
                found.append(word)
    return found


def min_stages(word: StagedWord) -> Optional[int]:
    """Smallest stage count whose language contains the word, if any.

    Membership is monotone in the stage count and constant once every
    index in the word is covered, so only one pipeline run is needed.
    """
    top = max((s.index for s in word if isinstance(s, Eraser)), default=0)
    candidate = max(top, 1)
    return candidate if vanishes(word, candidate) else None


def words_over(stages: int, max_len: int) -> Iterator[StagedWord]:
    """Every staged word up to max_len over the stage-k alphabet."""
    alphabet = _alphabet(stages)
    for length in range(max_len + 1):
        yield from product(alphabet, repeat=length)
