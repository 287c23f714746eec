"""Coding between staged words and the four letter alphabet 0 1 a b.

Letters map to themselves and Eraser(j) maps to the self delimiting code
``a b^j a``.  Codes never nest and no code is a prefix of another, so
coded text splits into tokens, each a letter or a whole code, in one
way.  One regex match reads the longest run of whole tokens and the
open code ``a b*`` after it, if any.  The text decodes when that match
reaches its end, the open code being the dangling part; otherwise the
tokenizer answers no tokens.  It asks ``fullmatch``, which answers
None, so a coded query that merely rejects (``factorize``,
``viable_prefix``, ``vanishes_coded``) builds no Match and raises
nothing.  Only ``decode`` scans with ``match``, whose end is where the
text goes wrong, and turns that into a MalformedInput, in the one scan
it decodes with.  This module alone reads coded text, stage one's kinds
and the code copies included: it splits the text into tokens, reads
stage one off it (``_stage_one``) and maps each code token to one copy
of its code (``_coded``), which the other coded queries hand the stage
engine with the copies in stage order; only ``decode`` builds symbols.
The one exception is ``omega._rp_key``, the letter rule of the
intersection side of the identity check, which reads order-p blocks a
letter at a time: that check compares it against encoded tokens, so it
shares no rule with them.  ``_coded_length`` gives the pad walk of the
factor enumeration the length of a symbol's code, from this module too.

One table, ``_TABLE``, holds the symbols and their codes both ways: the
letters and Eraser(1) to Eraser(_K).  ``_K`` is 16, fixed by what the
table keeps alive for the life of the process, 16 erasers and 18 short
strings, and never by the words at hand.  ``decode`` and ``encode`` map
every symbol or token through it at C speed.  A decodable text holds
a run of _K + 1 b's exactly when one of its codes, or its dangling
code, has an index past _K, since only a code holds b's.  So one
substring test tells ``decode`` that the table holds every code of the
text, and otherwise it maps through a copy of the table that also
holds the codes past it, each built once; ``encode`` turns to such a
copy when a lookup misses.  Through the copy too, the mapping itself
runs at C speed.

Text that comes in chunks splits the same way chunk by chunk: each
chunk is read behind the code the chunk before left open.  That is how
``_stage_one`` reads the stream of ``viable_prefix``, each chunk as its
stage-one kinds, one character per token.  The match repeats its tokens
possessively: no token is a prefix of another, so a greedy run never
has a token to give back, and the match is the one a backtracking loop
finds, without a frame kept per token.  A read thus costs its token
list, one pointer per token, or its kinds, one character per token,
however long the text.

An ultimately periodic coded word decodes copy by copy: each period
copy is scanned behind the code left open at its boundary, and the open
codes at the boundaries repeat within three copies.  A block stream of
order p is an infinite word that splits into blocks from {0, 1, aba,
abba, .., a b^p a}, so membership is decided by decoding: the word
decodes and no eraser index exceeds p.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import accumulate, repeat

from .words import (ALPHA, BETA, Eraser, MalformedInput, StagedWord, UPWord,
                    up_normalize)

_TOKEN = re.compile("[01]|ab+a")  # a letter or a whole code
_LETTERS = frozenset("01")  # the tokens that are not codes
# the longest run of whole tokens, then the open code after it, empty
# when there is none; the possessive loop (Python 3.11) keeps no
# backtracking frame per token
_SCAN = re.compile(f"(?:{_TOKEN.pattern})*+((?:ab*)?)")

# the highest eraser index in the symbol table, chosen from memory
# alone: the table keeps _K erasers and _K + 2 short strings alive for
# the life of the process, whatever the words
_K = 16


def _spelled(sym) -> str:
    """The code of an eraser, or any other item as ``str`` spells it."""
    if type(sym) is Eraser:
        return ALPHA + BETA * sym.index + ALPHA
    return str(sym)


def _coded_length(sym) -> int:
    """The length of a symbol's code, counted without building it."""
    return sym.index + 2 if type(sym) is Eraser else 1


# the symbol table, both ways: each letter and each code up to _K to its
# symbol, and each symbol to its code
_TABLE = {_spelled(sym): sym
          for sym in (0, 1, *map(Eraser, range(1, _K + 1)))}
_TABLE.update({sym: code for code, sym in _TABLE.items()})
# only a code past _K, whole or dangling, holds this run of b's
_PAST_TABLE = BETA * (_K + 1)
# the types of the symbols the table can code; an item that only equals
# one, True or 1.0, must not take its code
_SYMBOL_TYPES = frozenset({int, Eraser})


def encode(word: StagedWord) -> str:
    """The coded text of a staged word.

    Each symbol's code is looked up in ``_TABLE`` and the codes are
    joined at C speed.  A word with an eraser past ``_K`` or another
    int looks its symbols up in a copy of the table that also holds
    theirs, built once per distinct symbol.  Any other item, such as
    ``True`` or ``1.0``, which would find the code of the int it equals,
    is spelled by itself, as ``str`` spells it.

    Raises MalformedInput, naming the word's highest eraser index, when
    its coded text cannot be built: a code too long for any string
    (OverflowError) or for the memory at hand (MemoryError), from one
    code or from the whole text.
    """
    if type(word) is not tuple:  # read more than once below
        word = tuple(word)
    try:
        if not _SYMBOL_TYPES.issuperset(map(type, word)):
            return "".join(map(_spelled, word))
        try:
            return "".join(map(_TABLE.__getitem__, word))
        except KeyError:  # a symbol past the table
            return "".join(map(_TableCopy(_TABLE).__getitem__, word))
    except (OverflowError, MemoryError):
        indices = [sym.index for sym in word if type(sym) is Eraser]
        if not indices:  # letters alone: no code to name
            raise
        raise MalformedInput(
            f"eraser index {max(indices)} is too large to encode") from None


class _TableCopy(dict):
    """A copy of ``_TABLE`` for one call, which enters each key it
    misses once: a code past _K with its eraser, or any other symbol
    with its code."""

    __slots__ = ()

    def __missing__(self, key):
        value = self[key] = (Eraser(len(key) - 2) if type(key) is str
                             else _spelled(key))
        return value


class DecodeResult(namedtuple("DecodeResult", "symbols dangling")):
    """Decoded symbols plus the dangling tail of an unfinished code.

    encode(symbols) + dangling always reconstructs the input text.
    """

    __slots__ = ()


def _tokenize(text: str) -> tuple[list[str], str] | tuple[None, None]:
    """The tokens of a coded word, each a letter or a whole code, then
    its dangling code; None twice when the text does not decode.

    Rejecting builds neither an exception nor a Match: ``fullmatch``
    answers None.  Only ``decode`` reads where the text goes wrong.
    """
    scan = _SCAN.fullmatch(text)
    if scan is None:
        return None, None
    return _TOKEN.findall(text, 0, scan.start(1)), scan[1]


def _coded(tokens: list[str], letters: Iterable) -> tuple[Iterator, list]:
    """The arguments of ``eraser._stages`` for a word given by its
    tokens: each code token as the one copy of its code, each letter
    token as the matching item of letters, lazily; then the copies in
    stage order.  A stage tells its active code by identity once each
    code token is mapped to its copy.

    The codes ``a b^j a`` sort as strings in index order, since at
    position j + 1 an ``a`` comes before a ``b``, so their sort order is
    the stage order.
    """
    codes = {code: code for code in sorted(set(tokens) - _LETTERS)}
    return map(codes.get, tokens, letters), list(codes)


def _stage_one(depth: int, carry: str, chunk: str) -> tuple[int, str] | None:
    """Stage one over the tokens of carry + chunk from depth: the depth
    after them and the code left open, cut to ``abb``; None when the
    text does not decode or an eraser starves.

    Stage one pushes every token but the code of Eraser(1), which pops,
    so its stack is one counter.  The counter runs over the stage-one
    kinds of the whole tokens, the body, one character per token: a
    letter stays itself, the code of Eraser(1) becomes ``d`` and any
    other code ``c``, in three passes at C speed:
    ``body.replace("aba", "d").replace("b", "").replace("aa", "c")``.

    * In whole-token text ``aba`` occurs only as the code of Eraser(1):
      no token starts with b, so a closing a is never followed by one,
      and the first a of an occurrence opens a code, which the second
      closes.  Those codes are disjoint, so the first pass replaces each
      of them and nothing else.
    * Once the remaining b's are deleted, each other code is an
      adjacent ``aa`` pair, and the letters and ``d`` hold no a.
      Pairing left to right therefore pairs each code's own a's.

    One pass per distinct code would cost letters times distinct
    indices; these three are linear in the letters whatever the codes.
    An open code with two or more b's is carried as ``abb``: it can only
    close as an index >= 2 eraser, and stage one treats all of those
    alike.
    """
    scan = _SCAN.fullmatch(text := carry + chunk)
    if scan is None:
        return None
    kinds = text[:scan.start(1)].replace("aba", "d").replace("b", "")
    kinds = kinds.replace("aa", "c")
    pops = kinds.count("d")
    # depth falls by at most pops, so only then can an eraser starve
    if pops > depth and min(accumulate(map({"d": -1}.get, kinds, repeat(1)),
                                       initial=depth)) < 0:
        return None
    return depth + len(kinds) - 2 * pops, scan[1][:3]


def decode(text: str) -> DecodeResult:
    """Decode coded text; a code left open at its end is the dangling part.

    One scan finds the tokens, or where the text goes wrong.  The
    tokens map to their symbols through ``_TABLE`` when the text holds
    no run of _K + 1 b's, and otherwise through a copy of it that also
    holds each code past _K, whose eraser is built once.

    Raises MalformedInput, with a 1-based position, on text that no
    extension could complete: a malformed code (a stray b, an empty code,
    or a code broken by another character, at that character) or an
    unexpected character.
    """
    scan = _SCAN.match(text)
    if scan.end() < len(text):
        # the text goes wrong just after the longest decodable run
        pos = scan.end() + 1
        if scan[1] or text[pos - 1] == BETA:
            raise MalformedInput("malformed code", pos)
        raise MalformedInput(f"unexpected character {text[pos - 1]!r}", pos)
    tokens = _TOKEN.findall(text, 0, scan.start(1))
    symbol = _TableCopy(_TABLE) if _PAST_TABLE in text else _TABLE
    return DecodeResult(tuple(map(symbol.__getitem__, tokens)), scan[1])


def encode_up(x: UPWord) -> UPWord:
    """Image of an ultimately periodic staged word, normalized."""
    return up_normalize(UPWord(encode(x.prefix), encode(x.period)))


def decode_up(x: UPWord) -> UPWord:
    """Decode an ultimately periodic coded word into a staged one.

    Works whenever the denoted word is an infinite sequence of complete
    codes and letters; otherwise raises MalformedInput, with decode's
    message and position where a finite prefix is malformed, and "code
    never closes" where a code stays open for ever.  Each period copy is
    decoded behind the code left open at its boundary; the staged period
    is read off between two boundaries that leave the same open code.
    A malformed copy's fault is shifted to its place in the unrolled
    word.
    """
    res = decode(x.prefix)
    symbols = list(res.symbols)
    seen: dict[str, int] = {}
    # a period with an a leaves one of two open codes after its last a,
    # so a boundary repeats within three copies
    while res.dangling not in seen:
        # where the copy's text, open code first, starts in the unrolled word
        at = len(x.prefix) + len(seen) * len(x.period) - len(res.dangling)
        seen[res.dangling] = len(symbols)
        try:
            res = decode(res.dangling + x.period)
        except MalformedInput as exc:
            raise exc.shifted(at) from None
        symbols += res.symbols
        # a code open after a copy without an a only ever gains b's
        if res.dangling and ALPHA not in x.period:
            raise MalformedInput("code never closes")
    start = seen[res.dangling]
    return up_normalize(UPWord(tuple(symbols[:start]), tuple(symbols[start:])))


def in_block_stream(x: UPWord, p: int) -> bool:
    """Is the denoted infinite word a stream of order-p blocks?"""
    if p < 1:
        raise ValueError("block order must be >= 1")
    try:
        y = decode_up(x)
    except MalformedInput:
        return False
    return all(sym.index <= p for sym in y.prefix + y.period
               if type(sym) is Eraser)
