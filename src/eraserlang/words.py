"""Alphabets, finite words, and ultimately periodic infinite words.

Two disjoint symbol universes are used throughout the package:

* coded words: plain strings over the four characters ``0 1 a b``,
  where ``a`` and ``b`` are the two coding letters,
* staged words: tuples mixing the integer letters ``0``/``1`` with
  indexed backspace symbols ``Eraser(j)``.

Keeping the universes as distinct Python types (str vs tuple) rules out
accidental mixing; conversion happens only through the coding module.

An ultimately periodic infinite word is a pair prefix|period over either
universe.  Everything here is immutable and all functions are pure.

Text formats
------------
coded word    one character per symbol, e.g. ``0abba1``
staged word   whitespace separated tokens ``0``, ``1``, ``E<j>``,
              e.g. ``0 E2 1``; the empty string is the empty word
infinite word ``<prefix>|<period>``, e.g. ``|01`` or ``1 1|E1 0``
"""

from __future__ import annotations

import _thread
import re
from collections import namedtuple
from weakref import WeakValueDictionary

ALPHA = "a"
BETA = "b"


class MalformedInput(ValueError):
    """Rejected input: a complaint, and the 1-based text position it is
    about when one is known, which the text of the exception gives after
    the complaint.  The command line prints that text and exits 2."""

    def __init__(self, complaint: str, position: int | None = None):
        self.complaint, self.position = complaint, position
        super().__init__(complaint if position is None
                         else f"{complaint} at position {position}")

    def shifted(self, by: int) -> "MalformedInput":
        """The same complaint, about text that starts by characters into
        a longer one."""
        return MalformedInput(self.complaint, self.position + by)


class Eraser:
    """Backspace symbol of a given stage.

    During stage j only ``Eraser(j)`` is active; it may erase a letter or
    an eraser of strictly larger index, never one of its own kind.

    ``Eraser(j)`` returns the one live eraser of index j, so equality and
    hashing are by identity, at C speed.  The index must be exactly an
    int: ``1.0`` or ``True`` would otherwise stand in the table for 1.
    Immutable.  Not a tuple: erasers sit inside staged words, which are
    tuples, so ``Eraser(1)`` must differ from ``(1,)``.

    Final: the loops over staged words tell an eraser from a letter by
    ``type(sym) is Eraser``, which a subclass would fail.
    """

    __slots__ = ("index", "__weakref__")

    def __init_subclass__(cls, **kwargs):
        raise TypeError("Eraser cannot be subclassed")

    def __new__(cls, index: int):
        if type(index) is not int:
            raise TypeError(f"eraser index must be an int, got {index!r}")
        eraser = _LIVE.get(index)
        if eraser is None:
            if index < 1:
                raise MalformedInput(f"eraser index must be >= 1, got {index}")
            with _MAKING:  # so that two threads never make two of one index
                eraser = _LIVE.get(index)
                if eraser is None:
                    eraser = _LIVE[index] = object.__new__(cls)
                    object.__setattr__(eraser, "index", index)
        return eraser

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"Eraser(index={self.index!r})"

    def __reduce__(self):
        return Eraser, (self.index,)


# the live eraser of each index, kept only while something else holds it
_LIVE: WeakValueDictionary[int, Eraser] = WeakValueDictionary()
_MAKING = _thread.allocate_lock()

StagedWord = tuple
# a finite word of either universe
AnyWord = str | tuple

_STAGED_TOKEN = re.compile(r"E[1-9][0-9]*$")
# a character outside the coded, or the binary, alphabet
_NOT_CODED = re.compile("[^01ab]")
_NOT_BINARY = re.compile("[^01]")


def _check_chars(text: str, outside: re.Pattern) -> str:
    """Return text if outside, a one-character class, matches nowhere in
    it; the 1-based position of a bad character is its match's end."""
    bad = outside.search(text)
    if bad:
        raise MalformedInput(f"unexpected character {bad[0]!r}", bad.end())
    return text


def parse_coded(text: str) -> str:
    """Validate a coded word; returns the word itself."""
    return _check_chars(text, _NOT_CODED)


def parse_binary(text: str) -> str:
    return _check_chars(text, _NOT_BINARY)


def parse_staged(text: str) -> StagedWord:
    """Parse whitespace separated tokens ``0 | 1 | E<j>`` into a staged word."""
    symbol = {"0": 0, "1": 1}  # each distinct token is read once
    symbols = []
    for m in re.finditer(r"\S+", text):
        tok = m.group()
        if tok not in symbol:
            if not _STAGED_TOKEN.match(tok):
                raise MalformedInput(f"unexpected token {tok!r}", m.start() + 1)
            try:  # int() refuses more digits than Python's limit allows
                symbol[tok] = Eraser(int(tok[1:]))
            except ValueError:
                raise MalformedInput("eraser index has too many digits",
                                     m.start() + 1) from None
        symbols.append(symbol[tok])
    return tuple(symbols)


def format_staged(word: StagedWord) -> str:
    parts = []
    for sym in word:
        if type(sym) is Eraser:
            parts.append(f"E{sym.index}")
        else:
            parts.append(str(sym))
    return " ".join(parts)


def format_word(word: AnyWord) -> str:
    return word if isinstance(word, str) else format_staged(word)


class UPWord(namedtuple("UPWord", "prefix period")):
    """Ultimately periodic infinite word ``prefix . period^omega``.

    prefix and period must come from the same universe (both str or both
    tuple) and the period must be nonempty.  Structural equality compares
    the fields; use up_equal for equality of the denoted infinite words.
    """

    __slots__ = ()

    def __new__(cls, prefix: AnyWord, period: AnyWord):
        if len(period) == 0:
            raise MalformedInput("period must be nonempty")
        if type(prefix) is not type(period):
            raise MalformedInput("prefix and period use different alphabets")
        return super().__new__(cls, prefix, period)


_PARSERS = {"coded": parse_coded, "staged": parse_staged,
            "binary": parse_binary}


def parse_up(text: str, kind: str = "coded") -> UPWord:
    """Parse ``<prefix>|<period>``; kind is coded, staged or binary.

    Positions count from the start of the whole text, so a malformed
    period is reported past the prefix and the separator."""
    left, bar, right = text.partition("|")
    if not bar or "|" in right:
        # an extra separator is placed at itself, a missing one past the end
        at = len(left) + 2 + right.index("|") if bar else len(text) + 1
        raise MalformedInput("expected exactly one '|' separator", at)
    parse = _PARSERS.get(kind)
    if parse is None:
        raise ValueError(f"unknown word kind {kind!r}")
    prefix = parse(left)
    try:
        period = parse(right)
    except MalformedInput as exc:
        raise exc.shifted(len(left) + 1) from None
    if len(period) == 0:  # placed where it would start
        raise MalformedInput("period must be nonempty", len(left) + 2)
    return UPWord(prefix, period)


def format_up(x: UPWord) -> str:
    return f"{format_word(x.prefix)}|{format_word(x.period)}"


def up_prefix(x: UPWord, n: int) -> AnyWord:
    """The first n symbols of the denoted infinite word."""
    if n < 0:
        raise ValueError("length must be >= 0")
    if n <= len(x.prefix):
        return x.prefix[:n]
    rest = n - len(x.prefix)
    reps = -(-rest // len(x.period))
    return x.prefix + (x.period * reps)[:rest]


def _primitive_root(v: AnyWord) -> AnyWord:
    n = len(v)
    for d in range(1, n):
        if n % d == 0 and v[:d] * (n // d) == v:
            return v[:d]
    return v


def up_normalize(x: UPWord) -> UPWord:
    """Canonical form: primitive period, shortest prefix.

    While the prefix ends with the same symbol the period ends with, that
    symbol can be absorbed by rotating the period right; the result is the
    unique shortest representation of the denoted word.  The k absorbed
    symbols are the prefix's longest tail that agrees with the period
    repeated, so they are counted first and cut off in one step.
    """
    v = _primitive_root(x.period)
    u = x.prefix
    n = len(v)
    k = 0
    while k < len(u) and u[-1 - k] == v[-1 - k % n]:
        k += 1
    r = n - k % n
    return UPWord(u[:len(u) - k], v[r:] + v[:r])


def up_equal(x: UPWord, y: UPWord) -> bool:
    """Do x and y denote the same infinite word?"""
    return up_normalize(x) == up_normalize(y)
