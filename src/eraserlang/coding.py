"""Coding between staged words and the four letter alphabet 0 1 a b.

Letters map to themselves and Eraser(j) maps to the self delimiting code
``a b^j a``.  Codes never nest and no code is a prefix of another, so a
left to right scan decodes deterministically; a word may end in the
middle of a code, which decode reports as the dangling part.

A block stream of order p is an infinite word that splits into blocks
from {0, 1, aba, abba, .., a b^p a}.  The scanner state (outside a code,
or inside with a beta count) is finite, so membership for ultimately
periodic words is decided by running the scanner until the state at a
period boundary repeats.
"""

from __future__ import annotations

from typing import NamedTuple

from .words import (ALPHA, BETA, Eraser, MalformedInput, StagedWord, UPWord,
                    up_normalize, up_prefix)

_OUT = -1  # scanner state: outside any code; n >= 0 means inside with n betas


def encode(word: StagedWord) -> str:
    parts = []
    for sym in word:
        if isinstance(sym, Eraser):
            parts.append(ALPHA + BETA * sym.index + ALPHA)
        else:
            parts.append(str(sym))
    return "".join(parts)


class DecodeResult(NamedTuple):
    """Decoded symbols plus the dangling tail of an unfinished code.

    encode(symbols) + dangling always reconstructs the input text.
    """

    symbols: StagedWord
    dangling: str


def decode(text: str) -> DecodeResult:
    """Scan a coded word; raises MalformedInput on text that no extension
    could complete to a code sequence (stray b, empty code, letter inside
    a code)."""
    symbols = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "0" or ch == "1":
            symbols.append(int(ch))
            i += 1
        elif ch == ALPHA:
            j = i + 1
            while j < n and text[j] == BETA:
                j += 1
            if j == n:
                return DecodeResult(tuple(symbols), text[i:])
            if text[j] != ALPHA or j == i + 1:
                raise MalformedInput(f"malformed code at position {j + 1}",
                                     j + 1)
            symbols.append(Eraser(j - i - 1))
            i = j + 1
        elif ch == BETA:
            raise MalformedInput(f"malformed code at position {i + 1}", i + 1)
        else:
            raise MalformedInput(
                f"unexpected character {ch!r} at position {i + 1}", i + 1)
    return DecodeResult(tuple(symbols), "")


def encode_up(x: UPWord) -> UPWord:
    """Image of an ultimately periodic staged word, normalized."""
    return up_normalize(UPWord(encode(x.prefix), encode(x.period)))


def _scan_step(state: int, ch: str, p: int) -> int | None:
    """Advance the order-p block scanner by one character; None rejects."""
    if state == _OUT:
        if ch == "0" or ch == "1":
            return _OUT
        if ch == ALPHA:
            return 0
        return None  # beta outside a code
    if ch == BETA:
        return state + 1 if state + 1 <= p else None
    if ch == ALPHA:
        return _OUT if state >= 1 else None  # empty codes are not blocks
    return None  # letter inside a code


def in_block_stream(x: UPWord, p: int) -> bool:
    """Is the denoted infinite word a stream of order-p blocks?"""
    if p < 1:
        raise ValueError("block order must be >= 1")
    state = _OUT
    for ch in x.prefix:
        state = _scan_step(state, ch, p)
        if state is None:
            return False
    seen = set()
    while state not in seen:
        seen.add(state)
        for ch in x.period:
            state = _scan_step(state, ch, p)
            if state is None:
                return False
    return True


def decode_up(x: UPWord) -> UPWord:
    """Decode an ultimately periodic coded word into a staged one.

    Works whenever the denoted word is an infinite sequence of complete
    codes and letters; otherwise raises MalformedInput, with decode's
    message and position where a finite prefix is malformed, and "code
    never closes" where a code stays open for ever.  The staged period is
    read off between two period boundaries with equal scanner state.
    """
    symbols: list = []
    state = _decode_steps(symbols, _OUT, x.prefix)
    seen: dict[int, int] = {}
    # a period with an a leaves the scanner in one of two states after
    # its last a, so a boundary state repeats within three copies
    while state is not None and state not in seen:
        seen[state] = len(symbols)
        state = _decode_steps(symbols, state, x.period)
        # a code open after a copy without an a only ever gains b's
        if state not in (None, _OUT) and ALPHA not in x.period:
            raise MalformedInput("code never closes")
    if state is None:  # decode scans alike and raises at the same letter
        decode(up_prefix(x, len(x.prefix) + len(seen) * len(x.period)))
    start = seen[state]
    return up_normalize(UPWord(tuple(symbols[:start]), tuple(symbols[start:])))


def _decode_steps(symbols: list, state: int, text: str) -> int | None:
    """Run decode's scan over text from a scanner state, appending the
    symbols it completes; the state after it, None where decode raises."""
    for ch in text:
        if state == _OUT:
            if ch == "0" or ch == "1":
                symbols.append(int(ch))
            elif ch == ALPHA:
                state = 0
            else:
                return None
        elif ch == BETA:
            state += 1
        elif ch == ALPHA and state:
            symbols.append(Eraser(state))
            state = _OUT
        else:
            return None
    return state
