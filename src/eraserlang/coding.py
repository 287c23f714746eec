"""Coding between staged words and the four letter alphabet 0 1 a b.

Letters map to themselves and Eraser(j) maps to the self delimiting code
``a b^j a``.  Codes never nest and no code is a prefix of another, so a
left to right scan decodes deterministically; a word may end in the
middle of a code, which decode reports as the dangling part.

An ultimately periodic coded word decodes copy by copy: each period
copy is scanned behind the code left open at its boundary, and the open
codes at the boundaries repeat within three copies.  A block stream of
order p is an infinite word that splits into blocks from {0, 1, aba,
abba, .., a b^p a}, so membership is decided by decoding: the word
decodes and no eraser index exceeds p.
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


def decode_up(x: UPWord) -> UPWord:
    """Decode an ultimately periodic coded word into a staged one.

    Works whenever the denoted word is an infinite sequence of complete
    codes and letters; otherwise raises MalformedInput, with decode's
    message and position where a finite prefix is malformed, and "code
    never closes" where a code stays open for ever.  Each period copy is
    decoded behind the code left open at its boundary; the staged period
    is read off between two boundaries that leave the same open code.
    """
    res = decode(x.prefix)
    symbols = list(res.symbols)
    seen: dict[str, int] = {}
    # a period with an a leaves one of two open codes after its last a,
    # so a boundary repeats within three copies
    while res.dangling not in seen:
        seen[res.dangling] = len(symbols)
        try:
            res = decode(res.dangling + x.period)
        except MalformedInput:  # decode raises alike on the unrolled word
            decode(up_prefix(x, len(x.prefix) + len(seen) * len(x.period)))
            raise
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
               if isinstance(sym, Eraser))
