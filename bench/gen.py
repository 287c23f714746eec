"""Seeded benchmark inputs whose answers are known by construction.

This module never imports eraserlang: every answer attached to an input
comes from how the input was built, or from the literal definitions
below, never from the code the benchmark measures.

Representation
--------------
staged word  tuple of ints; 0 and 1 are letters, -j is the eraser Ej
coded word   str over ``0 1 a b``; Ej is coded as ``a b^j a``

Constructions
-------------
* A one-stage block is a word of the grammar ``S -> x S Ek S | empty``
  whose openers x are letters or erasers of index above k.  Run over any
  stack, stage k erases the block completely and touches nothing else.
* A pad nests stages: a pad for stage k+1 gets stage-k blocks inserted
  between its symbols.  Stage k removes the blocks and leaves the stage
  k+1 pad, and so on up, so the whole word erases to nothing.
* A factor is ``(pad 0)* (pad 1)`` in coded form and a stream is a
  concatenation of factors.  Factorizations are unique (the factor
  language is a code), so a stream has exactly one, at its build cuts.
* A word that does not decode (a stray ``b`` outside a code, the empty
  code ``aa``) has no factorization and is no prefix of the omega power.
"""

from __future__ import annotations

import random
from itertools import product

LETTERS = (0, 1)


# ------------------------------------------------------------ definitions

def encode(word) -> str:
    return "".join(str(s) if s >= 0 else "a" + "b" * -s + "a" for s in word)


def format_staged(word) -> str:
    return " ".join(str(s) if s >= 0 else f"E{-s}" for s in word)


def decode(text: str):
    """Literal left-to-right decoder: (symbols, dangling), or None when no
    extension of the text is a code sequence."""
    out, i, n = [], 0, len(text)
    while i < n:
        ch = text[i]
        if ch in "01":
            out.append(int(ch))
            i += 1
        elif ch == "a":
            j = i + 1
            while j < n and text[j] == "b":
                j += 1
            if j == n:
                return tuple(out), text[i:]
            if text[j] != "a" or j == i + 1:
                return None
            out.append(-(j - i - 1))
            i = j + 1
        else:
            return None
    return tuple(out), ""


def stage_pass(word, j):
    """One pass of Ej over the word: surviving stack, None when Ej starves."""
    stack = []
    for s in word:
        if s == -j:
            if not stack:
                return None
            stack.pop()
        else:
            stack.append(s)
    return tuple(stack)


def pipeline(word, stages):
    word = tuple(word)
    for j in range(1, stages + 1):
        word = stage_pass(word, j)
        if word is None:
            return None
    return word


def top_index(word) -> int:
    return max((-s for s in word if s < 0), default=0)


def vanishes(word) -> bool:
    return pipeline(word, top_index(word)) == ()


def is_pad(text: str) -> bool:
    dec = decode(text)
    return dec is not None and dec[1] == "" and vanishes(dec[0])


def is_factor(text: str) -> bool:
    """Is the text (pad 0)* (pad 1)?  Literal split search."""
    n = len(text)
    if n == 0 or text[-1] != "1":
        return False
    reach = [True] + [False] * n  # reach[i]: text[:i] is (pad 0)*
    for j in range(1, n):
        reach[j] = text[j - 1] == "0" and any(
            reach[i] and is_pad(text[i:j - 1]) for i in range(j))
    return any(reach[i] and is_pad(text[i:n - 1]) for i in range(n))


def normalize_up(prefix, period):
    """Shortest prefix and primitive period denoting the same word."""
    n = len(period)
    root = next(period[:d] for d in range(1, n + 1)
                if n % d == 0 and period[:d] * (n // d) == period)
    while prefix and prefix[-1] == root[-1]:
        root = root[-1:] + root[:-1]
        prefix = prefix[:-1]
    return prefix, root


# ------------------------------------------------------- exhaustive sets

def staged_by_cost(budget: int):
    """Every staged word whose coded length is at most budget."""
    stack = [()]
    while stack:
        word = stack.pop()
        yield word
        cost = len(encode(word))
        for s in (0, 1):
            if cost + 1 <= budget:
                stack.append(word + (s,))
        for j in range(1, budget - cost - 1):
            stack.append(word + (-j,))


def pads_by_length(budget: int) -> dict[int, list[str]]:
    rows: dict[int, list[str]] = {n: [] for n in range(budget + 1)}
    for word in staged_by_cost(budget):
        if len(word) % 2 == 0 and vanishes(word):
            text = encode(word)
            rows[len(text)].append(text)
    return rows


def factors_upto(max_len: int) -> list[str]:
    """Every factor of coded length at most max_len, in length order,
    ties broken by 0 < 1 < a < b (which is ASCII order)."""
    pads = pads_by_length(max_len - 1)
    chains = {0: {""}}  # chains[n]: (pad 0)* words of length n
    for n in range(1, max_len):
        chains[n] = {left + pad + "0"
                     for i in range(n) for left in chains[i]
                     for pad in pads[n - i - 1]}
    found = {left + pad + "1"
             for n in range(1, max_len + 1) for i in range(n)
             for left in chains[i] for pad in pads[n - i - 1]}
    return sorted(found, key=lambda w: (len(w), w))


def concatenations(factors: list[str], max_len: int) -> dict[str, tuple]:
    """Every nonempty factor concatenation up to max_len, with its cuts."""
    found: dict[str, tuple] = {}
    frontier = [("", (0,))]
    while frontier:
        word, cuts = frontier.pop()
        for f in factors:
            if len(word) + len(f) > max_len:
                break
            w = word + f
            c = cuts + (len(w),)
            if w in found:
                raise AssertionError(f"two factorizations of {w}")
            found[w] = c
            frontier.append((w, c))
    return found


def grammar_members(max_len: int) -> set:
    """One-stage words derived by S -> x S E1 S | empty, x a letter."""
    by_len = {0: {()}}
    for n in range(2, max_len + 1, 2):
        words = set()
        for inner in range(0, n - 1, 2):
            for u in by_len[inner]:
                for v in by_len[n - 2 - inner]:
                    for x in LETTERS:
                        words.add((x,) + u + (-1,) + v)
        by_len[n] = words
    return set().union(*by_len.values())


# ------------------------------------------------------ random builders

def dyck(rng: random.Random, pairs: int, stage: int, top: int,
         letter_share: float) -> list:
    """A random word of S -> x S E_stage S | empty with `pairs` pairs."""
    out: list = []
    opened = depth = 0
    while opened < pairs or depth:
        if opened < pairs and (depth == 0 or rng.random() < 0.5):
            if stage < top and rng.random() >= letter_share:
                out.append(-rng.randint(stage + 1, top))
            else:
                out.append(rng.choice(LETTERS))
            opened += 1
            depth += 1
        else:
            out.append(-stage)
            depth -= 1
    return out


def pad(rng: random.Random, pairs: int, top: int, letter_share: float,
        stage: int = 1) -> list:
    """A random staged word that stages stage..top erase to nothing.

    With top above stage, half the pairs go to a pad for the next stage
    and the rest to stage blocks inserted at random gaps of it.
    """
    if stage >= top or pairs < 2:
        return dyck(rng, pairs, stage, top, letter_share)
    upper = pad(rng, pairs // 2, top, letter_share, stage + 1)
    rest = pairs - pairs // 2
    gaps = sorted(rng.randint(0, len(upper)) for _ in range(rng.randint(1, 3)))
    sizes = _split(rng, rest, len(gaps))
    out: list = []
    prev = 0
    for gap, size in zip(gaps, sizes):
        out.extend(upper[prev:gap])
        out.extend(dyck(rng, size, stage, top, letter_share))
        prev = gap
    out.extend(upper[prev:])
    return out


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def factor(rng: random.Random, pads: int, pairs: int, top: int,
           letter_share: float) -> str:
    """A coded factor (pad 0)^(pads-1) (pad 1), each pad of `pairs` pairs.

    The shape is fixed by the arguments and only the symbols are drawn, so
    factors of one shape cost the deciders about the same.
    """
    return "0".join(encode(pad(rng, pairs, top, letter_share))
                    for _ in range(pads)) + "1"


def stream(rng: random.Random, factors: int, pads: int, pairs: int, top: int,
           letter_share: float) -> tuple[str, tuple[int, ...]]:
    """A stream of `factors` factors and its cuts."""
    text, cuts = "", [0]
    for _ in range(factors):
        text += factor(rng, pads, pairs, top, letter_share)
        cuts.append(len(text))
    return text, tuple(cuts)


def mountain(rng: random.Random, pairs: int) -> tuple:
    """The one-stage member x1 .. xm E1^m with random letters x."""
    return tuple(rng.choice(LETTERS) for _ in range(pairs)) + (-1,) * pairs


def outside_positions(text: str, start: int = 0) -> list[int]:
    """Positions from `start` on where a code may begin: 0 and after each
    letter or closing a."""
    out, inside = [0], False
    for i, ch in enumerate(text):
        if ch == "a":
            inside = not inside
        if not inside and ch in "01a":
            out.append(i + 1)
    return [p for p in out if p >= start]


def inside_positions(text: str, start: int = 0) -> list[int]:
    """Cut points from `start` on that stop strictly inside a code."""
    out, inside = [], False
    for i, ch in enumerate(text):
        if ch == "a":
            inside = not inside
            if inside:
                out.append(i + 1)
        elif inside:
            out.append(i + 1)
    return [p for p in out if p >= start]


def spoil(rng: random.Random, text: str, start: int = 0) -> tuple[str, int]:
    """Insert a stray b or an empty code aa, from `start` on, where a code
    may begin; the result does not decode.  Returns it with the 1-based
    position of the error."""
    pos = rng.choice(outside_positions(text, start))
    if rng.random() < 0.5:
        return text[:pos] + "b" + text[pos:], pos + 1
    return text[:pos] + "aa" + text[pos:], pos + 2


def erasable(rng: random.Random, symbols: int, top: int, kept: int,
             letter_share: float) -> tuple[list, list]:
    """A staged word of about `symbols` symbols that the top-stage
    pipeline erases down to `kept` letters; returns (word, survivors)."""
    survivors = [rng.choice(LETTERS) for _ in range(kept)]
    word: list = []
    per = max(1, symbols // (2 * (kept + 1)))
    for s in survivors + [None]:
        word.extend(pad(rng, rng.randint(per // 2, per * 3 // 2), top,
                        letter_share))
        if s is not None:
            word.append(s)
    return word, survivors


def near_miss(rng: random.Random, member, i: int) -> tuple:
    """Swap the letter at i for E1, or the E1 at i for a letter.  The
    counts of letters and erasers then differ, so the word is no one-stage
    member."""
    sym = -1 if member[i] >= 0 else rng.choice(LETTERS)
    return member[:i] + (sym,) + member[i + 1:]


def shuffled_by_length(rng: random.Random, words) -> list:
    """Words in length order, shuffled within each length."""
    groups: dict[int, list] = {}
    for w in words:
        groups.setdefault(len(w), []).append(w)
    out = []
    for n in sorted(groups):
        g = groups[n]
        rng.shuffle(g)
        out.extend(g)
    return out


def coded_words(max_len: int):
    for n in range(max_len + 1):
        for t in product("01ab", repeat=n):
            yield "".join(t)


def staged_words(max_len: int, top: int):
    alphabet = [0, 1] + [-j for j in range(1, top + 1)]
    for n in range(max_len + 1):
        yield from product(alphabet, repeat=n)
