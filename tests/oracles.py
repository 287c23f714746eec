"""Independent reference implementations backing the test suite.

Everything here is written in the most literal style available: plain
unrolling, explicit stacks, exhaustive search.  None of the closed
forms, caches, or pruning of the library appear here, so a test that
compares the two sides points at a real defect when it fails.
"""

from itertools import product

from eraserlang import (Eraser, MalformedInput, UPWord, factorize, is_factor,
                        nth_factor)


def take(x: UPWord, n: int):
    """First n symbols of u.v^omega by unrolling."""
    out = list(x.prefix)
    while len(out) < n:
        out.extend(x.period)
    out = out[:n]
    if isinstance(x.prefix, str):
        return "".join(out)
    return tuple(out)


def primitive_root(v):
    for d in range(1, len(v) + 1):
        if len(v) % d == 0 and v[:d] * (len(v) // d) == v:
            return v[:d]
    raise AssertionError("unreachable: v is its own root")


def single_pass(word, active=1):
    """One eraser pass, the definition: push letters, pop on the active
    eraser, fail on an empty pop."""
    stack = []
    eraser = Eraser(active)
    for sym in word:
        if sym == eraser:
            if not stack:
                return None
            stack.pop()
        else:
            stack.append(sym)
    return tuple(stack)


def pipeline(word, stages):
    """Sequential stage passes 1..stages; None once any stage fails."""
    current = tuple(word)
    for j in range(1, stages + 1):
        current = single_pass(current, j)
        if current is None:
            return None
    return current


def vanishes_brute(word, stages):
    if any(isinstance(s, Eraser) and s.index > stages for s in word):
        return False
    return pipeline(word, stages) == ()


def grammar_loop(word):
    """The grammar decider's loop alone, with no refusal by shape: the
    LL(1) parse of S -> a S E S | empty, its stack S (E S)^h kept as the
    height h, over every word."""
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


def min_stages_brute(word, kmax=6):
    for k in range(1, kmax + 1):
        if vanishes_brute(word, k):
            return k
    return None


def decode_by_hand(text):
    """decode as a character loop: (symbols, dangling), or MalformedInput
    with decode's message and position.

    Outside a code a letter is a symbol and an a opens a code; the code
    runs over b's up to the next a.  Text ending on an open code dangles.
    """
    symbols = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "0" or ch == "1":
            symbols.append(int(ch))
            i += 1
        elif ch == "a":
            j = i + 1
            while j < n and text[j] == "b":
                j += 1
            if j == n:
                return tuple(symbols), text[i:]
            if text[j] != "a" or j == i + 1:
                raise MalformedInput("malformed code", j + 1)
            symbols.append(Eraser(j - i - 1))
            i = j + 1
        elif ch == "b":
            raise MalformedInput("malformed code", i + 1)
        else:
            raise MalformedInput(f"unexpected character {ch!r}", i + 1)
    return tuple(symbols), ""


def staged_words(max_len, top_index):
    """Every staged word of length <= max_len over indices <= top_index,
    shortest first, then alphabet order 0 < 1 < E1 < ... < En."""
    alphabet = [0, 1] + [Eraser(j) for j in range(1, top_index + 1)]
    for length in range(max_len + 1):
        yield from product(alphabet, repeat=length)


def factors_by_filter(max_len):
    """Every factor up to max_len: each coded word, shortest first, then
    0 < 1 < a < b, that is_factor accepts."""
    words = ("".join(tup) for n in range(1, max_len + 1)
             for tup in product("01ab", repeat=n))
    return [w for w in words if is_factor(w)]


def factor_rows(max_len):
    """Factors grouped by length, taken from the library enumeration.

    The enumeration itself is cross-checked elsewhere against
    factors_by_filter, so the rows can serve as ground truth here.
    """
    rows = {}
    i = 0
    while True:
        w = nth_factor(i)
        if len(w) > max_len:
            return rows
        rows.setdefault(len(w), []).append(w)
        i += 1


def concat_members(rows, total_len):
    """All nonempty factor concatenations up to total_len, by length."""
    members = {n: set(rows.get(n, ())) for n in range(total_len + 1)}
    for n in range(1, total_len + 1):
        for head in range(1, n):
            tails = rows.get(n - head, ())
            if tails:
                fresh = [m + f for m in members[head] for f in tails]
                members[n].update(fresh)
    return members


def prefix_oracle(members, max_prefix, slack):
    """Words w, |w| <= max_prefix, that some member extends within slack
    extra letters: the literal meaning of the bounded extension search."""
    ok = set()
    for n, words in members.items():
        lo = max(0, n - slack)
        hi = min(max_prefix, n)
        for m in words:
            for cut in range(lo, hi + 1):
                ok.add(m[:cut])
    return ok


def viable_by_extension(word, zmax):
    """The z-search spelled out: try every coded extension up to zmax."""
    for length in range(zmax + 1):
        for tup in product("01ab", repeat=length):
            if factorize(word + "".join(tup)).count == 1:
                return True
    return False


def sigma_blocks(text):
    """Complete 0^n 1 blocks of a binary word plus the open remainder."""
    counts = []
    zeros = 0
    for ch in text:
        if ch == "0":
            zeros += 1
        else:
            counts.append(zeros)
            zeros = 0
    return counts, zeros
