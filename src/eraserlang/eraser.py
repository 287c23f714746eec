"""Backspace evaluation over finite and ultimately periodic staged words.

A pass runs left to right with a stack.  Symbols that are not the active
eraser are pushed; the active eraser pops the most recently surviving
symbol.  An active eraser that finds nothing to pop makes the whole
evaluation undefined (it can never be repaired by later input, because a
pass consumes its word strictly left to right).

Multi-stage evaluation runs one pass per index, stage 1 first.  At stage
j the active eraser is Eraser(j); letters and erasers of larger index
are ordinary erasable material for it.  Erasers of smaller index cannot
occur at stage j since earlier stages consumed them.

Each job has one pass.  ``_stages`` runs every stage over a finite
word and returns the survivors, or None when an eraser starves.  It
serves the staged words, the prefix of an ultimately periodic word (one
stage at a time) and the coded queries alike, since it compares each
symbol with the stage's active one by identity and reads nothing else
of it: erasers are interned (see words.Eraser), and a coded query maps
each code token to one copy of its code (see coding._coded).
``_pass_profile`` profiles periods only, whose pops may reach below
the stack level a period starts at.  ``_vanishing_top`` gives only the
verdict "erased to nothing" in one pass over the symbols: it counts
stack depth while the word shows one eraser index, only records a
starved eraser (a smaller index further on would run first and might
pop it), and hands the word to ``_stages`` as soon as a second index
appears.
``certificate_holds`` keeps a literal replay of its own, so that the
checker shares no code with the evaluator whose certificates it checks.

For an ultimately periodic word the net effect of one period on a
sufficiently deep stack is a constant of the period alone: it pops some
fixed number of symbols (``dig``) and then leaves a fixed pushed word on
top.  Comparing dig against the push length decides everything:

* push longer than dig: the stack grows forever, the surviving word is
  infinite and ultimately periodic,
* push equal to dig: each period erases exactly what the previous one
  left, only the untouched stack bottom survives,
* push shorter than dig: the stack shrinks and some eraser eventually
  starves, so the evaluation is undefined.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from operator import attrgetter

from .words import Eraser, MalformedInput, StagedWord, UPWord, up_normalize

UNDEFINED = "undefined"
FINITE = "finite"
INFINITE = "infinite"


class LoopCertificate(namedtuple(
        "LoopCertificate", "warmup_periods loop_periods popped pushed")):
    """Replayable witness for an Infinite outcome.

    Starting from the evaluation stack reached after ``warmup_periods``
    periods, simulating ``loop_periods`` further periods pops exactly
    ``popped`` symbols and then pushes exactly ``pushed`` (a staged
    word); the other three fields are ints.
    """

    __slots__ = ()


class EvalOutcome(namedtuple("EvalOutcome", "status word up certificate",
                             defaults=(None, None, None))):
    """Result of a backspace evaluation: Undefined, Finite or Infinite.

    ``status`` names the outcome; a Finite one carries its ``word``, an
    Infinite one its ``up`` word and, optionally, a LoopCertificate.
    """

    __slots__ = ()

    @classmethod
    def undefined(cls) -> "EvalOutcome":
        return cls(UNDEFINED)

    @classmethod
    def finite(cls, word: StagedWord) -> "EvalOutcome":
        return cls(FINITE, word=word)

    @classmethod
    def infinite(cls, up: UPWord,
                 certificate: LoopCertificate | None = None) -> "EvalOutcome":
        return cls(INFINITE, up=up, certificate=certificate)

    @property
    def is_undefined(self) -> bool:
        return self.status == UNDEFINED

    @property
    def is_finite(self) -> bool:
        return self.status == FINITE

    @property
    def is_infinite(self) -> bool:
        return self.status == INFINITE


def _erasers(*words: Iterable) -> list[Eraser]:
    """The distinct erasers of the words, in index order."""
    return sorted([sym for sym in set().union(*words) if type(sym) is Eraser],
                  key=attrgetter("index"))


def _stages(word: Iterable, actives: list) -> Iterable | None:
    """Run one stage per active symbol, in order, over a finite word:
    the symbols that survive (a list, or word itself when no stage
    runs), or None when an active symbol starves.

    A stage pops for each occurrence of its active symbol, told by
    identity, and pushes every other symbol, so the actives are the
    interned erasers of a staged word (see _erasers) or the one copy of
    each code of a coded one (see coding._coded).  A stage whose active
    symbol is not in the word passes it through unchanged, so only those
    that occur need to run.  One active symbol runs the prefix of an
    ultimately periodic word, where None is exactly a starving prefix.

    The loop keeps the form CPython 3.11 specializes: ``stack.append``
    and ``stack.pop`` called as methods, not through hoisted bound
    methods, and a ``try`` around the pop alone, so that no test of the
    stack runs on each active symbol and no IndexError raised by the
    input is taken for starvation.
    """
    alive = word
    for active in actives:
        stack: list = []
        for sym in alive:
            if sym is not active:
                stack.append(sym)
            else:
                try:
                    stack.pop()
                except IndexError:
                    return None
        alive = stack
    return alive


def _vanishing_top(word: Sequence) -> int | None:
    """The top eraser index of a word that the pipeline erases to
    nothing (0 for the empty word), None for any other word.

    A word of odd length never vanishes: each active eraser of a stage
    removes itself and one symbol before it, so every stage removes an
    even number of symbols and the empty word has even length.

    Nor do two kinds of word by their end symbols, whatever lies
    between.  A word ending in a letter: every eraser pops the nearest
    surviving symbol to its left, so nothing ever pops the last symbol,
    and a letter never removes itself.  A word starting with Eraser(1):
    no index is smaller, so no stage runs before stage 1, where the
    first symbol is the active eraser and meets an empty stack.

    Otherwise one pass over the symbols counts the stack depth against
    the first eraser index it meets, which is the only stage a word with
    one index runs; the verdict needs no survivor positions.  A starved
    eraser does not end the pass: a smaller index further on runs its
    stage first and may pop the eraser that starved, as in
    ``0 E2 E2 E1``, so starvation is only recorded.  As soon as a second
    index appears, the stages interact and ``_stages`` takes the word.
    """
    if len(word) % 2 or word and (
            type(word[-1]) is not Eraser
            or type(word[0]) is Eraser and word[0].index == 1):
        return None
    top = depth = 0
    starved = False
    for sym in word:
        if type(sym) is not Eraser:
            depth += 1
            continue
        if sym.index != top:
            if top:  # a second index
                erasers = _erasers(word)
                vanished = _stages(word, erasers) == []
                return erasers[-1].index if vanished else None
            top = sym.index
        if depth:
            depth -= 1
        else:
            starved = True
    return None if starved or depth else top


def _pass_profile(period: Iterable, active: Eraser) -> tuple[int, tuple]:
    """Net effect (dig, pushed) of one pass over a period on a deep stack.

    dig counts pops that reach below the stack level the pass started at;
    both values depend only on the period, never on the stack content.
    Only periods are profiled: a prefix starts on an empty stack, where
    any dig starves, so ``_stages`` runs it.
    """
    pushed = []
    dig = 0
    for sym in period:
        if sym is active:
            if pushed:
                pushed.pop()
            else:
                dig += 1
        else:
            pushed.append(sym)
    return dig, tuple(pushed)


def _single_kind(*words: Iterable) -> Eraser:
    """The one eraser kind of the words, Eraser(1) when they have none."""
    erasers = _erasers(*words)
    if len(erasers) > 1:
        raise MalformedInput(f"word mixes eraser kinds "
                             f"{[e.index for e in erasers]}, expected one")
    return erasers[0] if erasers else Eraser(1)


def _finite_outcome(alive: Iterable | None) -> EvalOutcome:
    """The outcome of a finite word whose stages left alive."""
    if alive is None:
        return EvalOutcome.undefined()
    return EvalOutcome.finite(tuple(alive))


def erase(word: StagedWord) -> EvalOutcome:
    """Evaluate a finite word that uses at most one eraser kind."""
    return _finite_outcome(_stages(word, [_single_kind(word)]))


def _erase_up_stage(x: UPWord, index: int) -> EvalOutcome:
    active = Eraser(index)
    body = _stages(x.prefix, [active])
    dig, pushed = _pass_profile(x.period, active)
    # the first period digs deepest: each later one digs into the push
    # of the one before it, and a push shorter than dig runs dry
    if body is None or len(body) < dig or len(pushed) < dig:
        return EvalOutcome.undefined()
    del body[len(body) - dig:]
    body = tuple(body)  # drops the stage's list: one copy stays alive
    if len(pushed) == dig:
        return EvalOutcome.finite(body)
    cert = LoopCertificate(warmup_periods=0, loop_periods=1,
                           popped=dig, pushed=pushed)
    tail = pushed[:len(pushed) - dig]
    return EvalOutcome.infinite(up_normalize(UPWord(body, tail)), cert)


def erase_up(x: UPWord) -> EvalOutcome:
    """Evaluate an ultimately periodic word with one eraser kind.

    Infinite outcomes carry a LoopCertificate and a normalized UPWord.
    """
    return _erase_up_stage(x, _single_kind(x.prefix, x.period).index)


def _check_stages(top: int, stages: int) -> None:
    """Reject a stage count below 1 or an eraser index above it, given
    the top eraser index of a word (0 for none)."""
    if stages < 1:
        raise ValueError("stage count must be >= 1")
    if top > stages:
        raise MalformedInput(
            f"eraser index {top} exceeds stage bound {stages}")


def staged_erase(word: StagedWord, stages: int) -> EvalOutcome:
    """Run passes for stages 1..stages over a finite word."""
    erasers = _erasers(word)
    _check_stages(erasers[-1].index if erasers else 0, stages)
    return _finite_outcome(_stages(word, erasers))


def staged_erase_up(x: UPWord, stages: int) -> EvalOutcome:
    """Run the stage pipeline over an ultimately periodic word.

    Each stage feeds its outcome into the next while it stays Infinite;
    a Finite outcome runs the remaining stages as one finite pipeline,
    and Undefined is absorbing.

    A stage whose eraser is not in x changes only the certificate, the
    same way at every such stage, so only stage 1 (it normalizes x), the
    stages of the erasers in x and, when needed, the last stage run.
    """
    used = [eraser.index for eraser in _erasers(x.prefix, x.period)]
    _check_stages(used[-1] if used else 0, stages)
    run = sorted({1, *used})
    if run[-1] < stages:
        run.append(stages)
    up = x
    for j in run:
        out = _erase_up_stage(up, j)
        if out.is_finite:
            return staged_erase(out.word, stages)
        if out.is_undefined:
            return out
        up = out.up
    return out


def certificate_holds(x: UPWord, cert: LoopCertificate) -> bool:
    """Replay a certificate against the literal stack simulation.

    Only a witness of an Infinite outcome holds: its loop runs at least
    one period and pushes more than it pops, so the stack grows for ever.
    """
    if (cert.warmup_periods < 0 or cert.loop_periods < 1
            or len(cert.pushed) <= cert.popped):
        return False
    active = _single_kind(x.prefix, x.period)
    stack: list = []
    start = low = 0
    # segment 0 is the prefix, segment n >= 1 the n-th period
    for n in range(cert.warmup_periods + cert.loop_periods + 1):
        if n == cert.warmup_periods + 1:
            start = low = len(stack)
        for sym in x.period if n else x.prefix:
            if sym is active:
                if not stack:
                    return False
                stack.pop()
                low = min(low, len(stack))
            else:
                stack.append(sym)
    return start - low == cert.popped and tuple(stack[low:]) == cert.pushed
