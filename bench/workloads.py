"""The benchmark's workloads: seeded inputs, known answers, operations.

Each library workload has an inputs(seed) step, which runs before
eraserlang is imported and never touches it, and a groups(raw, lib,
calls) step, which turns the raw inputs into library values and
operations.  ``calls`` holds the public functions of eraserlang, plain or
traced.  The cli workload is a list of commands with the exact output
each must print.
"""

from __future__ import annotations

import json
from pathlib import Path
from random import Random
from typing import Callable, NamedTuple

import gen

HERE = Path(__file__).resolve().parent


class Group(NamedTuple):
    """Operations of one kind: run(arg) is timed, check(out, exp) is not."""

    name: str
    run: Callable
    args: list
    expected: list
    check: Callable


SWEEP_FACTORIZE_LEN = 8       # every coded word, 87381 of them
SWEEP_VIABLE_LEN = 6          # every coded word, 5461
SWEEP_GRAMMAR_LEN = 10        # every word over 0 1 E1, 88573
SWEEP_CODING_LEN, SWEEP_CODING_TOP = 5, 3   # 3906 staged words
SWEEP_ENUM = 1001             # the first 1001 factors
SWEEP_ENUM_MAX_LEN = 13       # long enough to hold them
# A sweep operation is a batch of this many queries of one kind in a row:
# single queries take microseconds, and their slowest few are whichever
# ones a garbage collection happened to hit.
SWEEP_BATCH = 1024


def sweep_inputs(seed: int) -> dict:
    # the sweep is exhaustive: the seed only orders the words of each length
    rng = Random(seed)
    concat = gen.concatenations(gen.factors_upto(SWEEP_FACTORIZE_LEN),
                                SWEEP_FACTORIZE_LEN)
    concat[""] = (0,)
    words = gen.shuffled_by_length(rng, gen.coded_words(SWEEP_FACTORIZE_LEN))
    viable = set(json.loads((HERE / "pinned" / "viable_upto6.json")
                            .read_text(encoding="ascii")))
    vwords = gen.shuffled_by_length(rng, gen.coded_words(SWEEP_VIABLE_LEN))
    members = gen.grammar_members(SWEEP_GRAMMAR_LEN)
    gwords = gen.shuffled_by_length(rng, gen.staged_words(SWEEP_GRAMMAR_LEN, 1))
    cwords = gen.shuffled_by_length(
        rng, gen.staged_words(SWEEP_CODING_LEN, SWEEP_CODING_TOP))
    factors = gen.factors_upto(SWEEP_ENUM_MAX_LEN)[:SWEEP_ENUM]
    if len(factors) < SWEEP_ENUM:
        raise AssertionError("SWEEP_ENUM_MAX_LEN too small")
    return {
        "factorize": (words, [(1, concat[w]) if w in concat else (0, None)
                              for w in words]),
        "viable": (vwords, [w in viable for w in vwords]),
        "grammar": (gwords, [w in members for w in gwords]),
        "coding": (cwords, [gen.encode(w) for w in cwords]),
        "enum": (list(range(SWEEP_ENUM)), factors),
    }


def sweep_groups(raw: dict, lib, calls) -> list[Group]:
    staged = _staged_converter(lib)
    gwords = [staged(w) for w in raw["grammar"][0]]
    cwords = [staged(w) for w in raw["coding"][0]]

    def grammar(w):
        return calls.vanishes_by_grammar(w), calls.vanishes(w, 1)

    def coding(w):
        text = calls.encode(w)
        return text, calls.decode(text)

    def enum(i):
        w = calls.nth_factor(i)
        return w, calls.factor_index(w)

    return [batched(g, SWEEP_BATCH) for g in [
        Group("factorize", calls.factorize, *raw["factorize"],
              lambda out, exp: (out.count, out.cuts) == exp),
        Group("viable", calls.viable_prefix, *raw["viable"], equal),
        Group("grammar", grammar, gwords,
              [(m, m) for m in raw["grammar"][1]], equal),
        Group("coding", coding, cwords,
              list(zip(raw["coding"][1], cwords)),
              lambda out, exp: (out[0] == exp[0] and out[1].dangling == ""
                                and out[1].symbols == exp[1])),
        Group("enum", enum, raw["enum"][0],
              [(w, i) for i, w in enumerate(raw["enum"][1])], equal),
    ]]


def batched(g: Group, size: int) -> Group:
    """The same queries and checks, timed in batches of `size`."""
    run, check = g.run, g.check

    def chunks(items):
        return [items[i:i + size] for i in range(0, len(items), size)]

    return Group(g.name, lambda batch: [run(a) for a in batch],
                 chunks(g.args), chunks(g.expected),
                 lambda outs, exps: all(map(check, outs, exps)))


# Streams are built from factors of one fixed shape (LONG_PADS pads of
# LONG_PAIRS pairs, about 50 letters) and only the symbols are drawn, so a
# query's cost varies little from seed to seed.  LONG_ROUNDS maps factors
# per stream to rounds of four queries at that length; the middle length
# has the most rounds, so that the median query is one of them.
LONG_ROUNDS = {2: 6, 4: 10, 6: 6, 8: 6}
LONG_PADS, LONG_PAIRS = 2, 4          # the factor shape
LONG_TOP = 3                          # highest eraser index in pads
LONG_LETTER_SHARE = 0.6               # openers that are letters
LONG_CUT_SPAN = 8                     # letters at the end truncations fall in
LONG_LASSO_FACTORS, LONG_LASSO_PAIRS = 2, 2
LONG_LASSO_BOUND = 3
LONG_ERASE_SYMBOLS = (10_000, 30_000, 100_000)
LONG_ERASE_KEPT = 20
LONG_GRAMMAR_PAIRS = (25, 50, 75, 100)    # 50 to 200 symbols


def long_inputs(seed: int) -> dict:
    rng = Random(seed)

    def fresh(factors, pairs=LONG_PAIRS):
        return gen.stream(rng, factors, LONG_PADS, pairs, LONG_TOP,
                          LONG_LETTER_SHARE)

    # truncations fall within the last LONG_CUT_SPAN letters and spoilers in
    # the last factor, so a query's length, and with it its cost, is set by
    # its bucket
    def mid_code(factors):
        text, cuts = fresh(factors)
        start = max(cuts[-2], len(text) - LONG_CUT_SPAN)
        return text[:rng.choice(gen.inside_positions(text, start))]

    def spoiled(factors):
        text, cuts = fresh(factors)
        return gen.spoil(rng, text, cuts[-2])[0]

    fac, via = [], []
    for factors, rounds in LONG_ROUNDS.items():
        for r in range(rounds):
            text, cuts = fresh(factors)
            fac.append((text, (1, cuts)))
            fac.append((mid_code(factors) if r % 2 else spoiled(factors),
                        (0, None)))
            text, cuts = fresh(factors)
            via.append(((text, mid_code(factors),
                         text[:rng.randint(max(cuts[-2],
                                               len(text) - LONG_CUT_SPAN),
                                           len(text))])[r % 3], True))
            via.append((spoiled(factors), False))

    lasso = []
    for variant in ("whole", "rotated", "whole", "spoiled"):
        prefix, pcuts = fresh(LONG_LASSO_FACTORS, LONG_LASSO_PAIRS)
        period, qcuts = fresh(LONG_LASSO_FACTORS, LONG_LASSO_PAIRS)
        # build cuts of prefix + period^omega, far enough for any loop
        bounds = set(pcuts)
        for k in range(LONG_LASSO_BOUND + 2):
            bounds.update(len(prefix) + k * len(period) + c for c in qcuts)
        if variant == "spoiled":
            lasso.append(((gen.spoil(rng, prefix)[0], period), None))
            continue
        if variant == "rotated":
            t = rng.randint(1, len(period) - 1)
            prefix, period = prefix + period[:t], period[t:] + period[:t]
        lasso.append(((prefix, period), (prefix, period, sorted(bounds))))

    erase, erase_up = [], []
    for symbols in LONG_ERASE_SYMBOLS:
        word, kept = gen.erasable(rng, symbols, LONG_TOP, LONG_ERASE_KEPT,
                                  LONG_LETTER_SHARE)
        erase.append((word, ("finite", kept)))
    word, _ = gen.erasable(rng, LONG_ERASE_SYMBOLS[0], LONG_TOP, 0,
                           LONG_LETTER_SHARE)
    erase.append((word + [-LONG_TOP], ("undefined", None)))
    for symbols, tail in zip(LONG_ERASE_SYMBOLS[:2], (0, 1)):
        word, kept = gen.erasable(rng, symbols, LONG_TOP, LONG_ERASE_KEPT,
                                  LONG_LETTER_SHARE)
        period = gen.pad(rng, 50, LONG_TOP, LONG_LETTER_SHARE) + [tail]
        erase_up.append(((word, period), ("infinite", gen.normalize_up(
            tuple(kept), (tail,)))))
    word, kept = gen.erasable(rng, LONG_ERASE_SYMBOLS[0], LONG_TOP,
                              LONG_ERASE_KEPT, LONG_LETTER_SHARE)
    erase_up.append(((word, gen.pad(rng, 50, LONG_TOP, LONG_LETTER_SHARE)),
                     ("finite", kept)))

    grammar = []
    for i, pairs in enumerate(LONG_GRAMMAR_PAIRS):
        member = gen.mountain(rng, pairs)
        if i % 2:
            grammar.append((gen.near_miss(rng, member, pairs), False))
        else:
            grammar.append((member, True))
    return {"factorize": fac, "viable": via, "lasso": lasso, "erase": erase,
            "erase_up": erase_up, "grammar": grammar}


def long_groups(raw: dict, lib, calls) -> list[Group]:
    staged = _staged_converter(lib)
    k = LONG_TOP

    def unzip(pairs):
        return [a for a, _ in pairs], [b for _, b in pairs]

    def lasso_ok(v, exp):
        """A loop inside the period part, a whole number of periods long,
        whose cuts factorize the word up to its end."""
        if exp is None:
            return v.status == "no"
        prefix, period, bounds = exp
        if (v.status != "yes" or v.loop_length < 1
                or v.loop_length % len(period) or v.loop_start < len(prefix)
                or v.loop_start not in v.factor_cuts):
            return False
        end = v.loop_start + v.loop_length
        cuts = list(v.factor_cuts)
        if cuts == [b for b in bounds if b <= end]:
            return True
        # not the built factorization: check each factor literally
        word = (prefix + period * (end // len(period) + 1))[:end]
        return (cuts[0] == 0 and cuts[-1] == end
                and all(gen.is_factor(word[a:b]) for a, b in zip(cuts, cuts[1:])))

    def erase_ok(out, exp):
        status, value = exp
        if out.status != status:
            return False
        if status == "finite":
            return out.word == value
        if status == "infinite":
            return out.up == lib.UPWord(*value)
        return True

    fac, via = unzip(raw["factorize"]), unzip(raw["viable"])
    las = unzip(raw["lasso"])
    ers = unzip(raw["erase"])
    ups = unzip(raw["erase_up"])
    gra = unzip(raw["grammar"])
    return [
        Group("factorize", calls.factorize, *fac,
              lambda out, exp: (out.count, out.cuts) == exp),
        Group("viable", calls.viable_prefix, *via, equal),
        Group("lasso",
              lambda x: calls.lasso_member(x, LONG_LASSO_BOUND),
              [lib.UPWord(*pq) for pq in las[0]], las[1], lasso_ok),
        Group("staged_erase", lambda w: calls.staged_erase(w, k),
              [staged(w) for w in ers[0]],
              [(s, tuple(v) if v is not None else v) for s, v in ers[1]],
              erase_ok),
        Group("staged_erase_up", lambda x: calls.staged_erase_up(x, k),
              [lib.UPWord(staged(u), staged(v)) for u, v in ups[0]],
              [(s, tuple(v) if s == "finite" else v) for s, v in ups[1]],
              erase_ok),
        Group("grammar", calls.vanishes_by_grammar,
              [staged(w) for w in gra[0]], gra[1], equal),
    ]


# from n = 6 on each call takes tens of milliseconds or more
IDENTITY_CASES = [(1, n) for n in range(6, 11)] + [(2, n) for n in range(6, 10)]


def identity_inputs(seed: int) -> dict:
    # the (p, n) set is fixed: this workload measures one exhaustive walk
    return {"cases": list(IDENTITY_CASES)}


def identity_groups(raw: dict, lib, calls) -> list[Group]:
    cases = raw["cases"]
    return [Group("identity",
                  lambda pn: calls.verify_intersection_identity(*pn),
                  cases, [True] * len(cases), equal)]


def equal(out, exp) -> bool:
    return out == exp


def _staged_converter(lib) -> Callable:
    erasers: dict[int, object] = {}

    def convert(word) -> tuple:
        out = []
        for s in word:
            if s < 0:
                if s not in erasers:
                    erasers[s] = lib.Eraser(-s)
                out.append(erasers[s])
            else:
                out.append(s)
        return tuple(out)
    return convert


WORKLOADS = {
    "sweep": (sweep_inputs, sweep_groups),
    "long": (long_inputs, long_groups),
    "identity": (identity_inputs, identity_groups),
}


# ---------------------------------------------------------------------- cli

class CliCase(NamedTuple):
    argv: list
    code: int
    out: str
    err: str
    parse: list    # (kind, text) pairs the command parses, for words.parse


def _case(argv, out="", code=0, err="", parse=()) -> CliCase:
    return CliCase(list(argv), code, out, err, list(parse))


def _lines(items) -> str:
    return "".join(f"{x}\n" for x in items)


def cli_inputs(seed: int) -> list[CliCase]:
    """Every subcommand on small inputs.  Seeded words carry answers known
    by construction; the fixed ones repeat the pins of tests/test_cli.py
    and the diagnostics the package prints for malformed input."""
    rng = Random(seed)
    top = 2
    share = 0.6
    fmt = gen.format_staged
    factors = gen.factors_upto(12)
    cases = [
        _case(["erase", "--up", "|0 1 E1"], "infinite: |0\n",
              parse=[("up-staged", "|0 1 E1")]),
        _case(["erase", "0 E0"], code=2,
              err="unexpected token 'E0' at position 3\n"),
        _case(["factor", "11"], "count=1 cuts=[1]\n", parse=[("coded", "11")]),
        _case(["decode", "aa"], code=2, err="malformed code at position 2\n"),
        _case(["member", "lscript", "0x1"], code=2,
              err="unexpected character 'x' at position 2\n"),
        _case(["member", "r-approx", "|E2", "--p", "1"], code=2,
              err="eraser index 2 exceeds stage bound 1\n"),
        _case(["member", "rp", "|0aba", "--p", "1"], "true\n",
              parse=[("up-coded", "|0aba")]),
        _case(["member", "rp", "|abba", "--p", "1"], "false\n",
              parse=[("up-coded", "|abba")]),
        _case(["member", "r", "|01"], "true\n", parse=[("up-binary", "|01")]),
        _case(["member", "r", "1|0"], "false\n", parse=[("up-binary", "1|0")]),
        _case(["lasso", "|01", "--bound", "8"],
              "yes loop_start=0 loop_length=2 cuts=[0, 2]\n",
              parse=[("up-coded", "|01")]),
        _case(["lasso", "|0", "--bound", "4"], "unknown bound=4\n",
              parse=[("up-coded", "|0")]),
        _case(["theta"], code=2, err="theta needs an index or --upto\n"),
        _case(["verify-rp", "--p", "1", "--n", "4"], "true\n"),
        _case(["enumerate", "lk", "--k", "1", "--max-len", "4"],
              _lines(fmt(w) for w in gen.staged_words(4, 1)
                     if gen.vanishes(w))),
        _case(["enumerate", "hv", "--max-len", "5"],
              _lines(f for f in factors if len(f) <= 5)),
        _case(["theta", "--upto", "12"],
              _lines(f"{i} {factors[i]}" for i in range(13))),
    ]
    # a factor of the longest length, so every seed grows the enumeration
    # tables equally far
    i = rng.choice([k for k, f in enumerate(factors)
                    if len(f) == len(factors[-1])])
    cases.append(_case(["theta", str(i)], f"{factors[i]}\n"))

    # one-stage and staged evaluation
    word, kept = gen.erasable(rng, 16, 1, 3, 1.0)
    cases.append(_case(["erase", fmt(word)], f"finite: {fmt(kept)}\n",
                       parse=[("staged", fmt(word))]))
    cases.append(_case(["erase", fmt([-1] + word)], "undefined\n",
                       parse=[("staged", fmt([-1] + word))]))
    word, kept = gen.erasable(rng, 16, top, 3, share)
    cases.append(_case(["staged-erase", fmt(word), "--k", str(top)],
                       f"finite: {fmt(kept)}\n", parse=[("staged", fmt(word))]))
    for tail in (0, 1):
        period = gen.pad(rng, 3, top, share) + [tail]
        up = f"{fmt(word)}|{fmt(period)}"
        u, v = gen.normalize_up(tuple(kept), (tail,))
        cases.append(_case(["staged-erase", "--up", up, "--k", str(top)],
                           f"infinite: {fmt(u)}|{fmt(v)}\n",
                           parse=[("up-staged", up)]))
        cases.append(_case(["member", "r-approx", up, "--p", str(top)],
                           "true\n" if tail else "false\n",
                           parse=[("up-staged", up)]))
        coded = f"{gen.encode(word)}|{gen.encode(period)}"
        cases.append(_case(["member", "encoded-r-approx", coded, "--p",
                            str(top)], "true\n" if tail else "false\n",
                           parse=[("up-coded", coded)]))

    # languages of the staged chain
    member = tuple(gen.dyck(rng, 6, 1, 1, 1.0))
    miss = gen.near_miss(rng, member, rng.randrange(len(member)))
    cases.append(_case(["member", "l1-grammar", fmt(member)], "true\n",
                       parse=[("staged", fmt(member))]))
    cases.append(_case(["member", "l1-grammar", fmt(miss)], "false\n",
                       parse=[("staged", fmt(miss))]))
    p = gen.pad(rng, 6, top, share)
    k = max(1, gen.top_index(p))
    cases.append(_case(["member", "lk", fmt(p), "--k", str(k)], "true\n",
                       parse=[("staged", fmt(p))]))
    cases.append(_case(["member", "lk", fmt(p + [0]), "--k", str(k)],
                       "false\n", parse=[("staged", fmt(p + [0]))]))
    cases.append(_case(["min-k", fmt(p)], f"{k}\n",
                       parse=[("staged", fmt(p))]))
    cases.append(_case(["min-k", fmt([-1] + p)], "none\n",
                       parse=[("staged", fmt([-1] + p))]))
    cases.append(_case(["member", "lscript", gen.encode(p)], "true\n",
                       parse=[("coded", gen.encode(p))]))
    cases.append(_case(["member", "lscript", gen.encode(p) + "0"], "false\n",
                       parse=[("coded", gen.encode(p) + "0")]))

    # coding
    word = gen.pad(rng, 5, top, share) + [rng.choice(gen.LETTERS)]
    cases.append(_case(["encode", fmt(word)], f"{gen.encode(word)}\n",
                       parse=[("staged", fmt(word))]))
    period = gen.pad(rng, 2, top, share) + [1]
    up = f"{fmt(word)}|{fmt(period)}"
    u, v = gen.normalize_up(gen.encode(word), gen.encode(period))
    cases.append(_case(["encode", "--up", up], f"{u}|{v}\n",
                       parse=[("up-staged", up)]))
    text = gen.encode(word)
    cut = rng.choice(gen.inside_positions(text))
    symbols, dangling = gen.decode(text[:cut])
    cases.append(_case(["decode", text[:cut]],
                       f"{fmt(symbols)}\ndangling: {dangling}\n",
                       parse=[("coded", text[:cut])]))
    bad, pos = gen.spoil(rng, text)
    cases.append(_case(["decode", bad], code=2,
                       err=f"malformed code at position {pos}\n"))

    # omega power
    text, cuts = gen.stream(rng, 3, 2, 2, top, share)
    cases.append(_case(["factor", text],
                       f"count=1 cuts={list(cuts[1:-1])}\n",
                       parse=[("coded", text)]))
    bad, _ = gen.spoil(rng, text)
    cases.append(_case(["factor", bad], "count=0\n"))
    cases.append(_case(["viable", bad], "false\n"))
    cut = rng.choice(gen.inside_positions(text))
    cases.append(_case(["viable", text[:cut]], "true\n",
                       parse=[("coded", text[:cut])]))
    f = gen.factor(rng, 2, 2, top, share)
    cases.append(_case(["member", "hv", f], "true\n", parse=[("coded", f)]))
    bad, _ = gen.spoil(rng, f)
    cases.append(_case(["member", "hv", bad], "false\n"))
    cases.append(_case(["lasso", f"{bad}|{f}"], "no\n"))
    counts = [rng.randint(0, 5) for _ in range(rng.randint(2, 4))]
    sigma = "".join("0" * c + "1" for c in counts)
    nu = "".join(factors[c] for c in counts)
    cases.append(_case(["dcheck", sigma, nu], "true\n"))
    j = rng.randrange(len(nu))
    wrong = nu[:j] + rng.choice([c for c in "01ab" if c != nu[j]]) + nu[j + 1:]
    cases.append(_case(["dcheck", sigma, wrong], "false\n"))
    return cases
