"""Acceptance suite: one timed end-to-end check per shipped guarantee.

Each test prints a one line summary (visible under pytest -s or in the
captured output of a failure) and enforces its wall clock budget.
"""

import random
import time
from itertools import product

from eraserlang import (
    Eraser,
    UPWord,
    decode,
    encode,
    encode_up,
    erase_up,
    factor_words,
    factorize,
    in_coded_erasure_ladder,
    in_erasure_ladder,
    is_factor,
    min_stages,
    nth_factor,
    pairing_consistent,
    vanishes,
    vanishes_by_grammar,
    vanishing_words,
    verify_intersection_identity,
    viable_prefix,
)

from oracles import (
    concat_members,
    factor_rows,
    factors_by_filter,
    min_stages_brute,
    prefix_oracle,
    staged_words,
    viable_by_extension,
)

E1 = Eraser(1)


def _report(name, stats, elapsed, budget):
    print(f"{name}: {stats}, {elapsed:.2f}s (budget {budget}s)")
    assert elapsed < budget


def test_criterion_01_evaluation_examples():
    t0 = time.perf_counter()
    assert erase_up(UPWord((), (0, E1))).word == ()
    out = erase_up(UPWord((), (0, 1, E1)))
    assert out.is_infinite and out.up == UPWord((), (0,))
    assert erase_up(UPWord((1, 1), (E1, 0))).word == (1,)
    assert erase_up(UPWord((E1,), (0, E1))).is_undefined
    assert erase_up(UPWord((0, E1, E1), (0,))).is_undefined
    _report("criterion 01", "5 evaluation examples reproduced",
            time.perf_counter() - t0, 1)


def test_criterion_02_grammar_evaluator_agreement():
    t0 = time.perf_counter()
    total = 0
    disagreements = []
    for length in range(11):
        for word in product([0, 1, E1], repeat=length):
            total += 1
            if vanishes_by_grammar(word) != vanishes(word, 1):
                disagreements.append(word)
    assert total == 88573
    assert disagreements == []
    _report("criterion 02", f"{total} words, 0 disagreements",
            time.perf_counter() - t0, 10)


def test_criterion_03_strict_chain():
    t0 = time.perf_counter()
    sizes = []
    for k in (1, 2, 3):
        members = vanishing_words(k, 8)
        sizes.append(len(members))
        assert all(vanishes(w, k + 1) for w in members)
        witness = (0, Eraser(k + 1))
        assert vanishes(witness, k + 1) and not vanishes(witness, k)
    _report("criterion 03", f"chain sizes {sizes}, witnesses separate",
            time.perf_counter() - t0, 30)


def test_criterion_04_min_stages_closed_form():
    t0 = time.perf_counter()
    total = 0
    disagreements = []
    for word in staged_words(6, 4):
        total += 1
        if min_stages(word) != min_stages_brute(word, kmax=6):
            disagreements.append(word)
    assert disagreements == []
    _report("criterion 04", f"{total} words, 0 disagreements",
            time.perf_counter() - t0, 60)


def test_criterion_05_coding_round_trip_and_injectivity():
    t0 = time.perf_counter()
    seen = {}
    total = 0
    for word in staged_words(6, 3):
        total += 1
        text = encode(word)
        res = decode(text)
        assert res.symbols == word and res.dangling == ""
        assert text not in seen
        seen[text] = word
    _report("criterion 05", f"{total} words round trip, all codes distinct",
            time.perf_counter() - t0, 10)


def test_criterion_06_factorizations_are_unique():
    t0 = time.perf_counter()
    total = 0
    violations = []
    for length in range(11):
        for tup in product("01ab", repeat=length):
            w = "".join(tup)
            total += 1
            if factorize(w).count > 1:
                violations.append(w)
    assert total == 1398101
    assert violations == []
    rows = factor_words(6)
    for u in rows:
        for v in rows:
            fac = factorize(u + v)
            assert fac.count == 1
            assert len(u) in fac.cuts
    _report("criterion 06",
            f"{total} words, 0 double factorizations, "
            f"{len(rows) ** 2} concat cuts verified",
            time.perf_counter() - t0, 300)


def test_criterion_07_viable_prefix_against_extension_oracle():
    # The stated oracle bound (extensions up to 8 letters) is one sided:
    # four length 6 words open with an index 2 eraser whose cleanup needs
    # three index 1 codes, so their shortest completions have 10 letters.
    # The test checks the bound 8 oracle finds no false positives of the
    # DP, pins the four stragglers with explicit completions, and then
    # checks exact two sided agreement at the sufficient bound 10.
    t0 = time.perf_counter()
    members = concat_members(factor_rows(16), 16)
    oracle8 = prefix_oracle(members, 6, 8)
    oracle9 = prefix_oracle(members, 6, 9)
    oracle10 = prefix_oracle(members, 6, 10)

    accepted = set()
    total = 0
    for length in range(7):
        for tup in product("01ab", repeat=length):
            w = "".join(tup)
            total += 1
            if viable_prefix(w):
                accepted.add(w)

    assert oracle8 <= accepted
    assert accepted == oracle10
    residual = sorted(accepted - oracle8)
    assert residual == ["abba00", "abba01", "abba10", "abba11"]
    for w in residual:
        assert w not in oracle9
        assert factorize(w + "abaabaaba1").count == 1

    # spot checks through the literal search, including one viable word
    # whose pad opens with a high eraser
    assert viable_prefix("0ab") and viable_by_extension("0ab", 8)
    assert viable_prefix("ab") and viable_by_extension("ab", 8)
    assert not viable_prefix("aba") and not viable_by_extension("aba", 8)

    _report("criterion 07",
            f"{total} words, bound 8 misses {len(residual)} "
            "known stragglers, bound 10 exact",
            time.perf_counter() - t0, 120)


def test_criterion_08_intersection_identity():
    t0 = time.perf_counter()
    checks = 0
    for p in (1, 2):
        for n in range(11):
            assert verify_intersection_identity(p, n)
            checks += 1
    _report("criterion 08", f"{checks} (p, n) pairs all PASS",
            time.perf_counter() - t0, 300)


def test_criterion_09_enumeration_soundness():
    t0 = time.perf_counter()
    words = [nth_factor(i) for i in range(1001)]
    assert all(is_factor(w) for w in words)
    keys = [(len(w), w) for w in words]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert words[1000] == "0abba1abba001"
    listed = factors_by_filter(6)
    assert listed == words[:len(listed)]
    _report("criterion 09",
            f"1001 factors monotone, first {len(listed)} gap free",
            time.perf_counter() - t0, 60)


def test_criterion_10_pairing_coherence():
    t0 = time.perf_counter()
    rng = random.Random(93)
    corruptions = 0
    for _ in range(100):
        counts = [rng.randint(0, 5) for _ in range(rng.randint(1, 4))]
        sigma = "".join("0" * n + "1" for n in counts)
        nu = "".join(nth_factor(n) for n in counts)
        assert pairing_consistent(sigma, nu)
        for i, orig in enumerate(nu):
            for ch in "01ab":
                if ch != orig:
                    assert not pairing_consistent(
                        sigma, nu[:i] + ch + nu[i + 1:])
                    corruptions += 1
    _report("criterion 10",
            f"100 streams accepted, {corruptions} corruptions rejected",
            time.perf_counter() - t0, 30)


def test_criterion_11_coded_ladder_agreement():
    t0 = time.perf_counter()
    rng = random.Random(501)
    checks = 0
    for p in (1, 2, 3):
        alphabet = [0, 1] + [Eraser(j) for j in range(1, p + 1)]
        for _ in range(200):
            prefix = tuple(rng.choice(alphabet)
                           for _ in range(rng.randint(0, 3)))
            period = tuple(rng.choice(alphabet)
                           for _ in range(rng.randint(1, 4)))
            x = UPWord(prefix, period)
            assert (in_coded_erasure_ladder(encode_up(x), p)
                    == in_erasure_ladder(x, p))
            high = UPWord(prefix, period[:-1] + (Eraser(p + 1),))
            assert not in_coded_erasure_ladder(encode_up(high), p)
            checks += 2
    _report("criterion 11", f"{checks} ladder agreements across p in 1..3",
            time.perf_counter() - t0, 60)
