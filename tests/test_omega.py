import hashlib
import json
import os
import random
import subprocess
import sys
import time
from functools import cache
from itertools import product
from pathlib import Path

import pytest

import eraserlang
from eraserlang import (
    Eraser,
    LassoVerdict,
    MalformedInput,
    UPWord,
    encode,
    encode_up,
    factor_index,
    factor_words,
    factorize,
    has_infinitely_many_ones,
    in_block_stream,
    in_coded_erasure_ladder,
    in_erasure_ladder,
    is_factor,
    lasso_member,
    nth_factor,
    pairing_consistent,
    up_prefix,
    vanishes_coded,
    verify_intersection_identity,
    viable_prefix,
    words_over,
)

from eraserlang.omega import _PADS, _ROWS, _STARTS, _grow, _row_words

from oracles import (factors_by_filter, pipeline, vanishes_brute,
                     viable_by_extension)

E1, E2 = Eraser(1), Eraser(2)


# ------------------------------------------------------------------ pads

def test_vanishes_coded_examples():
    assert vanishes_coded("")
    assert vanishes_coded("0aba")
    assert not vanishes_coded("aba")
    assert vanishes_coded("abbaaba")  # the low eraser eats the high one
    assert not vanishes_coded("0abba1")


def test_vanishes_coded_rejects_broken_text_quietly():
    assert not vanishes_coded("b")
    assert not vanishes_coded("ab")   # dangling code
    assert not vanishes_coded("a1")


def test_vanishes_coded_against_stage_sweep():
    # the single pipeline run must match brute runs at every stage count
    # from the word's top index up to its length plus two
    for w in words_over(2, 5):
        top = max((s.index for s in w if isinstance(s, Eraser)), default=0)
        verdicts = {vanishes_brute(w, k)
                    for k in range(max(top, 1), len(w) + 3)}
        assert len(verdicts) == 1
        assert vanishes_coded(encode(w)) == verdicts.pop()


# --------------------------------------------------------------- factors

def test_is_factor_examples():
    assert is_factor("1")
    assert is_factor("0aba1")
    assert not is_factor("11")
    assert is_factor("abbaaba1")
    assert not is_factor("")
    assert not is_factor("0")


def test_is_factor_matches_the_constructive_rows_on_every_short_word():
    # the rows are built from the vanishing rows of staged and never run
    # the stage engine: every coded word up to 8 letters, 87,381 of them
    words = ["".join(t) for n in range(9) for t in product("01ab", repeat=n)]
    assert len(words) == 87381
    factors = set(factor_words(8))
    for w in words:
        assert is_factor(w) == (w in factors), w


def test_factorize_examples():
    out = factorize("11")
    assert out.count == 1 and out.cuts == (0, 1, 2)
    out = factorize("01")
    assert out.count == 1 and out.cuts == (0, 2)
    out = factorize("aba")
    assert out.count == 0 and out.cuts is None
    out = factorize("")
    assert out.count == 1 and out.cuts == (0,)


def test_factorize_cut_segments_are_factors():
    for w in ["11", "01", "0aba11", "abbaaba1"]:
        out = factorize(w)
        assert out.count == 1
        cuts = out.cuts
        assert cuts[0] == 0 and cuts[-1] == len(w)
        assert all(is_factor(w[i:j]) for i, j in zip(cuts, cuts[1:]))


def test_concatenations_of_factors_factorize():
    rows = factor_words(4)
    for u in rows:
        for v in rows:
            assert factorize(u + v).count >= 1


# ----------------------------------------------------------- viability

def test_viable_prefix_examples():
    assert viable_prefix("")
    assert viable_prefix("0ab")
    assert not viable_prefix("aba")
    assert not viable_prefix("a1")


def test_viable_prefix_accepts_pads_opened_by_a_high_eraser():
    # ab extends to abbaaba1, a complete factor
    assert viable_prefix("ab")
    assert factorize("abbaaba1").count == 1
    assert viable_by_extension("ab", 6)
    # abba00 is viable too, but its shortest completion is long: the
    # leading high eraser costs three index-1 codes to clean up
    assert viable_prefix("abba00")
    assert factorize("abba00" + "abaabaaba1").count >= 1


def test_viable_prefix_negatives_resist_extension_search():
    assert not viable_by_extension("a1", 6)
    assert not viable_by_extension("aba", 6)


def test_viability_is_prefix_closed():
    for length in range(5):
        for tup in product("01ab", repeat=length):
            w = "".join(tup)
            if viable_prefix(w):
                assert all(viable_prefix(w[:i]) for i in range(len(w)))


def test_factors_and_their_prefixes_are_viable():
    for w in factor_words(6):
        assert viable_prefix(w)
        assert all(viable_prefix(w[:i]) for i in range(len(w)))


# ---------------------------------------------------------- lasso search

def test_lasso_member_examples():
    out = lasso_member(UPWord("", "01"), 8)
    assert out.status == "yes"
    assert out.loop_start == 0 and out.loop_length == 2
    assert out.factor_cuts == (0, 2)

    out = lasso_member(UPWord("", "a1"), 8)
    assert out.status == "no"

    out = lasso_member(UPWord("", "0"), 8)
    assert out.status == "unknown" and out.bound == 8


def test_lasso_member_with_a_prefix():
    out = lasso_member(UPWord("1", "01"), 8)
    assert out.status == "yes"
    assert out.loop_start == 1 and out.loop_length == 2
    assert out.factor_cuts == (0, 1, 3)


def test_lasso_member_validates_bound():
    with pytest.raises(ValueError):
        lasso_member(UPWord("", "1"), 0)


def test_periodic_factors_are_lasso_members():
    for w in factor_words(4):
        assert lasso_member(UPWord("", w), 2).status == "yes"


def test_lasso_cuts_replay():
    out = lasso_member(UPWord("0aba", "01"), 6)
    assert out.status == "yes"
    assert out.loop_start == 6 and out.loop_length == 2
    assert out.factor_cuts == (0, 6, 8)
    text = "0aba" + "01" * 6
    cuts = out.factor_cuts
    assert all(is_factor(text[i:j]) for i, j in zip(cuts, cuts[1:]))


def test_misaligned_period_is_rejected():
    # the same letters with the loop cut mid code never factor
    assert lasso_member(UPWord("0ab", "a01"), 6).status == "no"


def _lasso_every_pair(x, bound):
    """The lasso search that tries every loop start and loop end."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    ulen, plen = len(x.prefix), len(x.period)
    w = up_prefix(x, ulen + bound * plen)
    n = len(w)
    if not viable_prefix(w):
        return LassoVerdict("no")
    cuts_upto = cache(lambda p2: factorize(w[:p2]).cuts)
    for p1 in range(ulen, n + 1):
        for p2 in range(p1 + plen, n + 1, plen):
            cuts = cuts_upto(p2)
            if cuts is not None and p1 in cuts:
                return LassoVerdict("yes", loop_start=p1,
                                    loop_length=p2 - p1, factor_cuts=cuts)
    return LassoVerdict("unknown", bound=bound)


def _coded_words(lengths):
    return ["".join(t) for n in lengths for t in product("01ab", repeat=n)]


def test_lasso_member_agrees_with_every_pair_search():
    # every prefix of at most 3 letters, every period of 1 to 4 letters
    # and four bounds: 115,600 searches
    verdicts = {"yes": 0, "no": 0, "unknown": 0}
    for u in _coded_words(range(4)):
        for v in _coded_words(range(1, 5)):
            for bound in (1, 2, 3, 5):
                got = lasso_member(UPWord(u, v), bound)
                assert got == _lasso_every_pair(UPWord(u, v), bound), (
                    u, v, bound)
                verdicts[got.status] += 1
    assert sum(verdicts.values()) == 115_600
    assert verdicts["yes"] == 1290


def _identity_on(x, verdicts):
    """The paper's identity on the infinite word x at p = 1, 2 and 3: x
    lies in the omega power and is a block stream of order p exactly
    when it lies in the coded ladder of order p.  A lasso found within
    12 copies puts x in the omega power; where none is found, x must
    lie outside the ladder."""
    status = lasso_member(x, 12).status
    for p in (1, 2, 3):
        ladder = in_coded_erasure_ladder(x, p)
        if status == "unknown":
            assert not ladder, (x, p)
        else:
            assert (status == "yes" and in_block_stream(x, p)) == ladder, (
                x, p)
        verdicts["unknown" if status == "unknown" else ladder] += 1


def test_the_omega_power_meets_the_block_streams_in_the_coded_ladder():
    # every lasso u|v over 01ab with |u| <= 2 and 1 <= |v| <= 4
    verdicts = {True: 0, False: 0, "unknown": 0}
    for u in _coded_words(range(3)):
        for v in _coded_words(range(1, 5)):
            _identity_on(UPWord(u, v), verdicts)
    assert verdicts == {True: 546, False: 20_604, "unknown": 270}
    # the encodings of criterion 11's random staged lassos, whose
    # members hold indices up to 3
    rng = random.Random(501)
    verdicts = {True: 0, False: 0, "unknown": 0}
    for top in (1, 2, 3):
        alphabet = [0, 1] + [Eraser(j) for j in range(1, top + 1)]
        for _ in range(200):
            prefix = tuple(rng.choice(alphabet)
                           for _ in range(rng.randint(0, 3)))
            period = tuple(rng.choice(alphabet)
                           for _ in range(rng.randint(1, 4)))
            _identity_on(encode_up(UPWord(prefix, period)), verdicts)
    assert verdicts == {True: 265, False: 701, "unknown": 834}


def refuse_eraser(self, index):
    raise AssertionError(f"built Eraser({index})")


def test_coded_queries_build_no_erasers(monkeypatch):
    monkeypatch.setattr(Eraser, "__init__", refuse_eraser)
    assert factorize("0aba10abba1").cuts == (0, 5, 11)
    assert is_factor("0abba1") and not is_factor("0abba")
    assert viable_prefix("0abb") and not viable_prefix("aba0")
    assert lasso_member(UPWord("0aba", "01"), 6).status == "yes"


def test_odd_coded_words_vanish_by_parity_alone(monkeypatch):
    monkeypatch.setattr(Eraser, "__init__", refuse_eraser)
    # 1, 3 and 100,001 tokens
    for word in ["aba", "00aba", "0" + "aba" * 10 ** 5]:
        assert not vanishes_coded(word)


def test_coded_rejects_build_no_exceptions(monkeypatch):
    def refuse(self, message, position=None):
        raise AssertionError(f"built MalformedInput({message!r})")

    monkeypatch.setattr(MalformedInput, "__init__", refuse)
    # a stray b, codes broken by a letter, an empty code, an unexpected
    # character
    for word in ["b1", "ab01", "aa1", "0abb0", "0x1"]:
        assert factorize(word).count == 0
        assert not is_factor(word)
        assert not viable_prefix(word)
        assert not vanishes_coded(word)
        assert lasso_member(UPWord(word, "01"), 3).status == "no"


# ------------------------------------------------------------ enumeration

def test_factor_enumeration_is_frozen_at_the_start():
    expected = ["1", "01", "001", "0001", "00001", "0aba1", "1aba1"]
    assert [nth_factor(i) for i in range(7)] == expected


def test_factor_words_examples():
    assert factor_words(0) == []
    assert factor_words(1) == ["1"]
    assert factor_words(2) == ["1", "01"]


def test_factor_words_output_is_pinned():
    words = factor_words(12)
    text = "".join(w + "\n" for w in words)
    assert (len(words), hashlib.sha1(text.encode()).hexdigest()) == (
        626, "0d9359d4858369cd096f54cff6a547f065d9d589")


def test_both_enumeration_routes_agree():
    filtered = factors_by_filter(7)
    constructive = []
    i = 0
    while len(w := nth_factor(i)) <= 7:
        constructive.append(w)
        i += 1
    assert filtered == constructive


def test_factor_index_inverts_nth_factor():
    for i in range(200):
        assert factor_index(nth_factor(i)) == i
    assert factor_index("11") is None
    assert factor_index("") is None
    with pytest.raises(ValueError):
        nth_factor(-1)


def test_factor_index_inverts_nth_factor_at_every_row_boundary():
    # the first and last factor of each row up to 16 letters, where the
    # offsets into a packed row are multiples of the row's length
    first = 0
    for n in range(1, 17):
        size = len(factor_words(n)) - first
        for i in (first, first + size - 1):
            assert len(nth_factor(i)) == n
            assert factor_index(nth_factor(i)) == i
        first += size


def _one_letter_changed(word):
    """Every word that differs from word in exactly one letter."""
    for at, old in enumerate(word):
        for ch in "01ab".replace(old, ""):
            yield word[:at] + ch + word[at + 1:]


def _src_env():
    """The environment of a fresh interpreter that imports this tree."""
    src = str(Path(eraserlang.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=src)


def test_factor_index_is_the_position_among_filtered_factors():
    # with rows up to 13 built and entered, the rows alone decide
    nth_factor(1192)
    assert len(_ROWS) > 13
    position = {w: i for i, w in enumerate(factors_by_filter(8))}
    for w in _coded_words(range(9)):
        assert factor_index(w) == position.get(w), w
    # each 13-letter factor with one letter changed, against is_factor
    row13 = factor_words(13)[626:]
    assert len(row13) == 567
    for word in row13:
        for w in _one_letter_changed(word):
            i = factor_index(w)
            assert (i is not None) == is_factor(w), w
            assert i is None or nth_factor(i) == w, w


def test_factor_index_runs_is_factor_before_a_row_is_built():
    # a fresh interpreter, where no row is built: the non-factors come
    # first, so each goes through is_factor with the table still empty
    code = """if True:
        import json, sys
        from itertools import product
        from eraserlang import factor_index, is_factor
        from eraserlang.omega import _ROWS, _STARTS
        words = ["".join(t) for n in range(9)
                 for t in product("01ab", repeat=n)]
        answers = {}
        for w in sorted(words, key=is_factor):
            guarded = not 0 < len(w) < len(_ROWS)
            answers[w] = factor_index(w), guarded
        json.dump({"answers": answers, "starts": _STARTS}, sys.stdout)
    """
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=_src_env())
    out = json.loads(done.stdout)
    position = {w: i for i, w in enumerate(factors_by_filter(8))}
    words = _coded_words(range(9))
    assert sorted(out["answers"]) == sorted(words)
    for w in words:
        assert out["answers"][w][0] == position.get(w), w
    # every non-factor, and the first factor of each length, ran the guard
    guarded = sum(g for _, g in out["answers"].values())
    assert guarded == len(words) - len(position) + 8
    assert out["starts"] == [0, 0, 1, 2, 3, 4, 7, 14, 27, 49]


def test_row_sizes_are_pinned():
    lengths = []
    while len(w := nth_factor(len(lengths))) <= 13:
        lengths.append(len(w))
    sizes = [lengths.count(n) for n in range(1, 14)]
    assert sizes == [1, 1, 1, 1, 3, 7, 13, 22, 42, 82, 158, 295, 567]


PAD_ROW_SIZES = [1, 0, 0, 0, 2, 2, 2, 3, 11, 16, 24, 37, 91, 140, 244, 409,
                 848]


def _pads(m):
    """The pads coded m long, read out of their packed row in the table,
    which a factor row one letter longer ends in."""
    _grow(m + 1)
    return list(_row_words(_PADS[m], m))


def test_pad_row_sizes_are_pinned():
    assert [len(_pads(m)) for m in range(17)] == PAD_ROW_SIZES


@pytest.mark.parametrize("m", range(1, 17))
def test_pad_rows_are_packed_sorted_and_distinct(m):
    pads = _pads(m)
    row = _PADS[m]
    assert type(row) is str
    assert len(row) == m * PAD_ROW_SIZES[m]
    assert pads == sorted(set(pads))


def _staged_words_coded(m):
    """Every staged word whose coding is m letters long, symbol by symbol;
    a letter is coded in one letter and Eraser(j) in j + 2."""
    if m == 0:
        yield ()
        return
    symbols = [(0, 1), (1, 1)] + [(Eraser(j), j + 2) for j in range(1, m - 1)]
    for sym, cost in symbols:
        if cost <= m:
            for rest in _staged_words_coded(m - cost):
                yield (sym,) + rest


@pytest.mark.parametrize("m", range(12))
def test_pad_rows_match_a_literal_walk(m):
    # no index reaches m, so m stages run every eraser's stage
    walked = [encode(w) for w in _staged_words_coded(m)
              if pipeline(w, m) == ()]
    assert _pads(m) == sorted(walked)


def test_factor_index_does_not_depend_on_call_order():
    # the first call of a fresh interpreter asks for a 13-letter factor;
    # the 567 of them hold indices 626..1192
    i = 993
    word = nth_factor(i)
    assert len(word) == 13
    code = ("import sys; from eraserlang import factor_index; "
            "print(factor_index(sys.argv[1]))")
    done = subprocess.run([sys.executable, "-c", code, word],
                          capture_output=True, text=True, check=True,
                          env=_src_env())
    assert done.stdout == f"{i}\n"


def _kept():
    """The factor rows, pad rows and row starts in the table."""
    return len(_ROWS), len(_PADS), len(_STARTS)


@pytest.mark.parametrize("word", ["0" * 40, "1" * 40])
def test_factor_index_of_long_non_factors_builds_nothing(word):
    # a regression that builds the rows up to 40 letters would exhaust
    # memory, so the call runs in a fresh interpreter held to 256 MiB of
    # address space and ten seconds: it fails within seconds instead of
    # hanging the suite
    code = """if True:
        import json, resource, sys, time
        resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))
        from eraserlang import factor_index
        from eraserlang.omega import _PADS, _ROWS, _STARTS

        def kept():
            return len(_ROWS), len(_PADS), len(_STARTS)

        before = kept()
        t0 = time.perf_counter()
        index = factor_index(sys.argv[1])
        elapsed = time.perf_counter() - t0
        json.dump([index, elapsed, before, kept()], sys.stdout)
    """
    done = subprocess.run([sys.executable, "-c", code, word],
                          capture_output=True, text=True, check=True,
                          env=_src_env(), timeout=10)
    index, elapsed, kept, kept_after = json.loads(done.stdout)
    assert index is None
    assert elapsed < 0.1
    assert kept_after == kept


def test_factor_index_one_letter_past_the_built_rows_builds_nothing():
    # rows are built from 1 up, so the longest is one short of the
    # table's length; a factor of that length is answered by its row
    m = max(len(_ROWS) - 1, 13)
    assert factor_index("0" * (m - 1) + "1") == _STARTS[m]
    assert len(_ROWS) == m + 1 and len(_STARTS) == m + 2
    kept = _kept()
    for word in ("0" * (m + 1), "1" * (m + 1), "0" * (m - 1) + "11"):
        assert factor_index(word) is None
        assert _kept() == kept


def test_enumeration_lookups_agree_across_threads():
    # four threads in a fresh interpreter race to build and enter the
    # rows up to 13, switching as often as the interpreter allows; each
    # row's one pad walk counts the rows built
    code = """if True:
        import json, random, sys, threading
        sys.setswitchinterval(1e-6)
        import eraserlang.staged as staged
        from eraserlang import factor_index, nth_factor
        from eraserlang.omega import _ROWS, _STARTS

        walks = []
        walk = staged._vanishing_rows

        def counted(*args):
            walks.append(args)
            return walk(*args)

        staged._vanishing_rows = counted

        def run(seed, out):
            order = list(range(1193))
            random.Random(seed).shuffle(order)
            for i in order:
                word = nth_factor(i)
                out.append((i, word, factor_index(word)))

        outs = [[] for _ in range(4)]
        threads = [threading.Thread(target=run, args=(seed, out),
                                    daemon=True)
                   for seed, out in enumerate(outs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        alive = any(t.is_alive() for t in threads)
        json.dump({"alive": alive, "outs": outs, "starts": _STARTS,
                   "rows": len(_ROWS), "walks": len(walks)}, sys.stdout)
    """
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=_src_env(), timeout=120)
    out = json.loads(done.stdout)
    assert not out["alive"]
    sequential = [[i, nth_factor(i), factor_index(nth_factor(i))]
                  for i in range(1193)]
    assert all(i == j for i, _, j in sequential)
    orders = []
    for answers in out["outs"]:
        assert sorted(answers) == sequential
        orders.append([i for i, _, _ in answers])
    assert len(set(map(tuple, orders))) == 4  # each thread its own order
    assert out["starts"] == _STARTS[:15]
    # the rows 1 to 13, each built once
    assert out["rows"] == 14
    assert out["walks"] == 13


def test_listed_rows_answer_factor_index_alone():
    # a fresh interpreter lists the factors up to 13 letters, then asks
    # for the 13-letter ones and every one-letter change of them with
    # is_factor refusing to run: the listing entered its rows
    code = """if True:
        import json, sys
        import eraserlang.omega as omega
        row13 = omega.factor_words(13)[626:]

        def refuse(word):
            raise AssertionError(f"is_factor ran on {word}")

        omega.is_factor = refuse
        changed = [word[:at] + ch + word[at + 1:]
                   for word in row13 for at, old in enumerate(word)
                   for ch in "01ab".replace(old, "")]
        json.dump([[w, omega.factor_index(w)] for w in row13 + changed],
                  sys.stdout)
    """
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=_src_env())
    answers = json.loads(done.stdout)
    row13 = factor_words(13)[626:]
    assert answers[:567] == [[w, 626 + k] for k, w in enumerate(row13)]
    changed = answers[567:]
    assert [w for w, _ in changed] == [
        w for word in row13 for w in _one_letter_changed(word)]
    for w, i in changed:
        assert (i is not None) == is_factor(w), w
        assert i is None or nth_factor(i) == w, w


def test_a_row_build_cut_short_enters_nothing():
    # a fresh interpreter whose first build of row 2 fails after its
    # pads are walked: the table keeps row 1 alone, and the next call
    # builds row 2 in full
    code = """if True:
        import json, sys
        import eraserlang.omega as omega

        def cut(*args):
            raise MemoryError

        omega.product, product = cut, omega.product
        try:
            omega.nth_factor(1)
        except MemoryError:
            pass
        kept = len(omega._PADS), len(omega._ROWS), len(omega._STARTS)
        omega.product = product
        json.dump([kept, omega.factor_words(8)], sys.stdout)
    """
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=_src_env())
    kept, words = json.loads(done.stdout)
    assert kept == [1, 2, 3]
    assert words == factor_words(8)


def test_enumeration_is_length_lex_monotone():
    keys = [(len(w), w) for w in (nth_factor(i) for i in range(300))]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


# -------------------------------------------------------- index pairings

def test_pairing_consistent_examples():
    assert pairing_consistent("1", "1")
    assert pairing_consistent("01", "01")
    assert not pairing_consistent("1", "0")
    assert pairing_consistent("00", "01")


def test_pairing_handles_short_and_long_sides():
    assert pairing_consistent("01", "0")        # nu still incomplete
    assert pairing_consistent("1", "10")        # nu runs ahead into 01
    assert not pairing_consistent("1", "1b")
    assert pairing_consistent("", "")
    assert pairing_consistent("", "0aba1")      # any factor stream fits


def test_pairing_open_blocks_are_permissive():
    # two open zeros force the next factor index to be >= 2, but factor
    # extensions reach every sufficiently large index, so any start of a
    # single factor stays consistent
    assert pairing_consistent("00", "1")
    assert pairing_consistent("00", "001")


def test_pairing_complete_blocks_are_strict():
    # sigma's closed block 001 demands exactly the factor of index two
    assert not pairing_consistent("001", "01")
    assert pairing_consistent("001", "001")


def test_pairing_rejects_foreign_characters():
    with pytest.raises(MalformedInput):
        pairing_consistent("2", "")
    with pytest.raises(MalformedInput):
        pairing_consistent("", "x")


def test_pairing_full_streams_and_corruptions():
    sigma = "0100101"
    nu = nth_factor(1) + nth_factor(2) + nth_factor(1)
    assert pairing_consistent(sigma, nu)
    corrupted = "1" + nu[1:]
    assert not pairing_consistent(sigma, corrupted)


def _pairing_joining_every_factor(sigma, nu):
    """pairing_consistent read off the factors of every closed block."""
    expected = "".join(nth_factor(len(block))
                       for block in sigma.split("1")[:-1])
    common = min(len(nu), len(expected))
    return (nu[:common] == expected[:common]
            and viable_prefix(nu[len(expected):]))


def test_pairing_agrees_with_joining_every_factor():
    rng = random.Random(5)
    for _ in range(5000):
        # random pairs
        sigma = "".join(rng.choices("001", k=rng.randrange(13)))
        nu = "".join(rng.choices("01ab", k=rng.randrange(13)))
        assert pairing_consistent(sigma, nu) == (
            _pairing_joining_every_factor(sigma, nu)), (sigma, nu)
        # the expected stream, cut short or run past, and maybe spoiled
        sigma = "".join("0" * rng.randrange(8) + "1"
                        for _ in range(rng.randrange(6)))
        sigma += "0" * rng.randrange(3)
        stream = "".join(nth_factor(len(block))
                         for block in sigma.split("1")[:-1])
        nu = stream[:rng.randint(0, len(stream) + 2)] + "".join(
            rng.choices("01ab", k=rng.randrange(4)))
        if nu and rng.random() < 0.5:
            at = rng.randrange(len(nu))
            nu = nu[:at] + rng.choice("01ab") + nu[at + 1:]
        assert pairing_consistent(sigma, nu) == (
            _pairing_joining_every_factor(sigma, nu)), (sigma, nu)


def test_pairing_table_is_pinned():
    # every sigma of at most 5 binary letters against every nu of at most
    # 4 coded letters, one line per verdict
    def strings(alphabet, max_len):
        return ("".join(t) for n in range(max_len + 1)
                for t in product(alphabet, repeat=n))

    lines = "".join(f"{sigma},{nu},{int(pairing_consistent(sigma, nu))}\n"
                    for sigma in strings("01", 5)
                    for nu in strings("01ab", 4))
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "e5dab7034e8cb83e0a5ac3b41145a5f9002857caeba8e40b6ebd91257a96893c")


# ------------------------------------------------------- erasure ladders

def test_in_erasure_ladder_examples():
    assert in_erasure_ladder(UPWord((), (1, 0, E1)), 1)
    assert not in_erasure_ladder(UPWord((), (0, E1)), 1)
    assert not in_erasure_ladder(UPWord((), (0,)), 1)
    assert in_erasure_ladder(UPWord((), (0, E2, 1)), 2)


def test_in_erasure_ladder_validates_arguments():
    with pytest.raises(ValueError, match="stage count must be >= 1"):
        in_erasure_ladder(UPWord((), (1,)), 0)
    with pytest.raises(MalformedInput):
        in_erasure_ladder(UPWord((), (E2,)), 1)


def test_in_coded_erasure_ladder_examples():
    assert in_coded_erasure_ladder(UPWord("", "10aba"), 1)
    assert not in_coded_erasure_ladder(UPWord("", "0aba"), 1)
    # an out of order code fails the stream scan, it does not raise
    assert not in_coded_erasure_ladder(UPWord("", "abba0"), 1)
    assert not in_coded_erasure_ladder(UPWord("", "abba0"), 2)
    assert in_coded_erasure_ladder(UPWord("", "0abba1"), 2)
    with pytest.raises(ValueError):
        in_coded_erasure_ladder(UPWord("", "0aba1"), 0)


def test_coded_ladder_matches_staged_ladder():
    alphabet = [0, 1, E1, E2]
    for plen in (1, 2, 3):
        for period in product(alphabet, repeat=plen):
            x = UPWord((), period)
            for p in (1, 2):
                top = max((s.index for s in period if isinstance(s, Eraser)),
                          default=0)
                if top > p:
                    assert not in_coded_erasure_ladder(encode_up(x), p)
                else:
                    assert (in_coded_erasure_ladder(encode_up(x), p)
                            == in_erasure_ladder(x, p))


def test_has_infinitely_many_ones():
    assert has_infinitely_many_ones(UPWord("", "01"))
    assert not has_infinitely_many_ones(UPWord("1", "0"))
    with pytest.raises(MalformedInput):
        has_infinitely_many_ones(UPWord((), (E1,)))


# ------------------------------------------------- intersection identity

def test_verify_intersection_identity_small():
    assert verify_intersection_identity(1, 0)
    assert verify_intersection_identity(1, 4)
    assert verify_intersection_identity(2, 4)


def test_verify_intersection_identity_report(tmp_path):
    path = tmp_path / "report.txt"
    assert verify_intersection_identity(1, 4, report_path=str(path))
    text = path.read_text()
    assert "result: PASS" in text
    assert "block order p=1" in text
    assert "intersection side:" in text


def test_verify_intersection_identity_validates_arguments():
    with pytest.raises(ValueError):
        verify_intersection_identity(0, 4)
    with pytest.raises(ValueError):
        verify_intersection_identity(1, -1)
