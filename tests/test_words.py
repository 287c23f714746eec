import copy
import gc
import math
import pickle
import random
import sys
import threading
from itertools import product

import pytest
from hypothesis import given, strategies as st

from eraserlang import (
    Eraser,
    MalformedInput,
    UPWord,
    decode,
    encode,
    format_staged,
    format_up,
    parse_binary,
    parse_coded,
    parse_staged,
    parse_up,
    up_equal,
    up_normalize,
    min_stages,
    staged_erase,
    up_prefix,
    vanishes,
)
from eraserlang import words

from oracles import min_stages_brute, pipeline, primitive_root, take

coded_words = st.text(alphabet="01ab", max_size=8)
coded_periods = st.text(alphabet="01ab", min_size=1, max_size=6)


def up(prefix, period):
    return UPWord(prefix, period)


# ------------------------------------------------------------- parsing

def test_parse_coded_accepts_the_four_letters():
    assert parse_coded("0abba1") == "0abba1"
    assert parse_coded("") == ""


def test_parse_coded_rejects_with_position():
    with pytest.raises(MalformedInput) as err:
        parse_coded("0x1")
    assert "unexpected character 'x' at position 2" in str(err.value)
    assert err.value.position == 2


def test_parse_binary_rejects_with_position():
    with pytest.raises(MalformedInput) as err:
        parse_binary("0a1")
    assert "unexpected character 'a' at position 2" in str(err.value)
    assert err.value.position == 2


def test_malformed_input_writes_its_own_position():
    exc = MalformedInput("c", 3)
    assert str(exc) == "c at position 3"
    assert (exc.complaint, exc.position) == ("c", 3)
    assert exc.args == (str(exc),)
    moved = exc.shifted(4)
    assert str(moved) == "c at position 7"
    assert (moved.complaint, moved.position) == ("c", 7)
    assert moved.args == (str(moved),)
    # a complaint that ends in a number is moved by its position alone
    exc = MalformedInput("eraser index must be >= 1, got 0", 2).shifted(5)
    assert str(exc) == "eraser index must be >= 1, got 0 at position 7"


def test_malformed_input_without_a_position_is_its_complaint():
    exc = MalformedInput("period must be nonempty")
    assert str(exc) == "period must be nonempty"
    assert exc.position is None
    assert exc.args == (str(exc),)


def test_parse_staged_tokens():
    assert parse_staged("0 E2 1") == (0, Eraser(2), 1)
    assert parse_staged("") == ()
    assert parse_staged("  E12  ") == (Eraser(12),)


def test_parse_staged_rejects_bad_tokens():
    for text, pos in [("E0", 1), ("2", 1), ("0 e1", 3), ("0 E01", 3)]:
        with pytest.raises(MalformedInput) as err:
            parse_staged(text)
        assert err.value.position == pos


def test_parse_staged_rejects_an_index_past_the_digit_limit():
    # Python refuses to read an int from more than 4,300 digits
    with pytest.raises(MalformedInput) as err:
        parse_staged("0 E" + "1" * 5000)
    assert str(err.value) == "eraser index has too many digits at position 3"
    assert err.value.position == 3


def test_eraser_index_must_be_positive():
    with pytest.raises(MalformedInput):
        Eraser(0)


def test_eraser_index_must_be_exactly_an_int():
    # 1.0 and True hash as 1, so either would find the eraser of index 1
    for index in (1.0, True, "1"):
        with pytest.raises(TypeError):
            Eraser(index)


def _eraser_routes(j):
    """Eraser j reached by every route that makes or copies one."""
    e = Eraser(j)
    return [e, Eraser(j), parse_staged(f"E{j}")[0],
            decode("a" + "b" * j + "a").symbols[0],
            pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)]


def test_every_route_returns_the_live_eraser():
    for j in (1, 2, 7, 5000):
        first, *rest = _eraser_routes(j)
        assert all(e is first for e in rest)
        assert first.index == j and type(first) is Eraser


def test_eraser_table_holds_no_eraser_alive():
    # only its own indices, held by no other code, are looked up, so an
    # eraser that another test keeps alive cannot change the outcome
    indices = range(2 * 10 ** 6, 2 * 10 ** 6 + 10 ** 4)
    word = parse_staged(" ".join(f"E{j}" for j in indices))
    assert all(j in words._LIVE for j in indices)
    del word
    gc.collect()
    assert not any(j in words._LIVE for j in indices)


def test_threads_making_one_index_share_one_eraser():
    indices = range(3 * 10 ** 6, 3 * 10 ** 6 + 2000)  # held by no other code
    start = threading.Barrier(8, timeout=60)
    made = [None] * 8

    def make(t):
        start.wait()
        made[t] = [Eraser(j) for j in indices]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often inside Eraser()
    try:
        threads = [threading.Thread(target=make, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for row in made[1:]:
        assert all(a is b for a, b in zip(row, made[0], strict=True))


def test_erasers_of_every_route_evaluate_alike():
    # each index drawn from a different route at each position
    routes = {j: _eraser_routes(j) for j in (1, 2, 3)}
    rng = random.Random(34)
    found = set()
    for _ in range(3000):
        word = tuple(rng.choice(routes[sym]) if sym else rng.randrange(2)
                     for sym in rng.choices((0, 1, 2, 3), (4, 3, 2, 1),
                                            k=rng.randrange(1, 15)))
        want = pipeline(word, 3)
        out = staged_erase(word, 3)
        assert out.word == want and out.is_undefined == (want is None)
        assert vanishes(word, 3) == (want == ())
        assert min_stages(word) == min_stages_brute(word)
        found.add(min_stages(word))
    assert found == {None, 1, 2, 3}


def test_eraser_is_final_and_copies_stay_erasers():
    # the loops over staged words test type(sym) is Eraser
    with pytest.raises(TypeError):
        class Sub(Eraser):
            pass
    word = parse_staged("0 E2 1 E1 E1 0 E2 E3")
    for twin in (pickle.loads(pickle.dumps(word)), copy.deepcopy(word)):
        assert twin == word
        assert [vanishes(twin, k) for k in range(1, 4)] == [
            vanishes(word, k) for k in range(1, 4)]
        assert encode(twin) == encode(word) == "0abba1abaaba0abbaabbba"


def test_format_staged_round_trip():
    for text in ["", "0", "0 E2 1", "E1 E1 0 1"]:
        assert format_staged(parse_staged(text)) == " ".join(text.split())


# ------------------------------------------------------------ UP words

def test_upword_validation():
    with pytest.raises(MalformedInput):
        UPWord("0", "")
    with pytest.raises(MalformedInput):
        UPWord("0", (0,))


def test_parse_up_and_format_up():
    x = parse_up("1 1|E1 0", kind="staged")
    assert x == UPWord((1, 1), (Eraser(1), 0))
    assert format_up(x) == "1 1|E1 0"
    assert parse_up("|01") == UPWord("", "01")
    with pytest.raises(MalformedInput):
        parse_up("01")
    with pytest.raises(MalformedInput):
        parse_up("0|1|0")
    with pytest.raises(MalformedInput):
        parse_up("0|")
    with pytest.raises(ValueError):
        parse_up("|01", kind="decimal")


@pytest.mark.parametrize("text, kind, message, position", [
    ("01|x", "coded", "unexpected character 'x' at position 4", 4),
    ("x|01", "coded", "unexpected character 'x' at position 1", 1),
    ("0|2", "binary", "unexpected character '2' at position 3", 3),
    ("2|0", "binary", "unexpected character '2' at position 1", 1),
    ("|0 E0", "staged", "unexpected token 'E0' at position 4", 4),
    ("E0 1|0", "staged", "unexpected token 'E0' at position 1", 1),
    ("0 1|1 e1", "staged", "unexpected token 'e1' at position 7", 7),
    ("0|", "coded", "period must be nonempty at position 3", 3),
    ("0|1|0", "coded", "expected exactly one '|' separator at position 4", 4),
    ("01", "coded", "expected exactly one '|' separator at position 3", 3),
])
def test_parse_up_counts_positions_in_the_whole_text(text, kind, message,
                                                     position):
    with pytest.raises(MalformedInput) as err:
        parse_up(text, kind=kind)
    assert str(err.value) == message
    assert err.value.position == position


def test_up_prefix_examples():
    assert up_prefix(up("", "01"), 5) == "01010"
    assert up_prefix(up("1", "0"), 3) == "100"
    assert up_prefix(up("", "1"), 0) == ""
    with pytest.raises(ValueError):
        up_prefix(up("", "1"), -1)


def test_up_normalize_examples():
    assert up_normalize(up("0", "10")) == up("", "01")
    assert up_normalize(up("", "0101")) == up("", "01")
    assert up_normalize(up("", "1")) == up("", "1")


def test_up_normalize_staged_words():
    x = up((0,), (Eraser(1), 0))
    assert up_normalize(x) == up((), (0, Eraser(1)))


def test_up_equal_examples():
    assert up_equal(up("", "01"), up("0", "10"))
    assert not up_equal(up("", "0"), up("", "1"))
    assert up_equal(up("", "01"), up("", "0101"))


# ---------------------------------------------------------- properties

@given(coded_words, coded_periods, st.integers(0, 40))
def test_up_prefix_matches_unrolling(prefix, period, n):
    x = up(prefix, period)
    assert up_prefix(x, n) == take(x, n)


@given(coded_words, coded_periods, st.integers(0, 30), st.integers(0, 30))
def test_up_prefix_monotone(prefix, period, n, m):
    if n > m:
        n, m = m, n
    x = up(prefix, period)
    assert up_prefix(x, m).startswith(up_prefix(x, n))


@given(coded_words, coded_periods)
def test_normalize_idempotent_and_equal(prefix, period):
    x = up(prefix, period)
    y = up_normalize(x)
    assert up_normalize(y) == y
    assert up_equal(x, y)
    assert y.period == primitive_root(y.period)


def normalize_one_symbol_at_a_time(x):
    """up_normalize by its definition: absorb the prefix's last symbol
    while it equals the period's, rotating the period right each time."""
    u, v = x.prefix, primitive_root(x.period)
    while u and u[-1] == v[-1]:
        u, v = u[:-1], v[-1:] + v[:-1]
    return up(u, v)


def test_up_normalize_matches_absorbing_one_symbol_at_a_time():
    words = ["".join(w) for n in range(6) for w in product("01a", repeat=n)]
    periods = [w for w in words if 1 <= len(w) <= 4]
    for prefix in words:
        for period in periods:
            x = up(prefix, period)
            assert up_normalize(x) == normalize_one_symbol_at_a_time(x), x


@given(coded_words, coded_periods, coded_words, coded_periods)
def test_up_equal_matches_bounded_comparison(u1, v1, u2, v2):
    # |u1| + |u2| + 2 lcm(|v1|, |v2|) symbols decide equality of two
    # ultimately periodic words
    x, y = up(u1, v1), up(u2, v2)
    bound = len(u1) + len(u2) + 2 * math.lcm(len(v1), len(v2))
    assert up_equal(x, y) == (take(x, bound) == take(y, bound))
