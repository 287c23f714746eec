import random
import re
from itertools import product

import pytest
from hypothesis import given, strategies as st

from eraserlang import coding
from eraserlang import (
    Eraser,
    MalformedInput,
    UPWord,
    decode,
    decode_up,
    encode,
    encode_up,
    in_block_stream,
    in_coded_erasure_ladder,
    in_erasure_ladder,
    parse_staged,
    parse_up,
    up_normalize,
    vanishes,
    vanishes_coded,
    viable_prefix,
)

from oracles import decode_by_hand, encode_by_hand, single_pass

E1, E2, E3 = Eraser(1), Eraser(2), Eraser(3)

staged_words = st.lists(
    st.sampled_from([0, 1, E1, E2, E3, Eraser(5)]), max_size=8).map(tuple)


# ---------------------------------------------------------------- codes

def test_encode_examples():
    assert encode(parse_staged("0 E2 1")) == "0abba1"
    assert encode(()) == ""
    assert encode((E1,)) == "aba"


def test_decode_examples():
    res = decode("0abba1")
    assert res.symbols == (0, E2, 1) and res.dangling == ""
    res = decode("ab")
    assert res.symbols == () and res.dangling == "ab"


@pytest.fixture
def built(monkeypatch):
    """The index of every Eraser() call while the test runs."""
    indices = []
    new = Eraser.__new__

    def counting_new(cls, index):
        indices.append(index)
        return new(cls, index)

    monkeypatch.setattr(Eraser, "__new__", counting_new)
    return indices


def test_decode_builds_one_eraser_per_distinct_index(built):
    # 160,000 codes over three indices past the table, then a dangling code
    k = coding._K
    e1, e2, e3 = (Eraser(j) for j in range(k + 1, k + 4))
    c1, c2, c3 = ("a" + "b" * j + "a" for j in range(k + 1, k + 4))
    built.clear()
    res = decode(("0" + c1 + "1" + c2) * 40_000 + c3 * 80_000 + "ab")
    assert sorted(built) == [k + 1, k + 2, k + 3]
    assert len(res.symbols) == 240_000 and res.dangling == "ab"
    assert res.symbols[:4] == (0, e1, 1, e2) and res.symbols[-1] == e3


def test_a_text_coded_in_the_table_builds_no_eraser(built):
    k = coding._K
    codes = ["a" + "b" * j + "a" for j in range(1, k + 1)]
    # every code of the table, then one dangling with as many b's as the
    # last: no run of k + 1 b's
    text = "0".join(codes) * 1000 + "1" + "a" + "b" * k
    res = decode(text)
    assert encode(res.symbols) + res.dangling == text
    assert built == []
    assert res.symbols[:3] == (E1, 0, E2)
    assert res.symbols[-2:] == (Eraser(k), 1)
    assert res.dangling == "a" + "b" * k


def test_codes_agree_across_the_edge_of_the_table():
    k = coding._K
    alphabet = [0, 1, Eraser(k - 1), Eraser(k), Eraser(k + 1)]
    prefixes = set()
    for n in range(6):
        for word in product(alphabet, repeat=n):
            text = encode(word)
            assert text == encode_by_hand(word), word
            assert decode(text) == (word, "") == decode_by_hand(text), word
            prefixes.update(text[:i] for i in range(len(text)))
    # every prefix, so that dangling codes of k - 1 to k + 1 b's, and
    # the runs of k + 1 b's of unfinished codes, are read too
    for text in prefixes:
        assert decode(text) == decode_by_hand(text), text


def test_items_that_only_equal_a_symbol_keep_their_own_spelling():
    # True == 1 and 1.0 == 1, but each is spelled as str spells it; 2 and
    # "x" are past the table
    assert encode((True, 0, E1, False, 1.0, 2, "x", 1)) == (
        "True0abaFalse1.02x1")
    assert encode((1, True, 0.0, 0, Eraser(coding._K + 1), 2)) == (
        "1True0.00a" + "b" * (coding._K + 1) + "a2")
    assert encode((2, 0)) == "20"
    assert encode(("0", "aba")) == "0aba"


def test_encode_reads_any_iterable_of_symbols():
    far = Eraser(coding._K + 4)
    for word in [(0, E1, 1), (E2, far, 1), (True, far), (far, 10 ** 30)]:
        want = encode_by_hand(word)
        assert encode(list(word)) == encode(iter(word)) == want, word
        assert encode(sym for sym in word) == want, word


@pytest.mark.parametrize("word", [
    (0, Eraser(10 ** 20)),
    (E1, True, Eraser(10 ** 20), Eraser(coding._K), 1),
])
def test_a_code_too_large_to_build_is_malformed_input(word):
    with pytest.raises(MalformedInput,
                       match="^eraser index 100000000000000000000 is too "
                             "large to encode$"):
        encode(word)


@pytest.mark.parametrize("text, position", [
    ("aa", 2),      # empty code
    ("ab0", 3),     # letter inside a code
    ("b", 1),       # stray beta
    ("0b", 2),
    ("01x", 3),     # foreign character
])
def test_decode_rejects_with_position(text, position):
    with pytest.raises(MalformedInput) as exc:
        decode(text)
    assert exc.value.position == position


@given(staged_words)
def test_decode_inverts_encode(word):
    res = decode(encode(word))
    assert res.symbols == word and res.dangling == ""


@given(staged_words, st.integers(min_value=0, max_value=40))
def test_decode_of_any_code_prefix_is_coherent(word, cut):
    text = encode(word)[:cut]
    res = decode(text)
    assert res.symbols == word[:len(res.symbols)]
    assert encode(res.symbols) + res.dangling == text


_LETTER_OR_CODE = re.compile(r"[01]|ab+a")
_OPEN_CODE = re.compile(r"ab*")


def literal_decode(text):
    """decode by its definition: (symbols, dangling) or (message, position).

    Take a letter or a whole code wherever one starts.  Where none does,
    a code that runs to the end dangles, a code broken by any other
    character is malformed at that character, a stray b is malformed
    itself, and anything else is an unexpected character.
    """
    symbols = []
    i = 0
    while i < len(text):
        block = _LETTER_OR_CODE.match(text, i)
        if block:
            token = block.group()
            symbols.append(Eraser(len(token) - 2) if len(token) > 1
                           else int(token))
            i = block.end()
            continue
        code = _OPEN_CODE.match(text, i)
        if code and code.end() == len(text):
            return tuple(symbols), text[i:]
        if code:
            return "malformed code", code.end() + 1
        if text[i] == "b":
            return "malformed code", i + 1
        return f"unexpected character {text[i]!r}", i + 1
    return tuple(symbols), ""


def _outcome(decoder, text):
    """(symbols, dangling), or (message, position) when decoder raises."""
    try:
        return tuple(decoder(text))
    except MalformedInput as exc:
        return str(exc), exc.position


def test_decode_matches_the_literal_decoder():
    for n in range(8):
        for letters in product("01abx", repeat=n):
            text = "".join(letters)
            want = literal_decode(text)
            if isinstance(want[1], int):  # rejected
                want = (f"{want[0]} at position {want[1]}", want[1])
            got = _outcome(decode, text)
            assert got == want == _outcome(decode_by_hand, text), text


def test_encoding_is_injective_at_desk_scale():
    from eraserlang import words_over
    words = list(words_over(3, 4))
    assert len({encode(w) for w in words}) == len(words)


def test_codes_sort_in_index_order():
    # the stage engine runs coded tokens in the sort order of their codes
    codes = [encode((Eraser(j),)) for j in range(1, 501)]
    shuffled = codes[:]
    random.Random(2024).shuffle(shuffled)
    assert shuffled != codes
    assert sorted(shuffled) == codes


def vanishes_by_decoding(text):
    """vanishes_coded through the public staged route: decode, then
    vanishes at the word's top index."""
    try:
        symbols, dangling = decode(text)
    except MalformedInput:
        return False
    top = max((s.index for s in symbols if type(s) is Eraser), default=1)
    return not dangling and vanishes(symbols, top)


def test_vanishes_coded_matches_the_decoded_route():
    members = 0
    for text in short_words(8):
        want = vanishes_by_decoding(text)
        assert vanishes_coded(text) == want, text
        members += want
    assert members == 21  # the 87,381 words hold 21 pads


def test_stage_one_kinds_match_the_tokens_and_a_literal_pass():
    viable = 0
    for text in short_words(8):
        tokens, dangling = coding._tokenize(text)
        # stage one over the tokens, literally: the code of Eraser(1)
        # pops one survivor or starves, every other token survives
        want = None
        if tokens is not None:
            depth = 0
            for token in tokens:
                if token != "aba":
                    depth += 1
                elif depth:
                    depth -= 1
                else:
                    break
            else:
                want = depth, dangling[:3]
        assert coding._stage_one(0, "", text) == want, text
        # viable_prefix reads the kinds: literally, the word decodes, a
        # dangling code allowed, and a stage-one pass never starves
        try:
            symbols, _ = decode_by_hand(text)
        except MalformedInput:
            want = False
        else:
            want = single_pass(symbols, 1) is not None
        assert viable_prefix(text) == want, text
        viable += want
    assert viable == 1738


# ----------------------------------------------------- periodic encoding

def test_encode_up_examples():
    assert encode_up(parse_up("|0 E1", kind="staged")) == UPWord("", "0aba")
    assert encode_up(parse_up("1|0", kind="staged")) == UPWord("1", "0")
    assert encode_up(parse_up("|E2", kind="staged")) == UPWord("", "abba")


@given(st.lists(st.sampled_from([0, 1, E1, E2]), max_size=3).map(tuple),
       st.lists(st.sampled_from([0, 1, E1, E2]),
                min_size=1, max_size=4).map(tuple))
def test_decode_up_inverts_encode_up(prefix, period):
    x = UPWord(prefix, period)
    assert decode_up(encode_up(x)) == up_normalize(x)


def test_decode_up_handles_codes_cut_at_the_boundary():
    # 0a ba0a ba0a .. spells the same stream as (0 aba)^omega
    assert decode_up(UPWord("0a", "ba0a")) == UPWord((), (0, E1))


def test_decode_up_rejects_streams_without_complete_codes():
    with pytest.raises(MalformedInput, match="code never closes"):
        decode_up(UPWord("a", "b"))
    with pytest.raises(MalformedInput):
        decode_up(UPWord("", "a"))
    with pytest.raises(MalformedInput):
        decode_up(UPWord("", "ab"))


# ----------------------------------------------------------- block scans

def test_in_block_stream_examples():
    assert in_block_stream(UPWord("", "0aba"), 1)
    assert not in_block_stream(UPWord("", "abba"), 1)
    assert in_block_stream(UPWord("", "abba"), 2)
    assert not in_block_stream(UPWord("", "a"), 3)
    assert not in_block_stream(UPWord("", "ab"), 1)


def test_in_block_stream_validates_order():
    with pytest.raises(ValueError):
        in_block_stream(UPWord("", "0"), 0)


@given(st.lists(st.sampled_from([0, 1, E1, E2]), max_size=3).map(tuple),
       st.lists(st.sampled_from([0, 1, E1, E2]),
                min_size=1, max_size=4).map(tuple))
def test_coded_staged_streams_are_block_streams(prefix, period):
    coded = encode_up(UPWord(prefix, period))
    assert in_block_stream(coded, 2)
    top = max((s.index for s in prefix + period if isinstance(s, Eraser)),
              default=0)
    if top > 1:
        # the order-1 scanner must reject somewhere in the stream
        assert not in_block_stream(coded, 1)


def short_words(max_len, min_len=0):
    for n in range(min_len, max_len + 1):
        for letters in product("01ab", repeat=n):
            yield "".join(letters)


def block_stream_by_regex(x, p):
    """Blocks then at most one open block over the prefix and p + 3
    copies: enough copies for any code to close or outgrow order p."""
    blocks = re.compile(rf"(?:[01]|ab{{1,{p}}}a)*(?:ab{{0,{p}}})?")
    return blocks.fullmatch(x.prefix + x.period * (p + 3)) is not None


def test_block_streams_match_the_block_regex():
    words = [UPWord(u, v) for u in short_words(3) for v in short_words(4, 1)]
    for p in (1, 2, 3):
        for x in words:
            member = in_block_stream(x, p)
            assert member == block_stream_by_regex(x, p), (x, p)
            assert in_coded_erasure_ladder(x, p) == (
                member and in_erasure_ladder(decode_up(x), p)), (x, p)


def test_block_order_is_monotone():
    x = UPWord("", "abba0")
    assert [in_block_stream(x, p) for p in (1, 2, 3)] == [False, True, True]
