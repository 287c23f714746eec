"""viable_prefix reads a word in chunks with one counter.

A str is one chunk; any split of it into chunks gets the answer of the
whole word, and of a literal decode and stage-one stack, and a stream
of chunks is read in the memory of one chunk.
"""

import hashlib
import tracemalloc
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from eraserlang import Eraser, MalformedInput, viable_prefix
from oracles import decode_by_hand

E1 = Eraser(1)


def viable_by_stage_one(text):
    """The word decodes, a dangling code allowed, and a literal stack
    pass of stage one never starves."""
    try:
        symbols, _ = decode_by_hand(text)
    except MalformedInput:
        return False
    depth = 0
    for sym in symbols:
        if sym != E1:
            depth += 1
        elif depth:
            depth -= 1
        else:
            return False
    return True


WORDS_UPTO_8 = ["".join(p) for n in range(9)
                for p in product("01ab", repeat=n)]


def test_matches_the_answers_before_the_chunked_scan():
    answers = bytes(map(viable_prefix, WORDS_UPTO_8))
    assert len(answers) == 87_381
    # the answers of the pipeline-based viable_prefix that the chunked
    # scan replaced, over the same words in the same order
    assert sum(answers) == 1738
    assert hashlib.sha256(answers).hexdigest()[:16] == "d3e28828bc4ba199"
    assert answers == bytes(map(viable_by_stage_one, WORDS_UPTO_8))


def test_every_two_chunk_split_of_short_words_agrees():
    for word in WORDS_UPTO_8[:5461]:  # up to 6 letters
        whole = viable_prefix(word)
        for cut in range(len(word) + 1):
            assert viable_prefix([word[:cut], word[cut:]]) == whole, cut


# tokens, an open code and a stray letter, so that most words decode
_PIECES = st.sampled_from(["0", "1", "aba", "abba", "abbba", "a", "ab", "b"])


@settings(max_examples=300, deadline=None)
@given(st.lists(_PIECES, max_size=30).map("".join), st.data())
def test_any_split_gets_the_answer_of_the_whole_word(word, data):
    whole = viable_prefix(word)
    assert whole == viable_by_stage_one(word)
    for cut in range(len(word) + 1):
        assert viable_prefix(iter([word[:cut], word[cut:]])) == whole
    cuts = sorted(data.draw(st.lists(st.integers(0, len(word)), max_size=8)))
    chunks = [word[a:b] for a, b in zip([0] + cuts, cuts + [len(word)])]
    assert viable_prefix(chunks) == whole, chunks


def test_a_carried_code_keeps_its_index():
    # the open code a b^j is carried as at most abb; only its first b
    # tells index 1 from the rest
    assert viable_prefix(["0a", "ba"]) and not viable_prefix(["a", "ba"])
    assert not viable_prefix(["a", "b", "a"])
    assert viable_prefix(["ab", "b", "a"])
    assert viable_prefix(["ab", "bbbb", "bba"]) and viable_prefix(["ab", "ba"])
    assert not viable_prefix(["ab", "a0"]) and not viable_prefix(["abb", "b0"])
    assert not viable_prefix(["a", "a"])
    assert viable_prefix([]) and viable_prefix(["", ""])


def test_a_stream_is_read_in_the_memory_of_one_chunk():
    chunk = ("0aba" * (1 << 14))[:1 << 16]  # 64 KiB, as the CLI reads
    reads = 10 ** 7 // len(chunk)
    tracemalloc.start()
    try:
        assert viable_prefix(chunk for _ in range(reads))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_chunks_of_any_size_give_the_answer_of_the_whole_word():
    words = ["".join(p) for n in range(7) for p in product("01abx", repeat=n)]
    # long codes, which cross chunk boundaries and so reach the carry
    words += ["a" + "b" * 9 + "a0", "0" * 5 + "a" + "b" * 9,
              "abbbba" * 3 + "ab", "0" * 6 + "aba" * 6, "0" * 5 + "aba" * 6]
    answers = [viable_by_stage_one(word) for word in words]
    for word, answer in zip(words, answers):
        assert viable_prefix(word) == answer, word
        assert viable_prefix([word[:4], word[4:]]) == answer, word
        for size in (1, 2, 3, 5):
            chunks = [word[i:i + size] for i in range(0, len(word), size)]
            assert viable_prefix(chunks) == answer, (size, word)
