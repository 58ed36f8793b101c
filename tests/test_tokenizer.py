import itertools
import logging
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfns import tokenizer
from sfns._binio import StorageError, crc32c
from sfns.evaluation import synth_corpus
from sfns.sparse import ValidationError
from sfns.tokenizer import (
    UNK_ID,
    TokenizerModel,
    retrieval_tokens,
    train_unigram,
    trigrams,
)

from _oracles import UNK_SCORE, all_segmentations, best_segmentation


def _random_vocab(rng: random.Random, alphabet: str, max_len: int = 3):
    pieces = {c: rng.uniform(-8.0, -1.0) for c in alphabet}
    n_multi = rng.randint(3, 12)
    for _ in range(n_multi):
        length = rng.randint(2, max_len)
        piece = "".join(rng.choice(alphabet) for _ in range(length))
        pieces.setdefault(piece, rng.uniform(-8.0, -1.0))
    return pieces


# -- Viterbi segmentation -----------------------------------------------------


def test_viterbi_explicit_fixture():
    vocab = {
        "p": -3.0,
        "i": -3.0,
        "n": -3.0,
        "k": -3.0,
        "pi": -2.0,
        "nk": -2.0,
        "pin": -2.5,
    }
    model = TokenizerModel(vocab, max_piece_len=3)
    # [pi, nk] scores -4.0; [pin, k] scores -5.5; singles score -12.
    assert model.segment_word("pink") == ["pi", "nk"]


def test_viterbi_matches_exhaustive_oracle_on_random_vocabs():
    rng = random.Random(4)
    for _ in range(25):
        alphabet = "abcde"
        pieces = _random_vocab(rng, alphabet)
        model = TokenizerModel(pieces, max_piece_len=3)
        for _ in range(40):
            word = "".join(rng.choice(alphabet + "xz") for _ in range(rng.randint(1, 8)))
            got = model.segment_word(word)
            # Compare scores, not sequences: summation-order rounding can
            # leave two piece orderings with bit-equal totals, and which one
            # the lattice keeps is then arbitrary.
            got_score = sum(pieces.get(p, UNK_SCORE) for p in got)
            want_score, _, want_seq = best_segmentation(word, pieces, 3)
            assert "".join(got) == word
            assert all(len(p) == 1 for p in got if p not in pieces)
            assert got_score == want_score, (word, got, want_seq)


def test_viterbi_tie_breaks_prefer_fewer_then_lexicographic():
    # Both [ab] and [a, b] cover "ab" at score -2: fewer tokens wins.
    model = TokenizerModel({"a": -1.0, "b": -1.0, "ab": -2.0}, max_piece_len=2)
    assert model.segment_word("ab") == ["ab"]
    # Equal score and token count: the lexicographically earlier sequence.
    model2 = TokenizerModel(
        {"a": -1.0, "b": -1.0, "x": -1.0, "ax": -1.5, "xb": -1.5}, max_piece_len=2
    )
    # "axb": [ax, b] = -2.5, [a, xb] = -2.5, both 2 tokens; "a" < "ax".
    assert model2.segment_word("axb") == ["a", "xb"]


def test_unknown_characters_emit_unk_ids_by_default():
    model = TokenizerModel({"a": -1.0}, max_piece_len=3)
    assert model.segment("aqa") == [0, UNK_ID, 0]
    assert model.segment_pieces("aqa") == ["a", "q", "a"]


def test_retrieval_tokens_excludes_unknowns():
    model = TokenizerModel({"a": -1.0}, max_piece_len=3)
    assert retrieval_tokens(model, "aqa") == [0, 0]


def test_segments_each_word_independently():
    model = TokenizerModel({"a": -1.0, "b": -2.0, "ab": -1.5}, max_piece_len=2)
    assert model.segment_pieces("ab a  b") == ["ab", "a", "b"]


# -- segmentation memo --------------------------------------------------------

_MEMO_MODEL = train_unigram(
    ["taylor swift", "tayler swift", "pink", "p!nk", "dj ek", "sonidero aczino", "me"],
    vocab_size=40,
)


def _uncached(model: TokenizerModel, word: str) -> list[str]:
    return tokenizer._viterbi(word, model.pieces().get, model.max_piece_len)


def _ids(model: TokenizerModel, pieces: list[str]) -> list[int]:
    return [UNK_ID if model.piece_id(p) is None else model.piece_id(p) for p in pieces]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text("aeijkloprstwyz!q", min_size=1, max_size=8), min_size=1, max_size=40))
def test_memo_changes_no_segmentation(words):
    # A fresh model per example, and a bound of 8 words so that most
    # examples pass more distinct words through the memo than it holds.
    model = TokenizerModel(_MEMO_MODEL.pieces(), _MEMO_MODEL.max_piece_len)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tokenizer, "_MEMO_WORDS", 8)
        for word in words + words[::-1]:
            want = _uncached(model, word)
            got = model.segment_word(word)
            assert got == want
            got.append("zz")  # the caller's list is its own
            assert model.segment_word(word) == want
            assert model.segment_pieces(word) == want
            assert model.segment(word) == _ids(model, want)
            assert len(model._memo) <= 8
        text = " ".join(words)
        want = [p for word in words for p in _uncached(model, word)]
        assert model.segment_pieces(text) == want
        assert model.segment(text) == _ids(model, want)


def test_memo_stays_within_its_bound_past_capacity():
    model = TokenizerModel(_MEMO_MODEL.pieces(), _MEMO_MODEL.max_piece_len)
    letters = "aeiklorstwy!"  # 12**4 distinct four-letter words
    words = ["".join(w) for w in itertools.product(letters, repeat=4)]
    words = words[: tokenizer._MEMO_WORDS + 500]
    for i, word in enumerate(words):
        got = model.segment_word(word)
        assert len(model._memo) <= tokenizer._MEMO_WORDS
        if i % 97 == 0:
            assert got == _uncached(model, word)
    # The first words were evicted and are segmented again, unchanged.
    assert model.segment(" ".join(words[:50])) == _ids(
        model, [p for word in words[:50] for p in _uncached(model, word)]
    )


def test_token_ids_follow_lexicographic_piece_order():
    model = TokenizerModel({"b": -1.0, "a": -1.0, "ab": -1.0}, max_piece_len=2)
    assert model.piece_id("a") == 0
    assert model.piece_id("ab") == 1
    assert model.piece_id("b") == 2
    assert model.id_to_piece(1) == "ab"


def test_model_rejects_bad_pieces():
    with pytest.raises(ValidationError):
        TokenizerModel({"abcd": -1.0}, max_piece_len=3)  # over the ceiling
    with pytest.raises(ValidationError):
        TokenizerModel({"a b": -1.0}, max_piece_len=3)  # whitespace inside
    with pytest.raises(ValidationError):
        TokenizerModel({"a": 0.5}, max_piece_len=3)  # positive log prob
    with pytest.raises(ValidationError):
        TokenizerModel({}, max_piece_len=3)


# -- training -----------------------------------------------------------------


def test_train_respects_piece_length_ceiling_and_vocab_budget():
    rng = random.Random(9)
    words = [
        "".join(rng.choice(string.ascii_lowercase[:6]) for _ in range(rng.randint(2, 7)))
        for _ in range(300)
    ]
    model = train_unigram(words, vocab_size=30, max_piece_len=3)
    assert model.vocab_size <= max(30, 6)
    assert all(len(p) <= 3 for p in model.pieces())
    for w in words[:50]:
        assert all(len(p) <= 3 for p in model.segment_pieces(w))


def test_train_never_prunes_single_characters():
    model = train_unigram(["abcabc", "bca", "cab"], vocab_size=4, max_piece_len=3)
    for ch in "abc":
        assert ch in model.pieces()


def test_train_is_deterministic():
    corpus = ["pink floyd", "pink", "p!nk", "tayler swift", "taylor swift"] * 3
    a = train_unigram(corpus, vocab_size=25, max_piece_len=3)
    b = train_unigram(corpus, vocab_size=25, max_piece_len=3)
    assert a.pieces() == b.pieces()


def test_train_shares_pieces_between_character_variants():
    # The "p!nk" case: a punctuation substitution should still leave shared
    # subword evidence with the canonical spelling. Note "pnk" collapses to
    # one whole-word piece here (it is itself 3 chars), so the deletion
    # variant shares nothing; the substitution variant is the robust one.
    corpus = ["pink", "p!nk", "pnk"] * 1000
    model = train_unigram(corpus, vocab_size=20, max_piece_len=3)
    shared = set(model.segment_pieces("pink")) & set(model.segment_pieces("p!nk"))
    assert shared, (model.segment_pieces("pink"), model.segment_pieces("p!nk"))


def test_train_rejects_empty_corpus_and_bad_sizes():
    with pytest.raises(ValidationError):
        train_unigram([], vocab_size=10)
    with pytest.raises(ValidationError):
        train_unigram(["abc"], vocab_size=0)
    with pytest.raises(ValidationError):
        train_unigram(["abc"], vocab_size=10, max_piece_len=0)


def test_train_prunes_down_to_vocab_size_on_rich_corpora():
    rng = random.Random(3)
    words = [
        "".join(rng.choice("abcdefgh") for _ in range(rng.randint(3, 8)))
        for _ in range(500)
    ]
    model = train_unigram(words, vocab_size=24, max_piece_len=3)
    # 8 singles always survive; the budget bounds the total.
    assert 8 <= model.vocab_size <= 24


def test_train_warns_when_it_returns_fewer_pieces_than_asked(caplog):
    # The last EM pass after a prune drops every zero-count piece: on these
    # names the 200-piece budget ends at 95 pieces and no 3-character piece.
    names = [text for _, text in synth_corpus(7, 3000, 1).docs[:500]]
    with caplog.at_level(logging.WARNING, logger="sfns.tokenizer"):
        model = train_unigram(names, vocab_size=200)
    assert model.vocab_size == 95
    assert max(len(p) for p in model.pieces()) == 2
    assert any(
        "asked for 200 pieces and returned 95" in r.getMessage() for r in caplog.records
    )


# -- persistence --------------------------------------------------------------


def test_model_tsv_round_trip(tmp_path):
    corpus = ["pink floyd", "the weeknd", "tayler swift"] * 5
    model = train_unigram(corpus, vocab_size=40, max_piece_len=3)
    p = tmp_path / "tok.tsv"
    model.save(str(p))
    loaded = TokenizerModel.load(str(p))
    assert loaded.pieces() == model.pieces()
    assert loaded.max_piece_len == model.max_piece_len
    # "q" and "!" are outside the vocabulary: both sides emit UNK_ID for them.
    for text in ("tayler swift", "p!nk qeen"):
        assert loaded.segment(text) == model.segment(text)
    assert UNK_ID in loaded.segment("p!nk qeen")


def test_model_load_validates_header_and_count(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("no header\n")
    with pytest.raises(StorageError):
        TokenizerModel.load(str(p))
    # A valid checksum, so the count is what is wrong.
    body = "a\t-1.0\n"
    p.write_text(f"#unigram max_len=3 vocab=2 crc32c={crc32c(body.encode()):08x}\n{body}")
    with pytest.raises(StorageError, match="header says 2 pieces, found 1"):
        TokenizerModel.load(str(p))


# -- trigrams -----------------------------------------------------------------


def test_trigrams_worked_examples():
    assert trigrams("tayler swift") == ["tay", "ayl", "yle", "ler", "swi", "wif", "ift"]
    assert trigrams("pink") == ["pin", "ink"]
    assert trigrams("me") == []
    assert trigrams("dj ek") == []


def test_trigrams_normalize_first():
    assert trigrams("PINK") == ["pin", "ink"]
