import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfns.baselines import (
    FuzzyConfig,
    FuzzyRetriever,
    banded_levenshtein,
    build_trigram_index,
    trigram_query_vector,
    trigram_retrieve,
)
from sfns.sparse import ValidationError

from _oracles import iter_doc_vectors, levenshtein_matrix


def _catalog():
    return [
        ("c0", "taylor swift"),
        ("c1", "taylor swift greatest hits"),
        ("c2", "tay dizm"),
        ("c3", "me"),
        ("c4", "pink"),
    ]


def _docs(*texts):
    return [(f"d{i}", text) for i, text in enumerate(texts)]


# -- trigram baseline ---------------------------------------------------------


def test_trigram_index_vocabulary_and_weights():
    t = build_trigram_index(_catalog())
    assert "tay" in t.vocab and "ink" in t.vocab
    # "me" contributes nothing: no 3-char window exists.
    assert t.index.doc_table[3].ext_id == "c3"
    vecs = iter_doc_vectors(t.index)
    assert vecs[3].nnz == 0
    # Indexed weights are uniform 1.0 per distinct trigram.
    assert set(dict(vecs[4].items()).values()) == {1.0}


def test_trigram_misspelling_still_ranks_target_first():
    t = build_trigram_index(_catalog())
    hits = trigram_retrieve(t, "tayler swift", k=3)
    assert hits, "one-char typo should keep most trigrams intact"
    assert hits[0].doc_id == "c0"
    # The extension shares the same matched trigrams but is a different doc.
    assert "c1" in {h.doc_id for h in hits}


def test_trigram_exact_duplicate_ties_break_by_ingestion_order():
    # Same text twice: identical scores, first-ingested doc ranks first.
    t = build_trigram_index([("first", "pink"), ("second", "pink")])
    hits = trigram_retrieve(t, "pink", k=2)
    assert [h.doc_id for h in hits] == ["first", "second"]
    assert hits[0].score == hits[1].score


def test_trigram_short_word_failure_mode():
    t = build_trigram_index(_catalog())
    assert trigram_retrieve(t, "me", k=5) == []
    assert trigram_retrieve(t, "dj ek", k=5) == []
    assert not trigram_query_vector(t, "me")


def test_trigram_query_drops_unknown_trigrams():
    t = build_trigram_index([("c0", "taylor swift")])
    v_clean = trigram_query_vector(t, "taylor")
    v_noisy = trigram_query_vector(t, "taylor zzzqqq")
    assert dict(v_clean.items()) == dict(v_noisy.items())


# -- banded edit distance -----------------------------------------------------


def test_banded_levenshtein_agrees_with_full_matrix_exhaustively():
    words = ["", "a", "ab", "abc", "abcd", "acbd", "abd", "xbcd", "abcde", "ba"]
    for a in words:
        for b in words:
            true = levenshtein_matrix(a, b)
            for budget in (1, 2):
                got = banded_levenshtein(a, b, budget)
                assert got == (true if true <= budget else None), (a, b, budget)


@given(
    st.text(alphabet="abcd", max_size=8),
    st.text(alphabet="abcd", max_size=8),
    st.sampled_from([1, 2]),
)
@settings(max_examples=300, deadline=None)
def test_banded_levenshtein_matches_oracle(a, b, budget):
    true = levenshtein_matrix(a, b)
    assert banded_levenshtein(a, b, budget) == (true if true <= budget else None)


# -- fuzzy baseline -----------------------------------------------------------


def test_fuzzy_config_validation():
    with pytest.raises(ValidationError):
        FuzzyConfig(max_edits=3)
    with pytest.raises(ValidationError):
        FuzzyConfig(max_edits=0)
    with pytest.raises(ValidationError):
        FuzzyConfig(prefix_lock=5)
    FuzzyConfig(max_edits=2, prefix_lock=4)


def test_fuzzy_handles_short_words_trigram_cannot():
    r = FuzzyRetriever(_catalog())
    hits = r.search("me", k=3)
    assert hits and hits[0].doc_id == "c3"


def test_fuzzy_score_is_word_order_invariant():
    r = FuzzyRetriever(_docs("taylor swift", "swift taylor"))
    a = r.score("taylor swift", r.doc_words[0])
    b = r.score("swift taylor", r.doc_words[0])
    assert a == b
    # Both permuted docs score the same against one query.
    assert r.score("taylor swift", r.doc_words[0]) == r.score(
        "taylor swift", r.doc_words[1]
    )


def test_fuzzy_self_score_is_the_ceiling():
    rng = random.Random(3)
    texts = ["taylor swift", "tay dizm", "pink", "dj ek", "sonidero aczino"]
    r = FuzzyRetriever(_docs(*texts))
    for q in texts + ["tayler swift", "p!nk"]:
        ceiling = r.self_score(q)
        for words in r.doc_words:
            assert r.score(q, words) <= ceiling + 1e-12


def test_fuzzy_one_edit_word_scores_near_its_length_fraction():
    r = FuzzyRetriever(_docs("taylor swift"))
    # "tayler" aligns to "taylor" at distance 1: sim = 1 - 1/6.
    sim_part = r.score("tayler", r.doc_words[0])
    assert sim_part == pytest.approx((1 - 1 / 6) * r.word_weight("tayler"))


def test_fuzzy_prefix_lock_blocks_first_letter_edits():
    loose = FuzzyRetriever(_docs("taylor swift"), FuzzyConfig(max_edits=1, prefix_lock=0))
    locked = FuzzyRetriever(_docs("taylor swift"), FuzzyConfig(max_edits=1, prefix_lock=1))
    assert loose.score("baylor", loose.doc_words[0]) > 0.0
    assert locked.score("baylor", locked.doc_words[0]) == 0.0
    # Edits past the locked prefix still match.
    assert locked.score("tayler", locked.doc_words[0]) > 0.0


def test_fuzzy_search_ranks_ties_and_validates_k():
    r = FuzzyRetriever([("z", "pink"), ("a", "pink"), ("d", "drake")])
    hits = r.search("pink", k=5)
    # Equal scores rank by position, not by external id.
    assert [h.doc_id for h in hits] == ["z", "a"]
    assert [h.rank for h in hits] == [1, 2]
    with pytest.raises(ValidationError):
        r.search("pink", k=0)
    assert r.search("zzzzzz", k=3) == []


def test_fuzzy_rare_words_outweigh_common_words():
    # "swift" appears in every doc, "aczino" in one: rarity boosts the latter.
    r = FuzzyRetriever(_docs("taylor swift", "swift aczino", "swift pink"))
    assert r.word_weight("aczino") > r.word_weight("swift")
