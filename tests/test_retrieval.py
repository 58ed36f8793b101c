import math

import numpy as np
import pytest

from sfns.encoder import EncoderParams, init_params
from sfns.retrieval import (
    build_sparse_index,
    doc_vector,
    make_sparse_retriever,
    plain_doc_vector,
    self_match,
    sparse_query_vector,
    sparse_retrieve,
)
from sfns.sparse import ValidationError, dot_score, idf
from sfns.tokenizer import TokenizerModel

from _oracles import iter_doc_vectors


def _model():
    return TokenizerModel(
        {"p": -4.0, "i": -4.0, "n": -4.0, "k": -4.0, "pi": -1.5, "nk": -1.6, "me": -2.0},
        max_piece_len=3,
    )


def _catalog_index(model=None):
    model = model or _model()
    docs = [("d0", "pink"), ("d1", "pi nk"), ("d2", "me"), ("d3", "kip")]
    return build_sparse_index(model, docs), model


# -- document vectors ---------------------------------------------------------


def test_plain_doc_vector_distinct_tokens_weight_one():
    model = _model()
    v = plain_doc_vector(model, "pink pink me")
    assert dict(v.items()) == {
        model.piece_id("pi"): 1.0,
        model.piece_id("nk"): 1.0,
        model.piece_id("me"): 1.0,
    }
    assert plain_doc_vector(model, "").nnz == 0


def test_doc_vector_with_encoder_expands_beyond_surface_tokens():
    model = _model()
    v = model.vocab_size
    # Uniform positive projection: every dim activates for any input token.
    params = EncoderParams(
        embed=np.ones((v, 1)), proj=np.full((v, 1), math.e - 1.0), bias=np.zeros(v)
    )
    vec = doc_vector(model, "me", params)
    assert vec.nnz == v
    assert all(w == pytest.approx(1.0) for _, w in vec.items())
    assert doc_vector(model, "", params).nnz == 0


def test_doc_vector_rejects_out_of_range_tokens():
    model = _model()
    small = EncoderParams(embed=np.ones((2, 1)), proj=np.ones((2, 1)), bias=np.zeros(2))
    with pytest.raises(ValidationError, match="out of range"):
        doc_vector(model, "pink", small)


# -- query vectors ------------------------------------------------------------


def test_query_vector_is_indicator_times_idf():
    index, model = _catalog_index()
    q = sparse_query_vector(index, model, "pink me")
    stats = index.stats
    assert dict(q.items()) == {
        model.piece_id("pi"): pytest.approx(idf(stats, model.piece_id("pi"))),
        model.piece_id("nk"): pytest.approx(idf(stats, model.piece_id("nk"))),
        model.piece_id("me"): pytest.approx(idf(stats, model.piece_id("me"))),
    }


def test_query_token_unseen_in_corpus_gets_floor_idf():
    model = _model()
    index = build_sparse_index(model, [("d0", "me")])
    q = sparse_query_vector(index, model, "pink")
    # df = 0 for tokens absent from the corpus: ln(N+1) + 1.
    expect = math.log(index.stats.doc_count + 1) + 1.0
    for _, w in q.items():
        assert w == pytest.approx(expect)


# -- retrieval ----------------------------------------------------------------


def test_sparse_retrieve_ranks_exact_match_first():
    index, model = _catalog_index()
    hits = sparse_retrieve(index, model, "pink", k=4)
    assert hits[0].doc_id in ("d0", "d1")  # same token bag either way
    got = {h.doc_id for h in hits}
    assert "d2" not in got  # no shared tokens with "me"


def test_sparse_retrieve_empty_query_returns_nothing():
    index, model = _catalog_index()
    assert sparse_retrieve(index, model, "", k=3) == []
    assert sparse_retrieve(index, model, "zzz", k=3) == []  # all-unknown drops out


def test_self_match_score_is_the_top_score_for_its_own_doc():
    index, model = _catalog_index()
    for text in ("pink", "me", "kip"):
        query, ceiling = self_match(index, model, text)
        assert query == sparse_query_vector(index, model, text)
        hits = sparse_retrieve(index, model, text, k=10)
        assert hits
        # Quantization can only lower a stored weight slightly; the dominant
        # hit never exceeds the full-precision self score materially.
        assert hits[0].score <= ceiling + 1e-6


def test_self_match_equals_dot_score_with_own_doc_vector():
    index, model = _catalog_index()
    for params in (None, init_params(model.vocab_size, 3, seed=4)):
        for text in ("pink", "pink pink me", "kip", "zzz", ""):
            query, ceiling = self_match(index, model, text, params)
            expect = dot_score(query, doc_vector(model, text, params))
            assert type(ceiling) is float
            assert ceiling.hex() == expect.hex(), (text, params)


def test_build_sparse_index_takes_id_text_pairs():
    model = _model()
    index = build_sparse_index(model, [("d0", "pink"), ("d1", "me")])
    assert [(e.ext_id, e.text, e.payload) for e in index.doc_table] == [
        ("d0", "pink", None),
        ("d1", "me", None),
    ]
    for row in (("d0",), ("d0", "pink", '{"x":1}')):
        with pytest.raises(ValueError):
            build_sparse_index(model, [row])


def test_make_sparse_retriever_returns_external_ids():
    index, model = _catalog_index()
    retriever = make_sparse_retriever(index, model)
    ids = retriever("pink", 3)
    assert ids and all(isinstance(i, str) for i in ids)
    assert ids == [h.doc_id for h in sparse_retrieve(index, model, "pink", 3)]


def test_scores_match_manual_dot_products():
    index, model = _catalog_index()
    q = sparse_query_vector(index, model, "pink")
    hits = index.search(q, k=5)
    vecs = {e.ext_id: v for e, v in zip(index.doc_table, iter_doc_vectors(index))}
    for h in hits:
        assert h.score == dot_score(q, vecs[h.doc_id])
