"""End-to-end wiring: text in, ranked documents out.

Document vectors come either from the tokenizer alone (distinct token ids at
uniform weight 1.0, the "plain" mode) or from a trained expansion encoder.
Query vectors never touch the encoder: they are indicator vectors over the
query's token ids scaled by corpus IDF, so query encoding costs one
tokenizer pass. make_retriever builds this method or either baseline behind
one interface.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from . import index as index_mod
from .baselines import FuzzyConfig, FuzzyRetriever, TrigramIndex, build_trigram_index
from .encoder import EncoderParams, encode_doc
from .index import InvertedIndex, SearchHit
from .sparse import SparseVector, ValidationError, dot_score, encode_query
from .tokenizer import TokenizerModel, retrieval_tokens


def plain_doc_vector(model: TokenizerModel, text: str) -> SparseVector:
    """Distinct token ids at weight 1.0; empty text gives the empty vector."""
    toks = sorted(set(retrieval_tokens(model, text)))
    ids = np.asarray(toks, dtype=np.int64)
    return SparseVector._raw(ids, np.ones(len(toks), dtype=np.float64))


def doc_vector(
    model: TokenizerModel, text: str, params: EncoderParams | None = None
) -> SparseVector:
    if params is None:
        return plain_doc_vector(model, text)
    return _expanded_vector(params, retrieval_tokens(model, text))


def _expanded_vector(params: EncoderParams, tokens: list[int]) -> SparseVector:
    if not tokens:
        return SparseVector(())
    if max(tokens) >= params.vocab_size:
        raise ValidationError(
            f"token id {max(tokens)} out of range for encoder vocab {params.vocab_size}"
        )
    return encode_doc(params, tokens)


def build_sparse_index(
    model: TokenizerModel,
    docs: Iterable[tuple[str, str]],
    params: EncoderParams | None = None,
) -> InvertedIndex:
    """Encode (ext_id, text) pairs and build the inverted index."""
    rows = [(ext_id, text, doc_vector(model, text, params), None) for ext_id, text in docs]
    return index_mod.build(rows)


def sparse_query_vector(
    index: InvertedIndex, model: TokenizerModel, text: str
) -> SparseVector:
    return encode_query(index.stats, model.segment(text))


def sparse_retrieve(
    index: InvertedIndex, model: TokenizerModel, text: str, k: int
) -> list[SearchHit]:
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    query = sparse_query_vector(index, model, text)
    if query.nnz == 0:
        return []
    return index.search(query, k)


def self_match(
    index: InvertedIndex,
    model: TokenizerModel,
    text: str,
    params: EncoderParams | None = None,
) -> tuple[SparseVector, float]:
    """The query vector of `text` and its score against the text's own
    document-side encoding, from one segmentation.

    The score normalizes retrieval scores into probability-like [0,1]
    similarities for the feedback-loop channels. It equals
    dot_score(query, doc_vector(model, text, params)) bit for bit.
    """
    tokens = retrieval_tokens(model, text)
    query = encode_query(index.stats, tokens)
    if params is None:
        # The plain doc vector weights the query's tokens 1.0, so the dot
        # product is the ascending-order sum of the query weights.
        return query, sum(query.weights.tolist(), 0.0)
    return query, dot_score(query, _expanded_vector(params, tokens))


class SparseRetriever:
    """Sparse retrieval over a built or loaded index; see make_retriever.

    params are the encoder params the index's doc vectors came from (None
    for plain ones); only search_with_ceiling reads them.
    """

    def __init__(
        self, index: InvertedIndex, model: TokenizerModel, params: EncoderParams | None = None
    ):
        self.index = index
        self.model = model
        self.params = params

    def search(self, query: str, k: int) -> list[SearchHit]:
        return sparse_retrieve(self.index, self.model, query, k)

    def search_with_ceiling(self, query: str, top: int) -> tuple[list[SearchHit], float]:
        qv, ceiling = self_match(self.index, self.model, query, self.params)
        if ceiling <= 0.0:
            return [], ceiling
        return self.index.search(qv, top), ceiling


def make_retriever(
    method: str,
    docs: Iterable[tuple[str, str]],
    *,
    tokenizer: TokenizerModel | None = None,
    params: EncoderParams | None = None,
    fuzzy: FuzzyConfig = FuzzyConfig(),
) -> SparseRetriever | TrigramIndex | FuzzyRetriever:
    """The "sparse", "trigram" or "fuzzy" retriever over (ext_id, text) docs.

    Each one answers two calls:
    - search(query, k) -> list[SearchHit], the top k hits;
    - search_with_ceiling(query, top) -> (hits, ceiling), where ceiling is
      the query's score against its own doc-side encoding and hits is []
      when ceiling <= 0.

    Sparse needs the tokenizer, and params expand its doc side; fuzzy
    configures only the fuzzy matcher.
    """
    if method == "sparse":
        if tokenizer is None:
            raise ValidationError("sparse retrieval needs a tokenizer")
        return SparseRetriever(build_sparse_index(tokenizer, docs, params), tokenizer, params)
    if method == "trigram":
        return build_trigram_index(docs)
    if method == "fuzzy":
        return FuzzyRetriever(docs, fuzzy)
    raise ValidationError(f"unknown retrieval method {method!r}")
