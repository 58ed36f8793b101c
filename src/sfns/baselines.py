"""Competing retrieval methods: trigram token matching and fuzzy edit distance.

The trigram baseline reuses the inverted-index machinery with 3-char substring
tokens and uniform document weights; it inherits the classic failure mode of
dropping every word under 3 characters. The fuzzy baseline is a linear scan
with per-word banded edit distance, the quality reference that is too slow to
serve online.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import index as index_mod
from .index import InvertedIndex, SearchHit
from .sparse import SparseVector, ValidationError, encode_query, normalize_text
from .tokenizer import trigrams


@dataclass
class TrigramIndex:
    """String-trigram vocabulary plus a shared InvertedIndex over it."""

    vocab: dict[str, int]
    index: InvertedIndex

    def search(self, query: str, k: int) -> list[SearchHit]:
        return trigram_retrieve(self, query, k)

    def search_with_ceiling(self, query: str, top: int) -> tuple[list[SearchHit], float]:
        """The ceiling is the sum of the query weights, every doc weight
        being 1.0; numpy's pairwise sum, which ranking ties depend on."""
        qv = trigram_query_vector(self, query)
        ceiling = float(np.sum(qv.weights))
        if ceiling <= 0.0:
            return [], ceiling
        return self.index.search(qv, top), ceiling


def build_trigram_index(docs: Iterable[tuple[str, str]]) -> TrigramIndex:
    """Index (ext_id, text) docs by their distinct trigrams, weight 1.0 each."""
    collected = [(str(ext_id), str(text), sorted(set(trigrams(text)))) for ext_id, text in docs]
    vocab_list = sorted({t for _, _, toks in collected for t in toks})
    vocab = {t: i for i, t in enumerate(vocab_list)}
    records = []
    for ext_id, text, toks in collected:
        ids = np.array([vocab[t] for t in toks], dtype=np.int64)
        weights = np.ones(len(toks), dtype=np.float64)
        records.append((ext_id, text, SparseVector._raw(ids, weights), None))
    return TrigramIndex(vocab, index_mod.build(records))


def trigram_query_vector(tindex: TrigramIndex, query: str) -> SparseVector:
    """Distinct known query trigrams weighted by IDF over the indexed corpus.

    Unknown trigrams have no postings and would score nothing, so they are
    omitted. A query whose words are all under 3 chars yields the empty
    vector, which is the whole problem with this method.
    """
    known = [tindex.vocab[t] for t in trigrams(query) if t in tindex.vocab]
    return encode_query(tindex.index.stats, known)


def trigram_retrieve(tindex: TrigramIndex, query: str, k: int) -> list[SearchHit]:
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    qv = trigram_query_vector(tindex, query)
    if not qv:
        return []
    return tindex.index.search(qv, k)


@dataclass(frozen=True)
class FuzzyConfig:
    max_edits: int = 1
    prefix_lock: int = 0

    def __post_init__(self):
        if self.max_edits not in (1, 2):
            raise ValidationError("max_edits must be 1 or 2")
        if not 0 <= self.prefix_lock <= 4:
            raise ValidationError("prefix_lock must lie in [0, 4]")


def banded_levenshtein(a: str, b: str, max_edits: int) -> int | None:
    """Edit distance if it is <= max_edits, else None.

    Length gap beyond the budget exits before any DP; otherwise only a band
    of 2*max_edits+1 cells per row is filled.
    """
    if abs(len(a) - len(b)) > max_edits:
        return None
    if a == b:
        return 0
    n, m = len(a), len(b)
    big = max_edits + 1
    prev = [j if j <= max_edits else big for j in range(m + 1)]
    for i in range(1, n + 1):
        lo = max(1, i - max_edits)
        hi = min(m, i + max_edits)
        cur = [big] * (m + 1)
        if i <= max_edits:
            cur[0] = i
        for j in range(lo, hi + 1):
            cost = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (a[i - 1] != b[j - 1]),
            )
            cur[j] = min(cost, big)
        if min(cur[lo - 1 : hi + 1]) > max_edits:
            return None
        prev = cur
    return prev[m] if prev[m] <= max_edits else None


class FuzzyRetriever:
    """Linear-scan word-level fuzzy matcher with IDF-like word weighting.

    Each query word aligns to its best document word within the edit budget;
    the score sums (1 - dist/len) times the query word's rarity weight. Word
    order never matters.
    """

    def __init__(self, docs: Iterable[tuple[str, str]], config: FuzzyConfig = FuzzyConfig()):
        """Index (ext_id, text) docs; ties rank in the order the docs come."""
        self.config = config
        self.doc_ids: list[str] = []
        self.doc_words: list[list[str]] = []
        for ext_id, text in docs:
            self.doc_ids.append(str(ext_id))
            self.doc_words.append(sorted(set(normalize_text(text).split(" ")) - {""}))
        self._df: Counter = Counter()
        for words in self.doc_words:
            self._df.update(words)
        self._n = len(self.doc_words)

    def word_weight(self, word: str) -> float:
        return math.log((self._n + 1) / (self._df.get(word, 0) + 1)) + 1.0

    def _best_sim(self, qword: str, words: list[str]) -> float:
        lock = self.config.prefix_lock
        best = 0.0
        qlen = len(qword)
        for w in words:
            if lock and qword[:lock] != w[:lock]:
                continue
            dist = banded_levenshtein(qword, w, self.config.max_edits)
            if dist is None:
                continue
            sim = 1.0 - dist / qlen
            if sim > best:
                best = sim
        return max(best, 0.0)

    def score(self, query: str, doc_words: list[str]) -> float:
        qwords = sorted(set(normalize_text(query).split(" ")) - {""})
        total = 0.0
        for qw in qwords:
            sim = self._best_sim(qw, doc_words)
            if sim > 0.0:
                total += sim * self.word_weight(qw)
        return total

    def self_score(self, query: str) -> float:
        """Score of the query against its own word set (the similarity ceiling)."""
        qwords = sorted(set(normalize_text(query).split(" ")) - {""})
        return sum(self.word_weight(w) for w in qwords)

    def search(self, query: str, k: int) -> list[SearchHit]:
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        scored = [
            (self.score(query, words), pos) for pos, words in enumerate(self.doc_words)
        ]
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        hits = []
        for score, pos in scored:
            if len(hits) >= k or score <= 0.0:
                break
            hits.append(SearchHit(doc_id=self.doc_ids[pos], score=score, rank=len(hits) + 1))
        return hits

    def search_with_ceiling(self, query: str, top: int) -> tuple[list[SearchHit], float]:
        ceiling = self.self_score(query)
        if ceiling <= 0.0:
            return [], ceiling
        return self.search(query, top), ceiling
