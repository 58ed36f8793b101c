"""Sparse vectors over a token vocabulary, corpus statistics, IDF query
weighting, exact dot-product scoring, and binary16 weight quantization.

The query side of the engine is deliberately model-free: a query becomes the
set of its subword tokens weighted by inverse document frequency, nothing
else, so query encoding costs one tokenizer pass.
"""

from __future__ import annotations

import math
import re
import unicodedata
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np


class ValidationError(ValueError):
    """An operation's input contract was violated."""


_WS_RUN = re.compile(r"\s+")


def normalize_text(text: str) -> str:
    """NFKC, lowercase, collapse whitespace runs to single spaces, strip.

    Idempotent: lowercasing can leave text that NFKC composes further (Greek
    capitals with a dialytika or a prosgegrammeni, followed by a combining
    acute), so non-ASCII text is normalized once more after lower().
    Punctuation is kept on purpose: "p!nk" must stay distinguishable from
    "pink" at the character level.
    """
    text = unicodedata.normalize("NFKC", text).lower()
    if not text.isascii():
        text = unicodedata.normalize("NFKC", text)
    return _WS_RUN.sub(" ", text).strip()


class SparseVector:
    """Immutable sorted mapping from token id to strictly positive weight.

    Duplicate ids are merged by max and zero weights dropped on construction;
    negative or non-finite weights are rejected.
    """

    __slots__ = ("ids", "weights")

    def __init__(self, pairs: Iterable[tuple[int, float]] = ()):
        acc: dict[int, float] = {}
        for tid, w in pairs:
            tid = int(tid)
            w = float(w)
            if not math.isfinite(w) or w < 0:
                raise ValidationError(f"weight for token {tid} must be finite and >= 0, got {w}")
            if w == 0.0:
                continue
            prev = acc.get(tid)
            if prev is None or w > prev:
                acc[tid] = w
        ids = np.fromiter(sorted(acc), dtype=np.int64, count=len(acc))
        weights = np.array([acc[t] for t in ids.tolist()], dtype=np.float64)
        ids.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "weights", weights)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("SparseVector is immutable")

    @classmethod
    def _raw(cls, ids: np.ndarray, weights: np.ndarray) -> "SparseVector":
        # Trusted fast path: ids strictly increasing, weights > 0 and finite.
        vec = cls.__new__(cls)
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        ids.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(vec, "ids", ids)
        object.__setattr__(vec, "weights", weights)
        return vec

    @property
    def nnz(self) -> int:
        return int(self.ids.shape[0])

    def __len__(self) -> int:
        return self.nnz

    def __bool__(self) -> bool:
        return self.nnz > 0

    def items(self) -> Iterator[tuple[int, float]]:
        return zip(self.ids.tolist(), self.weights.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return np.array_equal(self.ids, other.ids) and np.array_equal(self.weights, other.weights)

    def __repr__(self) -> str:
        inner = ", ".join(f"{t}:{w:.6g}" for t, w in self.items())
        return f"SparseVector({{{inner}}})"


def dot_score(a: SparseVector, b: SparseVector) -> float:
    """Dot product over the id intersection.

    Accumulates sequentially in ascending token order; the inverted index
    adds per-token contributions in the same order, so the two paths agree
    bit for bit and ranking ties resolve identically everywhere.
    """
    ai, aw = a.ids.tolist(), a.weights.tolist()
    bi, bw = b.ids.tolist(), b.weights.tolist()
    i = j = 0
    na, nb = len(ai), len(bi)
    total = 0.0
    while i < na and j < nb:
        ta, tb = ai[i], bi[j]
        if ta == tb:
            total += aw[i] * bw[j]
            i += 1
            j += 1
        elif ta < tb:
            i += 1
        else:
            j += 1
    return total


@dataclass(frozen=True)
class VocabStats:
    """Document count plus per-token document frequencies.

    idf_table holds idf(self, t) for every token in doc_freq and
    unknown_idf the df=0 value, both computed once here; doc_freq must not
    change afterwards.
    """

    doc_count: int
    doc_freq: Mapping[int, int]
    idf_table: dict[int, float] = field(init=False, repr=False, compare=False)
    unknown_idf: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.doc_count
        if n < 0:
            raise ValidationError("doc_count must be >= 0")
        table: dict[int, float] = {}
        for tid, df in self.doc_freq.items():
            if not 0 <= df <= n:
                raise ValidationError(f"df[{tid}]={df} outside [0, {n}]")
            table[tid] = _idf(n, df)
        object.__setattr__(self, "idf_table", table)
        object.__setattr__(self, "unknown_idf", _idf(n, 0))

    @classmethod
    def from_token_sets(cls, token_sets: Iterable[Iterable[int]]) -> "VocabStats":
        df: dict[int, int] = {}
        n = 0
        for tokens in token_sets:
            n += 1
            for t in set(tokens):
                df[t] = df.get(t, 0) + 1
        return cls(n, df)


def _idf(doc_count: int, df: int) -> float:
    return math.log((doc_count + 1) / (df + 1)) + 1.0


def idf(stats: VocabStats, token: int) -> float:
    """ln((N+1)/(df+1)) + 1; unknown tokens take df=0, the maximal value."""
    return _idf(stats.doc_count, stats.doc_freq.get(token, 0))


def encode_query(stats: VocabStats, tokens: Iterable[int]) -> SparseVector:
    """IDF query encoding of a segmented query: token presence times IDF.

    Duplicate tokens contribute once (presence, not frequency). Unknown ids
    (negative) are dropped. No tokens give an empty vector. Weights are read
    from stats.idf_table, so they equal idf(stats, t) bit for bit.
    """
    distinct = sorted({t for t in tokens if t >= 0})
    if not distinct:
        return SparseVector()
    table, unknown = stats.idf_table, stats.unknown_idf
    weights = np.array([table.get(t, unknown) for t in distinct], dtype=np.float64)
    return SparseVector._raw(np.array(distinct, dtype=np.int64), weights)


def quantize_weights(weights: np.ndarray) -> np.ndarray:
    """Round-to-nearest-even conversion to binary16 bit patterns (uint16).

    Weights must be finite and >= 0; -0.0 becomes +0.0 and values of 65520
    or more saturate to the +inf pattern 0x7C00.
    """
    arr = np.asarray(weights, dtype=np.float64)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0)):
        raise ValidationError("weights must be finite and >= 0")
    with np.errstate(over="ignore"):
        return (arr + 0.0).astype(np.float16).view(np.uint16)


def dequantize_weights(bits: np.ndarray) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint16).view(np.float16).astype(np.float64)
