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
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np


class ValidationError(ValueError):
    """An operation's input contract was violated."""


_WS_RUN = re.compile(r"\s+")


def normalize_text(text: str) -> str:
    """NFKC, lowercase, collapse whitespace runs to single spaces, strip.

    Punctuation is kept on purpose: "p!nk" must stay distinguishable from
    "pink" at the character level.
    """
    text = unicodedata.normalize("NFKC", text).lower()
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

    def to_dict(self) -> dict[int, float]:
        return dict(self.items())

    def get(self, tid: int, default: float = 0.0) -> float:
        i = int(np.searchsorted(self.ids, tid))
        if i < self.nnz and self.ids[i] == tid:
            return float(self.weights[i])
        return default

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return np.array_equal(self.ids, other.ids) and np.array_equal(self.weights, other.weights)

    def __hash__(self):
        return hash((self.ids.tobytes(), self.weights.tobytes()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{t}:{w:.6g}" for t, w in self.items())
        return f"SparseVector({{{inner}}})"

    def to_line(self) -> str:
        """One-line text form: space-separated token_id:weight.

        Weights use repr's shortest round-trip form, so from_line(to_line())
        reproduces the vector exactly.
        """
        return " ".join(f"{t}:{w!r}" for t, w in self.items())

    @classmethod
    def from_line(cls, line: str) -> "SparseVector":
        line = line.strip()
        if not line:
            return cls()
        pairs = []
        for field in line.split(" "):
            tid, _, w = field.partition(":")
            if not _:
                raise ValidationError(f"malformed sparse-vector field {field!r}")
            pairs.append((int(tid), float(w)))
        return cls(pairs)


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
    """Document count plus per-token document frequencies."""

    doc_count: int
    doc_freq: Mapping[int, int]

    def __post_init__(self):
        if self.doc_count < 0:
            raise ValidationError("doc_count must be >= 0")
        for tid, df in self.doc_freq.items():
            if not 0 <= df <= self.doc_count:
                raise ValidationError(f"df[{tid}]={df} outside [0, {self.doc_count}]")

    @classmethod
    def from_token_sets(cls, token_sets: Iterable[Iterable[int]]) -> "VocabStats":
        df: dict[int, int] = {}
        n = 0
        for tokens in token_sets:
            n += 1
            for t in set(tokens):
                df[t] = df.get(t, 0) + 1
        return cls(n, df)


def idf(stats: VocabStats, token: int) -> float:
    """ln((N+1)/(df+1)) + 1; unknown tokens take df=0, the maximal value."""
    df = stats.doc_freq.get(token, 0)
    return math.log((stats.doc_count + 1) / (df + 1)) + 1.0


def encode_query(stats: VocabStats, tokens: Iterable[int]) -> SparseVector:
    """IDF query encoding of a segmented query: token presence times IDF.

    Duplicate tokens contribute once (presence, not frequency). Unknown ids
    (negative) are dropped. No tokens give an empty vector.
    """
    distinct = sorted({t for t in tokens if t >= 0})
    if not distinct:
        return SparseVector()
    weights = np.array([idf(stats, t) for t in distinct], dtype=np.float64)
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
