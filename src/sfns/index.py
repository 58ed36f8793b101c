"""Inverted index over quantized sparse document vectors with exact top-k.

Document weights are stored as binary16 bit patterns (the only lossy step in
the engine); query weights stay full precision. The bits are decoded to
float64 once, when the index is constructed; the decode is exact. Search is
term-at-a-time over the flat arrays with float64 accumulation in ascending
token order, which makes scores bit-identical to the document-at-a-time
brute-force oracle, and then ranks only the documents that scored.

Build, save and load share one flat posting layout: ascending token ids, one
posting length per token, then every posting's doc ids and weight bits back
to back in token order. The file (format v2, little-endian) is exactly that:

    b"SFNS", u16 version 2
    u64 byte count, doc table as UTF-8 JSON [[ext_id, text, payload|null], ...]
    u64 T, u64 P, u32[T] tokens, u32[T] lengths, u32[P] doc ids, u16[P] bits
    u32 CRC32C of every preceding byte
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import _binio
from .sparse import (
    SparseVector,
    ValidationError,
    VocabStats,
    dequantize_weights,
    quantize_weights,
)

_MAGIC = b"SFNS"
_VERSION = 2
_F16_INF = 0x7C00  # binary16 +inf; every larger pattern is a NaN or negative
_ARRAYS = ("tokens", "lengths", "doc_ids", "bits")
_ROW_TYPES = ([str, str, str], [str, str, type(None)])


class BuildError(ValueError):
    pass


@dataclass(frozen=True)
class DocEntry:
    ext_id: str
    text: str
    payload: str | None = None


@dataclass(frozen=True)
class SearchHit:
    doc_id: str
    score: float
    rank: int


class InvertedIndex:
    """Flat postings (doc ids, binary16 bits, decoded weights) plus a doc table.

    Internal doc ids are assigned by ingestion order (0..N-1); callers'
    external string ids live in the doc table. Search reads `doc_ids` and
    `weights` through a token -> (start, end) map. `postings` (token ->
    views of ids and bits) and `stats` (counted from the lengths) stay for
    callers that read an index token by token.
    """

    def __init__(
        self,
        doc_table: list[DocEntry],
        tokens: np.ndarray,
        lengths: np.ndarray,
        doc_ids: np.ndarray,
        bits: np.ndarray,
    ):
        self.doc_table = doc_table
        self.tokens = tokens
        self.lengths = lengths
        self.doc_ids = doc_ids
        self.bits = bits
        self.weights = dequantize_weights(bits)
        ends = np.cumsum(lengths).tolist()
        self._spans: dict[int, tuple[int, int]] = dict(
            zip(tokens.tolist(), zip([0] + ends[:-1], ends))
        )
        self.postings: dict[int, tuple[np.ndarray, np.ndarray]] = {
            token: (doc_ids[start:end], bits[start:end])
            for token, (start, end) in self._spans.items()
        }
        self.stats = VocabStats(len(doc_table), dict(zip(tokens.tolist(), lengths.tolist())))

    # -- introspection -----------------------------------------------------

    @property
    def doc_count(self) -> int:
        return len(self.doc_table)

    @property
    def token_count(self) -> int:
        return int(self.tokens.shape[0])

    @property
    def posting_count(self) -> int:
        return int(self.doc_ids.shape[0])

    @property
    def avg_nonzero_dims(self) -> float:
        if not self.doc_table:
            return 0.0
        return self.posting_count / self.doc_count

    def __eq__(self, other) -> bool:
        if not isinstance(other, InvertedIndex):
            return NotImplemented
        return self.doc_table == other.doc_table and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _ARRAYS
        )

    # -- search ------------------------------------------------------------

    def search(self, query: SparseVector, k: int) -> list[SearchHit]:
        """Exact top-k by dot product; ties break on ascending doc id.

        Zero-score documents never appear, so fewer than k hits is normal.
        """
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        if not query or not self.doc_table:
            return []
        scores = np.zeros(self.doc_count, dtype=np.float64)
        # Ascending token order keeps per-doc accumulation order fixed.
        for token, qw in query.items():
            span = self._spans.get(token)
            if span is None:
                continue
            start, end = span
            scores[self.doc_ids[start:end]] += qw * self.weights[start:end]
        docs = np.flatnonzero(scores > 0.0)  # a bool mask is far faster to scan than floats
        top = scores[docs]
        if docs.size > k:
            # Keep every doc scoring at least the k-th best, so ties at the
            # cut are still ordered by doc id below.
            keep = top >= -np.partition(-top, k - 1)[k - 1]
            docs, top = docs[keep], top[keep]
        order = np.lexsort((docs, -top))[:k]
        return [
            SearchHit(doc_id=self.doc_table[d].ext_id, score=score, rank=rank)
            for rank, (d, score) in enumerate(
                zip(docs[order].tolist(), top[order].tolist()), start=1
            )
        ]

    # -- persistence -------------------------------------------------------

    def save(self, path: str) -> None:
        rows = [[e.ext_id, e.text, e.payload] for e in self.doc_table]
        doc_json = json.dumps(rows, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
        body = [_MAGIC, _binio.pack_u16(_VERSION), _binio.pack_u64(len(doc_json)), doc_json]
        body += [_binio.pack_u64(self.token_count), _binio.pack_u64(self.posting_count)]
        for name, dtype in zip(_ARRAYS, ("<u4", "<u4", "<u4", "<u2")):
            body.append(getattr(self, name).astype(dtype).tobytes())
        _binio.write_checksummed(path, b"".join(body))

    @classmethod
    def load(cls, path: str) -> "InvertedIndex":
        """Read an index file, rejecting one whose structure is invalid
        (see _parse_doc_table and _check_postings)."""
        reader = _binio.read_checksummed(path, _MAGIC)
        version = reader.u16()
        if version != _VERSION:
            raise _binio.VersionError(f"{path}: format version {version}, expected {_VERSION}")
        doc_json = reader.take(reader.u64())
        n_tokens = reader.u64()
        n_postings = reader.u64()
        tokens = np.frombuffer(reader.take(4 * n_tokens), dtype="<u4")
        lengths = np.frombuffer(reader.take(4 * n_tokens), dtype="<u4")
        doc_ids = np.frombuffer(reader.take(4 * n_postings), dtype="<u4")
        bits = np.frombuffer(reader.take(2 * n_postings), dtype="<u2")
        if reader.remaining():
            raise _binio.TruncatedError(f"{path}: {reader.remaining()} trailing bytes")
        doc_table = _parse_doc_table(path, doc_json)
        _check_postings(path, tokens, lengths, doc_ids, bits, len(doc_table))
        return cls(
            doc_table,
            tokens.astype(np.int64),
            lengths.astype(np.int64),
            doc_ids.astype(np.int64),
            bits.astype(np.uint16),
        )


def _parse_doc_table(path: str, raw: memoryview) -> list[DocEntry]:
    try:
        rows = json.loads(str(raw, "utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise _binio.StorageError(f"{path}: the doc table is not UTF-8 JSON ({exc})") from exc
    if type(rows) is not list:
        raise _binio.StorageError(f"{path}: the doc table is not a JSON list")
    for row in rows:
        if type(row) is not list or [type(field) for field in row] not in _ROW_TYPES:
            raise _binio.StorageError(f"{path}: doc row {row!r} is not [ext_id, text, payload]")
    return [DocEntry(*row) for row in rows]


def _check_postings(path: str, tokens, lengths, doc_ids, bits, n_docs: int) -> None:
    """Raise StorageError unless tokens strictly increase, every posting is
    non-empty, the lengths sum to the postings, and every posting lists
    in-range doc ids in strictly increasing order with positive, finite
    binary16 weights. Each check is a whole-array operation on the arrays
    as read.
    """
    if (tokens[1:] <= tokens[:-1]).any():
        raise _binio.StorageError(f"{path}: token ids are not strictly increasing")
    if lengths.size and lengths.min() == 0:
        raise _binio.StorageError(f"{path}: a posting is empty")
    total = int(lengths.sum(dtype=np.int64))
    if total != doc_ids.size:
        raise _binio.StorageError(f"{path}: posting lengths sum to {total}, not {doc_ids.size}")
    if not doc_ids.size:
        return
    # Positive finite binary16 patterns are exactly 0x0001..0x7BFF.
    if bits.min() == 0 or bits.max() >= _F16_INF:
        raise _binio.StorageError(f"{path}: a posting has a zero, negative or non-finite weight")
    if doc_ids.max() >= n_docs:
        raise _binio.StorageError(f"{path}: a posting lists a doc id out of range")
    # Each id must exceed its predecessor, except the first id of a posting.
    rising = doc_ids[1:] > doc_ids[:-1]
    rising[np.cumsum(lengths[:-1], dtype=np.int64) - 1] = True
    if not rising.all():
        raise _binio.StorageError(f"{path}: a posting lists doc ids out of order")


def build(docs: Iterable[tuple]) -> InvertedIndex:
    """Build an index from (ext_id, text, SparseVector, payload) records.

    Weights are quantized to binary16 here; entries whose quantized weight
    underflows to zero are dropped so scores stay strictly positive, and a
    weight too large for binary16 (65520 or more) is a build error, as are
    duplicate external ids, token ids outside u32 and non-string payloads.
    """
    doc_table: list[DocEntry] = []
    token_parts: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    weight_parts: list[np.ndarray] = [np.empty(0, dtype=np.float64)]
    seen: set[str] = set()
    for record in docs:
        if len(record) != 4:
            raise BuildError(f"expected 4-field doc records, got {len(record)} fields")
        ext_id, text, vec, payload = record
        ext_id = str(ext_id)
        if ext_id in seen:
            raise BuildError(f"duplicate doc_id {ext_id!r}")
        seen.add(ext_id)
        if not isinstance(vec, SparseVector):
            raise BuildError(f"doc {ext_id!r}: vector must be a SparseVector")
        if payload is not None and not isinstance(payload, str):
            raise BuildError(f"doc {ext_id!r}: payload must be a string or None")
        doc_table.append(DocEntry(ext_id, str(text), payload))
        token_parts.append(vec.ids)
        weight_parts.append(vec.weights)

    tokens = np.concatenate(token_parts)
    if tokens.size and (tokens.min() < 0 or tokens.max() > 0xFFFFFFFF):
        raise BuildError("token ids must fit in u32")
    # A stable sort keeps each token's docs in ingestion order, so every
    # posting lists strictly increasing doc ids.
    order = np.argsort(tokens, kind="stable")
    sizes = [part.shape[0] for part in token_parts[1:]]
    doc_ids = np.repeat(np.arange(len(doc_table), dtype=np.int64), sizes)[order]
    tokens = tokens[order]
    bits = quantize_weights(np.concatenate(weight_parts)[order])
    if bits.size and bits.max() >= _F16_INF:
        i = int(np.argmax(bits >= _F16_INF))
        raise BuildError(
            f"doc {doc_table[doc_ids[i]].ext_id!r}: weight for token {tokens[i]} "
            "is too large for binary16"
        )
    keep = bits != 0  # quantization underflow to zero would score nothing
    unique_tokens, lengths = np.unique(tokens[keep], return_counts=True)
    return InvertedIndex(
        doc_table, unique_tokens, lengths.astype(np.int64), doc_ids[keep], bits[keep]
    )
