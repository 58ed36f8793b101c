"""Inverted index over quantized sparse document vectors with exact top-k.

Document weights are stored as binary16 bit patterns (the only lossy step in
the engine); query weights stay full precision. Search is term-at-a-time with
float64 accumulation in ascending token order, which makes scores bit-identical
to the document-at-a-time brute-force oracle.
"""

from __future__ import annotations

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
_VERSION = 1
_F16_INF = 0x7C00  # binary16 +inf; every larger pattern is a NaN or negative


class BuildError(ValueError):
    pass


@dataclass(frozen=True)
class DocEntry:
    ext_id: str
    text: str
    payload: str | None = None


@dataclass(frozen=True)
class SearchHit:
    # External string id from index searches; integer position from the
    # linear-scan fuzzy matcher, which has no doc table.
    doc_id: str | int
    score: float
    rank: int


class InvertedIndex:
    """token_id -> (doc_id array, binary16 weight bits), plus a doc table.

    Internal doc ids are assigned by ingestion order (0..N-1); callers'
    external string ids live in the doc table.
    """

    def __init__(
        self,
        postings: dict[int, tuple[np.ndarray, np.ndarray]],
        doc_table: list[DocEntry],
        stats: VocabStats,
    ):
        self.postings = postings
        self.doc_table = doc_table
        self.stats = stats

    # -- introspection -----------------------------------------------------

    @property
    def doc_count(self) -> int:
        return len(self.doc_table)

    @property
    def token_count(self) -> int:
        return len(self.postings)

    @property
    def posting_count(self) -> int:
        return sum(int(ids.shape[0]) for ids, _ in self.postings.values())

    @property
    def avg_nonzero_dims(self) -> float:
        if not self.doc_table:
            return 0.0
        return self.posting_count / self.doc_count

    def __eq__(self, other) -> bool:
        if not isinstance(other, InvertedIndex):
            return NotImplemented
        if self.doc_table != other.doc_table or self.stats != other.stats:
            return False
        if set(self.postings) != set(other.postings):
            return False
        return all(
            np.array_equal(self.postings[t][0], other.postings[t][0])
            and np.array_equal(self.postings[t][1], other.postings[t][1])
            for t in self.postings
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
            post = self.postings.get(token)
            if post is None:
                continue
            ids, bits = post
            scores[ids] += qw * dequantize_weights(bits)
        order = np.lexsort((np.arange(self.doc_count), -scores))
        hits: list[SearchHit] = []
        for d in order.tolist():
            if len(hits) >= k or scores[d] <= 0.0:
                break
            hits.append(
                SearchHit(
                    doc_id=self.doc_table[d].ext_id,
                    score=float(scores[d]),
                    rank=len(hits) + 1,
                )
            )
        return hits

    # -- persistence -------------------------------------------------------

    def save(self, path: str) -> None:
        body = bytearray()
        body += _MAGIC
        body += _binio.pack_u16(_VERSION)

        doc_sec = bytearray(_binio.pack_u64(len(self.doc_table)))
        for entry in self.doc_table:
            doc_sec += _binio.pack_utf8(entry.ext_id)
            doc_sec += _binio.pack_utf8(entry.text)
            if entry.payload is None:
                doc_sec += _binio.pack_u32(0xFFFFFFFF)
            else:
                doc_sec += _binio.pack_utf8(entry.payload)

        post_sec = bytearray(_binio.pack_u64(len(self.postings)))
        for token in sorted(self.postings):
            ids, bits = self.postings[token]
            post_sec += _binio.pack_u64(token)
            post_sec += _binio.pack_u64(int(ids.shape[0]))
            post_sec += ids.astype("<u8").tobytes()
            post_sec += bits.astype("<u2").tobytes()

        stats_sec = bytearray(_binio.pack_u64(self.stats.doc_count))
        df = self.stats.doc_freq
        stats_sec += _binio.pack_u64(len(df))
        for token in sorted(df):
            stats_sec += _binio.pack_u64(token) + _binio.pack_u64(df[token])

        for section in (doc_sec, post_sec, stats_sec):
            body += _binio.pack_u64(len(section))
            body += section
        _binio.write_checksummed(path, bytes(body))

    @classmethod
    def load(cls, path: str) -> "InvertedIndex":
        """Read an index file, rejecting one whose structure is invalid.

        Beyond the checksum, every posting must list in-range doc ids in
        strictly increasing order with finite, positive binary16 weights,
        each token's df must equal its posting length, and the stats must
        count the doc table.
        """
        reader = _binio.read_checksummed(path, _MAGIC)
        version = reader.u16()
        if version != _VERSION:
            raise _binio.VersionError(f"{path}: format version {version}, expected {_VERSION}")

        sections = []
        for _ in range(3):
            length = reader.u64()
            sections.append(_binio.ByteReader(reader.take(length)))
        if reader.remaining():
            raise _binio.TruncatedError(f"{path}: {reader.remaining()} trailing bytes")

        doc_r, post_r, stats_r = sections
        doc_table = []
        for _ in range(doc_r.u64()):
            ext_id = doc_r.utf8()
            text = doc_r.utf8()
            plen = doc_r.u32()
            payload = None if plen == 0xFFFFFFFF else doc_r.take(plen).decode("utf-8")
            doc_table.append(DocEntry(ext_id, text, payload))

        n_docs = len(doc_table)
        postings: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for _ in range(post_r.u64()):
            token = post_r.u64()
            n = post_r.u64()
            ids = np.frombuffer(post_r.take(8 * n), dtype="<u8").astype(np.int64)
            bits = np.frombuffer(post_r.take(2 * n), dtype="<u2").astype(np.uint16)
            postings[token] = (ids, bits)
        _check_postings(path, postings, n_docs)

        doc_count = stats_r.u64()
        df = {}
        for _ in range(stats_r.u64()):
            token = stats_r.u64()
            df[token] = stats_r.u64()
        if doc_count != n_docs:
            raise _binio.StorageError(f"{path}: stats count {doc_count} docs, the table {n_docs}")
        if df != {token: int(ids.shape[0]) for token, (ids, _) in postings.items()}:
            raise _binio.StorageError(f"{path}: document frequencies disagree with the postings")
        return cls(postings, doc_table, VocabStats(doc_count, df))


def _check_postings(path: str, postings: dict, n_docs: int) -> None:
    """Raise StorageError unless every posting lists in-range doc ids in
    strictly increasing order with positive, finite binary16 weights.

    All postings are checked at once: a few numpy calls per token would
    cost more than the rest of loading a small index.
    """
    lengths = [ids.shape[0] for ids, _ in postings.values()]
    if not any(lengths):
        return
    bits = np.concatenate([bits for _, bits in postings.values()])
    # Positive finite binary16 patterns are exactly 0x0001..0x7BFF.
    if bits.min() == 0 or bits.max() >= _F16_INF:
        raise _binio.StorageError(f"{path}: a posting has a zero, negative or non-finite weight")
    keys = np.concatenate([ids for ids, _ in postings.values()])
    # ids past 2**63 wrap negative as int64.
    if keys.min() < 0 or keys.max() >= n_docs:
        raise _binio.StorageError(f"{path}: a posting lists a doc id out of range")
    # With every id below n_docs, adding p * n_docs to the ids of the p-th
    # posting makes the whole array strictly increasing exactly when each
    # posting is.
    keys += np.repeat(np.arange(len(lengths), dtype=np.int64) * n_docs, lengths)
    if (keys[1:] <= keys[:-1]).any():
        raise _binio.StorageError(f"{path}: a posting lists doc ids out of order")


def build(docs: Iterable[tuple]) -> InvertedIndex:
    """Build an index from (ext_id, text, SparseVector, payload) records.

    Weights are quantized to binary16 here; entries whose quantized weight
    underflows to zero are dropped so scores stay strictly positive, and a
    weight too large for binary16 (65520 or more) is a build error, as are
    duplicate external ids.
    """
    doc_table: list[DocEntry] = []
    token_docs: dict[int, list[int]] = {}
    token_weights: dict[int, list[float]] = {}
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
        internal = len(doc_table)
        doc_table.append(DocEntry(ext_id, str(text), payload))
        for token, weight in vec.items():
            token_docs.setdefault(token, []).append(internal)
            token_weights.setdefault(token, []).append(weight)

    postings: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    df: dict[int, int] = {}
    for token, ids in token_docs.items():
        bits = quantize_weights(np.array(token_weights[token], dtype=np.float64))
        if bits.max() >= _F16_INF:
            doc = doc_table[ids[int(np.argmax(bits >= _F16_INF))]].ext_id
            raise BuildError(f"doc {doc!r}: weight for token {token} is too large for binary16")
        keep = bits != 0  # quantization underflow to zero would score nothing
        ids_arr = np.array(ids, dtype=np.int64)[keep]
        bits_arr = bits[keep]
        if ids_arr.shape[0] == 0:
            continue
        postings[token] = (ids_arr, bits_arr)
        df[token] = int(ids_arr.shape[0])
    stats = VocabStats(len(doc_table), df)
    return InvertedIndex(postings, doc_table, stats)

