"""Independent reference implementations used to cross-check the package.

Deliberately written in a different style from the production code (explicit
bit arithmetic, full DP matrices, brute recursion) so a shared bug is
unlikely.
"""

from __future__ import annotations

import math

import numpy as np

from sfns.index import InvertedIndex, SearchHit
from sfns.sparse import SparseVector, ValidationError, dequantize_weights, dot_score

UNK_SCORE = -1.0e4


def f16_from_bits(bits: int) -> float:
    """Decode an IEEE 754 binary16 bit pattern by hand."""
    assert 0 <= bits <= 0xFFFF
    sign = -1.0 if bits & 0x8000 else 1.0
    exp = (bits >> 10) & 0x1F
    frac = bits & 0x3FF
    if exp == 0:
        return sign * frac * 2.0 ** (-24)  # subnormal (or zero)
    if exp == 0x1F:
        return sign * (float("nan") if frac else float("inf"))
    return sign * (1.0 + frac / 1024.0) * 2.0 ** (exp - 15)


def _crc32c_table() -> list[int]:
    table = []
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ 0x82F63B78 if c & 1 else c >> 1  # reflected Castagnoli
        table.append(c)
    return table


_CRC32C_TABLE = _crc32c_table()


def crc32c_bytewise(data) -> int:
    """CRC-32C one byte per step, the textbook table-driven loop."""
    c = 0xFFFFFFFF
    for b in bytes(data):
        c = _CRC32C_TABLE[(c ^ b) & 0xFF] ^ (c >> 8)
    return c ^ 0xFFFFFFFF


def dense_dot(a, b) -> float:
    """Dot product via dict accumulation in ascending shared-token order."""
    da = dict(a.items())
    db = dict(b.items())
    total = 0.0
    for tid in sorted(set(da) & set(db)):
        total += da[tid] * db[tid]
    return total


def all_segmentations(word: str, pieces: dict[str, float], max_len: int):
    """Every decomposition into known pieces or unknown single chars."""
    results: list[tuple[float, int, tuple[str, ...]]] = []

    def rec(pos: int, score: float, seq: tuple[str, ...]):
        if pos == len(word):
            results.append((score, len(seq), seq))
            return
        for end in range(pos + 1, min(pos + max_len, len(word)) + 1):
            piece = word[pos:end]
            if piece in pieces:
                rec(end, score + pieces[piece], seq + (piece,))
        if word[pos] not in pieces:
            rec(pos + 1, score + UNK_SCORE, seq + (word[pos],))

    rec(0, 0.0, ())
    return results


def best_segmentation(word: str, pieces: dict[str, float], max_len: int):
    """Optimal segmentation under (max score, min tokens, lex-earliest seq)."""
    cands = all_segmentations(word, pieces, max_len)
    assert cands, "single-char fallback makes every word coverable"
    return min(cands, key=lambda c: (-c[0], c[1], c[2]))


def levenshtein_matrix(a: str, b: str) -> int:
    """Textbook full-matrix edit distance."""
    n, m = len(a), len(b)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        d[i][0] = i
    for j in range(m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[n][m]


def dcg(ranked, relevant, k: int) -> float:
    return sum(
        1.0 / math.log2(i + 2) for i, doc in enumerate(ranked[:k]) if doc in relevant
    )


def central_fd(f, arr, step: float = 1e-4):
    """Central finite-difference gradient of scalar f() wrt arr, in place."""
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        orig = arr[ix]
        arr[ix] = orig + step
        hi = f()
        arr[ix] = orig - step
        lo = f()
        arr[ix] = orig
        g[ix] = (hi - lo) / (2.0 * step)
        it.iternext()
    return g


def kink_margin(embed, proj, bias, token_lists) -> float:
    """Distance to the nearest ReLU or argmax kink across the given docs.

    Returns min over docs and vocabulary dims of |pre| and, where a doc has
    more than one token, the top-two logit gap. Small margins mean a finite
    difference step could cross a non-smooth point.
    """
    margin = float("inf")
    for tokens in token_lists:
        logits = embed[list(tokens)] @ proj.T + bias  # (T, V)
        pre = logits.max(axis=0)
        margin = min(margin, float(np.abs(pre).min()))
        if logits.shape[0] > 1:
            part = np.sort(logits, axis=0)
            gaps = part[-1] - part[-2]
            margin = min(margin, float(gaps.min()))
    return margin


def iter_doc_vectors(index: InvertedIndex) -> list[SparseVector]:
    """Reconstruct every document's dequantized vector from the postings."""
    per_doc_ids: list[list[int]] = [[] for _ in range(index.doc_count)]
    per_doc_w: list[list[float]] = [[] for _ in range(index.doc_count)]
    for token in sorted(index.postings):
        ids, bits = index.postings[token]
        weights = dequantize_weights(bits)
        for d, w in zip(ids.tolist(), weights.tolist()):
            per_doc_ids[d].append(token)
            per_doc_w[d].append(w)
    return [
        SparseVector._raw(np.array(i, dtype=np.int64), np.array(w, dtype=np.float64))
        for i, w in zip(per_doc_ids, per_doc_w)
    ]


def brute_force_search(index: InvertedIndex, query: SparseVector, k: int) -> list[SearchHit]:
    """Document-at-a-time reference scorer, independent of posting traversal."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    scored = [
        (dot_score(query, vec), doc_id)
        for doc_id, vec in enumerate(iter_doc_vectors(index))
    ]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    table = index.doc_table
    hits = []
    for score, doc_id in scored:
        if len(hits) >= k or score <= 0.0:
            break
        hits.append(
            SearchHit(
                doc_id=table[doc_id].ext_id, score=score, rank=len(hits) + 1
            )
        )
    return hits
