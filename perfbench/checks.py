"""Correctness checks that do not trust the program's own answers.

Each check recomputes a result from first principles (the scoring formula,
the qrels, an exhaustive search over segmentations) or tests a property the
method must have. None of them compares against stored output. Every check
returns True/False so the caller can count a failure against the operation
it checked instead of stopping the run.
"""

from __future__ import annotations

import math

import numpy as np


class BruteForceScorer:
    """Doc-at-a-time reference for the served ranking.

    score(d) = sum over the query's distinct tokens t of idf(t) * w_d(t), where
    w_d is the document weight rounded through numpy's float16 and
    idf(t) = ln((N + 1) / (df(t) + 1)) + 1 with df counted here from the same
    rounded weights. Order is (-score, doc position).
    """

    def __init__(self, doc_ids, doc_vectors, vocab_size: int):
        n = len(doc_vectors)
        self.doc_ids = list(doc_ids)
        self.position = {d: i for i, d in enumerate(self.doc_ids)}
        # Token-major so one token's weights over every doc are contiguous.
        self.weights = np.zeros((vocab_size, n), dtype=np.float16)
        for d, vec in enumerate(doc_vectors):
            self.weights[vec.ids, d] = vec.weights
        df = np.count_nonzero(self.weights, axis=1)
        self.idf = [math.log((n + 1) / (int(c) + 1)) + 1.0 for c in df]

    def scores(self, tokens) -> np.ndarray:
        total = np.zeros(self.weights.shape[1], dtype=np.float64)
        for t in sorted(set(tokens)):
            if 0 <= t < len(self.idf):
                total += self.idf[t] * self.weights[t].astype(np.float64)
        return total

    def candidates(self, tokens) -> int:
        """Documents with a nonzero score for this query."""
        return int(np.count_nonzero(self.scores(tokens)))

    def check(self, tokens, hits, k: int, rtol: float = 1e-9) -> bool:
        """True when `hits` is an exact top-k under the reference scores."""
        scores = self.scores(tokens)
        cand = np.nonzero(scores > 0.0)[0]
        order = cand[np.lexsort((cand, -scores[cand]))][:k]
        if len(hits) != len(order):
            return False
        tol = rtol * max(1.0, float(scores.max()))
        prev = None
        for rank, (hit, ref_doc) in enumerate(zip(hits, order), start=1):
            pos = self.position.get(hit.doc_id)
            if pos is None or hit.rank != rank:
                return False
            # The served score is the hit's own true score ...
            if abs(hit.score - scores[pos]) > tol:
                return False
            # ... and no better document was skipped at this rank.
            if abs(hit.score - scores[ref_doc]) > tol:
                return False
            if prev is not None:
                prev_score, prev_pos = prev
                if hit.score > prev_score or (hit.score == prev_score and pos < prev_pos):
                    return False
            prev = (hit.score, pos)
        return True


def recall_at_10(ranked: dict[str, list[str]], qrels: dict[str, set[str]]) -> float:
    """Mean over queries of |top-10 ∩ relevant| / |relevant|."""
    total = 0.0
    for query, ids in ranked.items():
        relevant = qrels[query]
        total += len(set(ids[:10]) & relevant) / len(relevant)
    return total / len(ranked)


def _segmentations(word: str, max_len: int):
    if not word:
        yield ()
        return
    for size in range(1, min(max_len, len(word)) + 1):
        for rest in _segmentations(word[size:], max_len):
            yield (word[:size],) + rest


def best_segmentation(word: str, log_prob: dict[str, float], max_len: int):
    """Exhaustive optimum over every split of `word` into pieces of <= max_len.

    A piece outside the vocabulary is allowed only as a single unknown
    character. The best split uses the fewest unknown characters, then has
    the highest total log-probability of its known pieces, then the fewest
    pieces, then the lexicographically earliest sequence. Returns
    (unknown count, known log-probability, pieces).
    """
    best = None
    for pieces in _segmentations(word, max_len):
        unknown, score = 0, 0.0
        for p in pieces:
            lp = log_prob.get(p)
            if lp is None:
                if len(p) != 1:
                    break
                unknown += 1
            else:
                score += lp
        else:
            key = (unknown, -score, len(pieces), pieces)
            if best is None or key < best:
                best = key
    unknown, neg_score, _, pieces = best
    return unknown, -neg_score, list(pieces)


def segmentation_is_optimal(model, word: str) -> bool:
    """The tokenizer's Viterbi split scores as well as the exhaustive optimum.

    Splits whose totals differ only by rounding may legitimately resolve
    either way, so equal-scoring alternatives are accepted.
    """
    log_prob = model.pieces()
    got = model.segment_word(word)
    if "".join(got) != word or any(len(p) > model.max_piece_len for p in got):
        return False
    got_unknown = sum(1 for p in got if p not in log_prob)
    got_score = sum(log_prob[p] for p in got if p in log_prob)
    unknown, score, pieces = best_segmentation(word, log_prob, model.max_piece_len)
    if got == pieces:
        return True
    return got_unknown == unknown and abs(got_score - score) <= 1e-9 * max(1.0, abs(score))


def tokenizer_meets_budget(model, vocab_size: int, max_len: int) -> bool:
    pieces = model.pieces()
    return len(pieces) == vocab_size and all(0 < len(p) <= max_len for p in pieces)


def same_index(a, b) -> bool:
    """Field-by-field equality of two inverted indexes."""
    if a.doc_table != b.doc_table:
        return False
    if a.stats.doc_count != b.stats.doc_count or dict(a.stats.doc_freq) != dict(b.stats.doc_freq):
        return False
    if sorted(a.postings) != sorted(b.postings):
        return False
    for token, (ids, bits) in a.postings.items():
        other_ids, other_bits = b.postings[token]
        if not (np.array_equal(ids, other_ids) and np.array_equal(bits, other_bits)):
            return False
    return True


def encoder_trained(params, history) -> bool:
    """Finite parameters and a last-step loss below the first."""
    finite = all(np.all(np.isfinite(a)) for a in (params.embed, params.proj, params.bias))
    return bool(finite and history and history[-1]["loss"] < history[0]["loss"])


class WriteBackLog:
    """Keeps the entry sets going into and out of every write-back call."""

    def __init__(self):
        self.calls: list[tuple[frozenset, frozenset]] = []

    def wrap(self, write_back):
        def observed(state, validated):
            out = write_back(state, validated)
            self.calls.append((state.hci_entries, out.hci_entries))
            return out

        return observed

    def never_shrinks(self) -> bool:
        previous = frozenset()
        for before, after in self.calls:
            if not (before >= previous and after >= before):
                return False
            previous = after
        return True


def replay_converged(report, writes: WriteBackLog) -> bool:
    """Fixed point reached, its epoch added nothing, and entries only grew."""
    return (
        report.fixed_point_epoch is not None
        and report.epochs[-1].new_entries == 0
        and writes.never_shrinks()
    )
