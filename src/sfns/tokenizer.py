"""Granular unigram subword tokenizer with a hard piece-length ceiling.

Training is the classical unigram-LM recipe: seed a large substring
vocabulary, re-estimate piece probabilities with forward-backward expected
counts over each word's segmentation lattice, and prune the lowest-utility
pieces until the target size is reached. The ceiling (default 3 characters)
keeps every piece short enough that single-character typos perturb only a
local neighborhood of the token set, and short words like "me" survive as
their own tokens instead of being discarded.

Whitespace is a hard boundary: pieces never span words, and word order never
changes a text's token bag.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from typing import Iterable, Sequence

from . import _jsonl
from ._binio import StorageError, crc32c
from .sparse import ValidationError, normalize_text

logger = logging.getLogger(__name__)

UNK_ID = -1
# Additive lattice score for a single unknown character. Any real path beats
# a path with one more unknown arc, so Viterbi uses as few of them as possible.
_UNK_SCORE = -1.0e4
# Words a model keeps segmented (see TokenizerModel._segmented). A replay's
# working set is a few thousand words. A 50k-name catalog build passes
# through the memo without keeping every catalog word alive, which would
# raise peak memory and give the garbage collector more to walk afterwards.
_MEMO_WORDS = 16384

_HEADER_RE = re.compile(r"^#unigram max_len=(\d+) vocab=(\d+)(?: crc32c=([0-9a-f]{8}))?$")


class TokenizerModel:
    """Trained unigram model: piece -> (token_id, log_prob).

    Token ids are assigned in lexicographic piece order, so a model's id
    space is reproducible from its piece set alone.
    """

    def __init__(self, pieces: dict[str, float], max_piece_len: int):
        if max_piece_len < 1:
            raise ValidationError("max_piece_len must be >= 1")
        if not pieces:
            raise ValidationError("model needs at least one piece")
        for piece, lp in pieces.items():
            if not piece or len(piece) > max_piece_len:
                raise ValidationError(f"piece {piece!r} violates the {max_piece_len}-char ceiling")
            if any(ch.isspace() for ch in piece):
                raise ValidationError(f"piece {piece!r} contains whitespace")
            if not (math.isfinite(lp) and lp <= 0.0):
                raise ValidationError(f"log_prob for {piece!r} must be finite and <= 0")
        ordered = sorted(pieces)
        self._log_prob = dict(pieces)
        self._piece_to_id = {p: i for i, p in enumerate(ordered)}
        self._id_to_piece = ordered
        self.max_piece_len = max_piece_len
        self._memo: dict[str, tuple[int, ...]] = {}

    @property
    def vocab_size(self) -> int:
        return len(self._id_to_piece)

    def pieces(self) -> dict[str, float]:
        return dict(self._log_prob)

    def piece_id(self, piece: str) -> int | None:
        return self._piece_to_id.get(piece)

    def id_to_piece(self, tid: int) -> str:
        return self._id_to_piece[tid]

    def log_prob(self, piece: str) -> float | None:
        return self._log_prob.get(piece)

    # -- segmentation ------------------------------------------------------

    def segment_word(self, word: str) -> list[str]:
        """Viterbi-best piece sequence for one whitespace-free word.

        Ties break toward fewer tokens, then the lexicographically earliest
        piece sequence; tie detection uses exact running scores, so sequences
        whose totals only collide after rounding may resolve either way.
        Characters outside the vocabulary become length-1 unknown arcs.
        """
        pieces: list[str] = []
        start = 0
        for tid in self._segmented(word):
            piece = word[start] if tid == UNK_ID else self._id_to_piece[tid]
            pieces.append(piece)
            start += len(piece)
        return pieces

    def segment(self, text: str) -> list[int]:
        """Token ids for a normalized text, one word at a time.

        Unknown characters emit UNK_ID; retrieval_tokens filters them out.
        """
        out: list[int] = []
        for word in normalize_text(text).split(" "):
            if word:
                out.extend(self._segmented(word))
        return out

    def segment_pieces(self, text: str) -> list[str]:
        """Piece strings for a text; unknown characters appear verbatim."""
        out: list[str] = []
        for word in normalize_text(text).split(" "):
            if word:
                out.extend(self.segment_word(word))
        return out

    def _segmented(self, word: str) -> tuple[int, ...]:
        """Token ids of one word's Viterbi pieces, from the memo or one pass.

        The model never changes, so an entry never goes stale. The memo is
        emptied when it reaches _MEMO_WORDS words, which bounds its memory
        while a working set of that size stays resident. It keeps ids only:
        the pieces follow from the ids and the word, since an unknown arc is
        one character long.
        """
        ids = self._memo.get(word)
        if ids is None:
            lookup = self._piece_to_id.get
            pieces = _viterbi(word, self._log_prob.get, self.max_piece_len)
            ids = tuple([lookup(p, UNK_ID) for p in pieces])
            if len(self._memo) >= _MEMO_WORDS:
                self._memo.clear()
            self._memo[word] = ids
        return ids

    # -- persistence -------------------------------------------------------

    def save(self, path: str) -> None:
        """Write a header line, then one piece<TAB>log_prob line per piece in
        token id order. The header ends with the CRC-32C of the piece lines'
        UTF-8 bytes, since an edited piece would shift every later token id."""
        body = "".join(f"{piece}\t{self._log_prob[piece]!r}\n" for piece in self._id_to_piece)
        checksum = crc32c(body.encode("utf-8"))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                f"#unigram max_len={self.max_piece_len} vocab={self.vocab_size} "
                f"crc32c={checksum:08x}\n"
            )
            fh.write(body)

    @classmethod
    def load(cls, path: str) -> "TokenizerModel":
        """Read a model written by save. A structural fault (header, piece
        count, a log-prob that is not a number, a duplicate piece, bytes that
        are not UTF-8, a checksum that is missing or does not match) raises
        StorageError naming path:line."""
        try:
            rows = list(_jsonl.lines(path))
        except ValidationError as exc:
            raise StorageError(str(exc)) from exc
        header = rows[0][1].rstrip("\n") if rows and rows[0][0] == 1 else ""
        m = _HEADER_RE.match(header)
        if not m:
            raise StorageError(f"{path}:1: bad tokenizer header {header!r}")
        if m.group(3) is None:
            raise StorageError(
                f"{path}:1: the tokenizer header has no crc32c; "
                "save the model again (sfns tokenize train) to add one"
            )
        max_len, vocab = int(m.group(1)), int(m.group(2))
        pieces: dict[str, float] = {}
        for lineno, line in rows[1:]:
            piece, sep, lp = line.rstrip("\n").partition("\t")
            if not sep:
                raise StorageError(f"{path}:{lineno}: expected piece<TAB>log_prob")
            if piece in pieces:
                raise StorageError(f"{path}:{lineno}: duplicate piece {piece!r}")
            try:
                pieces[piece] = float(lp)
            except ValueError:
                raise StorageError(f"{path}:{lineno}: log_prob {lp!r} is not a number") from None
        if len(pieces) != vocab:
            raise StorageError(f"{path}:1: header says {vocab} pieces, found {len(pieces)}")
        checksum = crc32c("".join(line for _, line in rows[1:]).encode("utf-8"))
        if checksum != int(m.group(3), 16):
            raise StorageError(
                f"{path}:1: the piece lines' crc32c is {checksum:08x}, "
                f"the header says {m.group(3)}"
            )
        try:
            return cls(pieces, max_len)
        except ValidationError as exc:
            raise StorageError(f"{path}: {exc}") from exc


def _viterbi(word: str, lookup, max_len: int, exclude: str | None = None) -> list[str]:
    n = len(word)
    # best[i]: (score, n_tokens, piece sequence) over word[:i]
    best: list[tuple[float, int, tuple[str, ...]] | None] = [None] * (n + 1)
    best[0] = (0.0, 0, ())
    for j in range(1, n + 1):
        chosen = None
        for i in range(max(0, j - max_len), j):
            prev = best[i]
            if prev is None:
                continue
            piece = word[i:j]
            if piece == exclude:
                lp = None
            else:
                lp = lookup(piece)
            if lp is None:
                if j - i != 1:
                    continue
                lp = _UNK_SCORE  # unknown single character, forced arc
            cand = (prev[0] + lp, prev[1] + 1, prev[2] + (piece,))
            if chosen is None or _seg_better(cand, chosen):
                chosen = cand
        best[j] = chosen
    assert best[n] is not None  # length-1 arcs make every word coverable
    return list(best[n][2])


def _seg_better(a: tuple[float, int, tuple[str, ...]], b) -> bool:
    if a[0] != b[0]:
        return a[0] > b[0]
    if a[1] != b[1]:
        return a[1] < b[1]
    return a[2] < b[2]


def _viterbi_score(word: str, lookup, max_len: int, exclude: str | None = None) -> float:
    pieces = _viterbi(word, lookup, max_len, exclude)
    score = 0.0
    for p in pieces:
        lp = lookup(p) if p != exclude else None
        score += _UNK_SCORE if lp is None else lp
    return score


def _logsumexp(values: list[float]) -> float:
    m = max(values)
    if m == float("-inf"):
        return m
    return m + math.log(sum(math.exp(v - m) for v in values))


def _expected_counts(
    words: Sequence[tuple[str, int]], log_prob: dict[str, float], max_len: int
) -> tuple[Counter, float]:
    """E-step: forward-backward expected piece counts over every word lattice.

    Returns (counts, total corpus log-likelihood). Runs in log space; words
    are short so the per-word lattice has at most max_len * len(word) arcs.
    """
    counts: Counter = Counter()
    total_ll = 0.0
    neg_inf = float("-inf")
    for word, freq in words:
        n = len(word)
        arcs: list[tuple[int, int, str, float]] = []
        for i in range(n):
            for j in range(i + 1, min(i + max_len, n) + 1):
                piece = word[i:j]
                lp = log_prob.get(piece)
                if lp is None and j - i == 1:
                    lp = _UNK_SCORE
                if lp is not None:
                    arcs.append((i, j, piece, lp))
        alpha = [neg_inf] * (n + 1)
        alpha[0] = 0.0
        incoming: list[list[tuple[int, str, float]]] = [[] for _ in range(n + 1)]
        outgoing: list[list[tuple[int, str, float]]] = [[] for _ in range(n + 1)]
        for i, j, piece, lp in arcs:
            incoming[j].append((i, piece, lp))
            outgoing[i].append((j, piece, lp))
        for j in range(1, n + 1):
            vals = [alpha[i] + lp for i, _, lp in incoming[j] if alpha[i] != neg_inf]
            if vals:
                alpha[j] = _logsumexp(vals)
        beta = [neg_inf] * (n + 1)
        beta[n] = 0.0
        for i in range(n - 1, -1, -1):
            vals = [lp + beta[j] for j, _, lp in outgoing[i] if beta[j] != neg_inf]
            if vals:
                beta[i] = _logsumexp(vals)
        z = alpha[n]
        total_ll += freq * z
        for i, j, piece, lp in arcs:
            if alpha[i] == neg_inf or beta[j] == neg_inf:
                continue
            counts[piece] += freq * math.exp(alpha[i] + lp + beta[j] - z)
    return counts, total_ll


def train_unigram(
    corpus: Iterable[str],
    vocab_size: int,
    max_piece_len: int = 3,
    *,
    shrink_factor: float = 0.75,
    em_iters: int = 2,
) -> TokenizerModel:
    """Train a unigram model whose pieces never exceed max_piece_len chars.

    The seed vocabulary is every substring of corpus words up to the ceiling,
    ranked by frequency times length and capped at 100 * vocab_size. Each
    round runs em_iters EM iterations, then prunes to
    max(vocab_size, shrink_factor * current) by estimated loss increase;
    single characters are never pruned. Deterministic: no randomness anywhere.
    """
    if vocab_size < 1:
        raise ValidationError("vocab_size must be >= 1")
    if max_piece_len < 1:
        raise ValidationError("max_piece_len must be >= 1")
    if not 0.0 < shrink_factor < 1.0:
        raise ValidationError("shrink_factor must lie in (0, 1)")
    if em_iters < 1:
        raise ValidationError("em_iters must be >= 1")

    word_freq: Counter = Counter()
    for line in corpus:
        for word in normalize_text(line).split(" "):
            if word:
                word_freq[word] += 1
    if not word_freq:
        raise ValidationError("corpus has no words after normalization")
    words = sorted(word_freq.items())

    alphabet = sorted({ch for w, _ in words for ch in w})
    if vocab_size < len(alphabet):
        raise ValidationError(
            f"vocab_size {vocab_size} is below the alphabet size {len(alphabet)}"
        )

    sub_freq: Counter = Counter()
    for word, freq in words:
        n = len(word)
        for i in range(n):
            for j in range(i + 1, min(i + max_piece_len, n) + 1):
                sub_freq[word[i:j]] += freq
    multi = [s for s in sub_freq if len(s) > 1]
    multi.sort(key=lambda s: (-sub_freq[s] * len(s), s))
    seed = list(alphabet) + multi[: max(0, 100 * vocab_size - len(alphabet))]

    # Initial probabilities proportional to frequency * length.
    raw = {p: float(sub_freq[p] * len(p)) for p in seed}
    log_total = math.log(sum(raw.values()))
    log_prob = {p: math.log(v) - log_total for p, v in raw.items()}
    logger.info("unigram seed: %d pieces over %d distinct words", len(log_prob), len(words))

    single_chars = set(alphabet)
    count_floor = 1e-12  # keeps never-used single characters in the model
    rounds = 0
    while True:
        counts = None
        for _ in range(em_iters):
            counts, ll = _expected_counts(words, log_prob, max_piece_len)
            kept = {}
            for piece in log_prob:
                c = counts[piece]
                if c <= 0.0:
                    if piece in single_chars:
                        c = count_floor
                    else:
                        continue
                kept[piece] = c
            log_c_total = math.log(sum(kept.values()))
            log_prob = {p: math.log(c) - log_c_total for p, c in kept.items()}
        rounds += 1
        if len(log_prob) <= vocab_size:
            logger.info("unigram training done after %d rounds: %d pieces", rounds, len(log_prob))
            break
        log_prob = _prune(log_prob, counts, single_chars, shrink_factor, vocab_size, max_piece_len)
        logger.info("round %d: pruned to %d pieces", rounds, len(log_prob))

    if len(log_prob) < vocab_size:
        # The EM pass after a prune drops every piece whose expected count is zero.
        logger.warning(
            "unigram training asked for %d pieces and returned %d", vocab_size, len(log_prob)
        )
    return TokenizerModel(log_prob, max_piece_len)


def _prune(
    log_prob: dict[str, float],
    counts: Counter,
    single_chars: set[str],
    shrink_factor: float,
    vocab_size: int,
    max_len: int,
) -> dict[str, float]:
    """Drop the multi-char pieces whose removal costs the least likelihood.

    Utility of a piece is its expected count times the log-prob gap between
    keeping it and re-segmenting its own surface with the remaining pieces.
    """
    target = max(vocab_size, int(len(log_prob) * shrink_factor))
    n_drop = len(log_prob) - target
    if n_drop <= 0:
        return log_prob
    scored = []
    for piece, lp in log_prob.items():
        if piece in single_chars:
            continue
        alt = _viterbi_score(piece, log_prob.get, max_len, exclude=piece)
        scored.append((counts[piece] * (lp - alt), piece))
    scored.sort(key=lambda item: (item[0], item[1]))
    dropped = {piece for _, piece in scored[:n_drop]}
    kept = {p: lp for p, lp in log_prob.items() if p not in dropped}
    # Renormalize so stored values stay log-probabilities.
    log_total = _logsumexp(list(kept.values()))
    return {p: lp - log_total for p, lp in kept.items()}


def trigrams(text: str) -> list[str]:
    """Per-word contiguous 3-char substrings; words under 3 chars emit nothing.

    The classic production behavior this engine competes with: "me" produces
    an empty list, which is exactly why short queries go unanswered there.
    """
    out: list[str] = []
    for word in normalize_text(text).split(" "):
        for i in range(len(word) - 2):
            out.append(word[i : i + 3])
    return out


def retrieval_tokens(model: TokenizerModel, text: str) -> list[int]:
    """Token ids for retrieval: segmented, unknown ids dropped."""
    return [t for t in model.segment(text) if t >= 0]
