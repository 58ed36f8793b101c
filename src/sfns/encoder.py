"""Document-expansion encoder and its training objective.

Documents pass through a small projection: every input token's embedding is
scored against every vocabulary dimension, the per-dimension maximum is taken
over token positions, and a saturating log(1 + ReLU(.)) turns the result into
non-negative sparse weights. Queries never touch these parameters; they stay
on the tokenize-and-IDF path, so training only moves document-side weights
toward the surface forms users actually type.

The objective is a contrastive softmax over one positive and a pool of hard
plus in-batch negatives, plus an activation-sparsity penalty: the squared
per-dimension mean weight over the batch. All gradients here are analytic and
are checked against central finite differences in the test suite.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _binio, _jsonl
from .sparse import SparseVector, ValidationError, VocabStats
from .tokenizer import TokenizerModel, retrieval_tokens

logger = logging.getLogger(__name__)

_MAGIC = b"SFNE"


@dataclass
class EncoderParams:
    """Dense parameters: token embeddings, output projection, output bias."""

    embed: np.ndarray  # (V, D)
    proj: np.ndarray  # (V, D)
    bias: np.ndarray  # (V,)

    def __post_init__(self):
        self.embed = np.asarray(self.embed, dtype=np.float64)
        self.proj = np.asarray(self.proj, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        v, d = self.embed.shape
        if self.proj.shape != (v, d) or self.bias.shape != (v,):
            raise ValidationError(
                f"shape mismatch: embed {self.embed.shape}, proj {self.proj.shape}, "
                f"bias {self.bias.shape}"
            )
        for name, arr in (("embed", self.embed), ("proj", self.proj), ("bias", self.bias)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contains non-finite values")

    @property
    def vocab_size(self) -> int:
        return int(self.embed.shape[0])

    @property
    def dim(self) -> int:
        return int(self.embed.shape[1])

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.embed.copy(), self.proj.copy(), self.bias.copy())


def init_params(vocab_size: int, dim: int, seed: int, scale: float = 0.1) -> EncoderParams:
    if vocab_size < 1 or dim < 1:
        raise ValidationError("vocab_size and dim must be >= 1")
    rng = np.random.default_rng(seed)
    return EncoderParams(
        embed=rng.normal(0.0, scale, (vocab_size, dim)),
        proj=rng.normal(0.0, scale, (vocab_size, dim)),
        bias=np.zeros(vocab_size),
    )


def _check_tokens(params: EncoderParams, tokens: Sequence[int]) -> np.ndarray:
    if len(tokens) == 0:
        raise ValidationError("token list must be non-empty")
    arr = np.asarray(tokens, dtype=np.int64)
    if arr.min() < 0 or arr.max() >= params.vocab_size:
        raise ValidationError(f"token ids must lie in [0, {params.vocab_size})")
    return arr


def _forward_doc(params: EncoderParams, tokens: np.ndarray):
    """Returns (pre, argmax_pos, weights), all dense over the vocabulary.

    pre[j] is the max over token positions of E_j . h_t + b_j; argmax takes
    the lowest position on ties (np.argmax is first-occurrence), which is the
    documented subgradient assignment.
    """
    h = params.embed[tokens]  # (T, D)
    logits = h @ params.proj.T + params.bias  # (T, V)
    argmax_pos = np.argmax(logits, axis=0)  # (V,)
    pre = logits[argmax_pos, np.arange(params.vocab_size)]
    weights = np.log1p(np.maximum(pre, 0.0))
    return pre, argmax_pos, weights


def encode_doc(params: EncoderParams, tokens: Sequence[int]) -> SparseVector:
    """Expand a tokenized document into sparse vocabulary weights.

    Invariant to duplicate tokens and token order (max pooling over a set);
    weights are non-negative by construction and exactly zero wherever the
    pre-activation fails the ReLU.
    """
    arr = _check_tokens(params, tokens)
    _, _, weights = _forward_doc(params, arr)
    nz = np.nonzero(weights > 0.0)[0]
    return SparseVector._raw(nz.astype(np.int64), weights[nz])


@dataclass(frozen=True)
class BatchItem:
    query_tokens: tuple[int, ...]
    pos_tokens: tuple[int, ...]
    neg_tokens: tuple[tuple[int, ...], ...] = ()


@dataclass(frozen=True)
class TrainBatch:
    """Items plus the corpus stats used for the frozen query-side IDF."""

    items: tuple[BatchItem, ...]
    stats: VocabStats

    def __post_init__(self):
        if not self.items:
            raise ValidationError("batch must contain at least one item")


@dataclass
class Gradients:
    embed: np.ndarray
    proj: np.ndarray
    bias: np.ndarray


def _query_row(item: BatchItem, stats: VocabStats, vocab_size: int) -> np.ndarray:
    row = np.zeros(vocab_size, dtype=np.float64)
    table, unknown = stats.idf_table, stats.unknown_idf
    for t in {t for t in item.query_tokens if 0 <= t < vocab_size}:
        row[t] = table.get(t, unknown)
    return row


def _loss_and_grad(params: EncoderParams, batch: TrainBatch, lambda_reg: float, want_grad: bool):
    if lambda_reg < 0:
        raise ValidationError(f"lambda_reg must be >= 0, got {lambda_reg}")
    nitems = len(batch.items)
    v = params.vocab_size

    doc_tokens: list[np.ndarray] = []
    neg_slices: list[tuple[int, int]] = []
    for item in batch.items:
        doc_tokens.append(_check_tokens(params, item.pos_tokens))
    for item in batch.items:
        start = len(doc_tokens)
        for neg in item.neg_tokens:
            doc_tokens.append(_check_tokens(params, neg))
        neg_slices.append((start, len(doc_tokens)))
    ndocs = len(doc_tokens)

    pres = np.empty((ndocs, v))
    argmaxes = np.empty((ndocs,), dtype=object)
    weights = np.empty((ndocs, v))
    for d, toks in enumerate(doc_tokens):
        pres[d], argmaxes[d], weights[d] = _forward_doc(params, toks)

    qrows = np.stack([_query_row(item, batch.stats, v) for item in batch.items])  # (B, V)
    scores = qrows @ weights.T  # (B, ndocs)

    d_scores = np.zeros_like(scores) if want_grad else None
    infonce = 0.0
    for i in range(nitems):
        lo, hi = neg_slices[i]
        cand = [i] + list(range(lo, hi)) + [j for j in range(nitems) if j != i]
        s = scores[i, cand]
        m = s.max()
        lse = m + math.log(np.exp(s - m).sum())
        infonce += lse - s[0]
        if want_grad:
            p = np.exp(s - lse)
            p[0] -= 1.0
            d_scores[i, cand] += p / nitems
    infonce /= nitems

    mean_w = weights.mean(axis=0)
    flops = float(np.dot(mean_w, mean_w))
    total = infonce + lambda_reg * flops
    breakdown = {"total": total, "infonce": infonce, "flops": flops}
    if not want_grad:
        return total, breakdown, None

    # d loss / d weights: contrastive part plus the sparsity penalty.
    d_weights = d_scores.T @ qrows  # (ndocs, V)
    d_weights += lambda_reg * 2.0 * mean_w / ndocs

    g_embed = np.zeros_like(params.embed)
    g_proj = np.zeros_like(params.proj)
    g_bias = np.zeros_like(params.bias)
    for d, toks in enumerate(doc_tokens):
        pre = pres[d]
        active = pre > 0.0  # ReLU subgradient at exactly 0 is 0
        g_pre = np.where(active, d_weights[d] / (1.0 + np.maximum(pre, 0.0)), 0.0)
        if not np.any(g_pre):
            continue
        am = argmaxes[d]
        g_bias += g_pre
        g_proj += g_pre[:, None] * params.embed[toks[am]]
        np.add.at(g_embed, toks[am], g_pre[:, None] * params.proj)
    return total, breakdown, Gradients(g_embed, g_proj, g_bias)


def loss(params: EncoderParams, batch: TrainBatch, lambda_reg: float) -> tuple[float, dict]:
    """Contrastive loss plus weighted sparsity penalty; returns (value, breakdown)."""
    total, breakdown, _ = _loss_and_grad(params, batch, lambda_reg, want_grad=False)
    return total, breakdown


def grad(params: EncoderParams, batch: TrainBatch, lambda_reg: float) -> Gradients:
    """Analytic gradients of loss() with respect to every parameter."""
    _, _, grads = _loss_and_grad(params, batch, lambda_reg, want_grad=True)
    return grads


@dataclass(frozen=True)
class TokenTriple:
    query_tokens: tuple[int, ...]
    pos_tokens: tuple[int, ...]
    neg_tokens: tuple[tuple[int, ...], ...] = ()


def prepare_dataset(model: TokenizerModel, triples: Iterable) -> list[TokenTriple]:
    """Tokenize mined (q, q+, negatives) string triples for training.

    Items whose query or positive yields no tokens are skipped with a warning;
    empty negatives are dropped silently.
    """
    out: list[TokenTriple] = []
    skipped = 0
    for triple in triples:
        q_toks = tuple(retrieval_tokens(model, triple.q))
        p_toks = tuple(retrieval_tokens(model, triple.q_pos))
        if not q_toks or not p_toks:
            skipped += 1
            continue
        negs = tuple(
            toks
            for toks in (tuple(retrieval_tokens(model, n)) for n in triple.negatives)
            if toks
        )
        out.append(TokenTriple(q_toks, p_toks, negs))
    if skipped:
        logger.warning("prepare_dataset skipped %d untokenizable triples", skipped)
    return out


@dataclass
class TrainConfig:
    lr: float = 0.05
    steps: int = 200
    batch_size: int = 8
    lambda_reg: float = 1e-2
    seed: int = 0
    negatives_per_query: int = 4
    momentum: float = 0.9

    def __post_init__(self):
        if self.lr <= 0 or self.steps < 0 or self.batch_size < 1:
            raise ValidationError("lr must be > 0, steps >= 0, batch_size >= 1")
        if self.lambda_reg < 0 or self.negatives_per_query < 0:
            raise ValidationError("lambda_reg and negatives_per_query must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError("momentum must lie in [0, 1)")


def train(
    params: EncoderParams,
    dataset: Sequence[TokenTriple],
    stats: VocabStats,
    config: TrainConfig,
) -> tuple[EncoderParams, list[dict]]:
    """SGD with momentum over shuffled mini-batches; deterministic given seed.

    Returns the trained parameters and per-step telemetry (loss components
    and the batch's average non-zero expansion dimensions).
    """
    if not dataset:
        raise ValidationError("dataset must be non-empty")
    if config.steps == 0:
        return params, []
    rng = np.random.default_rng(config.seed)
    p = params.copy()
    vel = Gradients(
        np.zeros_like(p.embed), np.zeros_like(p.proj), np.zeros_like(p.bias)
    )
    history: list[dict] = []
    pool: list[int] = []
    for step in range(config.steps):
        take = min(config.batch_size, len(dataset))
        picked: list[int] = []
        while len(picked) < take:
            if not pool:
                pool = rng.permutation(len(dataset)).tolist()
            picked.append(pool.pop())
        items = tuple(
            BatchItem(
                t.query_tokens,
                t.pos_tokens,
                t.neg_tokens[: config.negatives_per_query],
            )
            for t in (dataset[i] for i in picked)
        )
        batch = TrainBatch(items, stats)
        total, breakdown, grads = _loss_and_grad(p, batch, config.lambda_reg, want_grad=True)
        for vel_arr, g_arr, p_arr in (
            (vel.embed, grads.embed, p.embed),
            (vel.proj, grads.proj, p.proj),
            (vel.bias, grads.bias, p.bias),
        ):
            vel_arr *= config.momentum
            vel_arr -= config.lr * g_arr
            p_arr += vel_arr
        nnz = _batch_nonzero_dims(p, items)
        history.append(
            {
                "step": step,
                "loss": breakdown["total"],
                "infonce": breakdown["infonce"],
                "flops": breakdown["flops"],
                "avg_nonzero_dims": nnz,
            }
        )
        if step % 50 == 0 or step == config.steps - 1:
            logger.info(
                "step %d: loss=%.6f infonce=%.6f flops=%.6f nnz=%.2f",
                step, total, breakdown["infonce"], breakdown["flops"], nnz,
            )
    return p, history


def _batch_nonzero_dims(params: EncoderParams, items: tuple[BatchItem, ...]) -> float:
    counts = []
    for item in items:
        for toks in (item.pos_tokens, *item.neg_tokens):
            counts.append(encode_doc(params, toks).nnz)
    return float(np.mean(counts)) if counts else 0.0


def mean_nonzero_dims(params: EncoderParams, token_lists: Iterable[Sequence[int]]) -> float:
    """Average expansion size over a document collection."""
    counts = [encode_doc(params, toks).nnz for toks in token_lists]
    if not counts:
        raise ValidationError("no documents given")
    return float(np.mean(counts))


def save_external_vectors(
    vectors: Iterable[tuple[str, SparseVector]], model: TokenizerModel, path: str
) -> None:
    """Write (doc id, vector) pairs as {"id", "vec": {piece: weight}} rows."""
    _jsonl.write(
        path,
        (
            {"id": doc_id, "vec": {model.id_to_piece(t): w for t, w in vec.items()}}
            for doc_id, vec in vectors
        ),
    )


def load_external_vectors(
    path: str, model: TokenizerModel
) -> list[tuple[str, SparseVector]]:
    """Read {"id", "vec": {piece: number}} rows, written by save_external_vectors
    or by a larger model. Unknown pieces are skipped with a warning naming the doc.
    """

    def parse(obj: dict) -> tuple[str, SparseVector]:
        doc_id = str(obj["id"])
        vec = obj["vec"]
        if type(vec) is not dict or any(type(w) not in (int, float) for w in vec.values()):
            raise TypeError("field 'vec' must be an object of numbers")
        pairs = []
        unknown = []
        for piece, weight in vec.items():
            tid = model.piece_id(piece)
            if tid is None:
                unknown.append(piece)
                continue
            pairs.append((tid, float(weight)))
        if unknown:
            logger.warning(
                "%s: doc %r: skipped %d unknown piece(s): %s",
                path, doc_id, len(unknown), ", ".join(repr(p) for p in unknown[:5]),
            )
        return doc_id, SparseVector(pairs)

    return _jsonl.read(path, parse)


def save_params(params: EncoderParams, path: str) -> None:
    """Write the SFNE binary: dims header, row-major f32 arrays, trailing CRC32C."""
    body = bytearray()
    body += _MAGIC
    body += _binio.pack_u64(params.vocab_size)
    body += _binio.pack_u64(params.dim)
    body += params.embed.astype("<f4").tobytes(order="C")
    body += params.proj.astype("<f4").tobytes(order="C")
    body += params.bias.astype("<f4").tobytes(order="C")
    _binio.write_checksummed(path, bytes(body))


def load_params(path: str) -> EncoderParams:
    reader = _binio.read_checksummed(path, _MAGIC)
    v = reader.u64()
    d = reader.u64()
    embed = np.frombuffer(reader.take(4 * v * d), dtype="<f4").astype(np.float64).reshape(v, d)
    proj = np.frombuffer(reader.take(4 * v * d), dtype="<f4").astype(np.float64).reshape(v, d)
    bias = np.frombuffer(reader.take(4 * v), dtype="<f4").astype(np.float64)
    if reader.remaining():
        raise _binio.TruncatedError(f"{path}: {reader.remaining()} trailing bytes")
    return EncoderParams(embed, proj, bias)
