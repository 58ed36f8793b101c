"""Relevance metrics, a benchmark harness, and a seeded synthetic corpus.

The generator fabricates a catalog of pronounceable entity names plus typo'd
query variants in labeled categories (misspellings, character variations like
"p!nk", word transpositions, incidental-term extensions, and short-word names
that trigram tokenization drops entirely), together with an engagement log
dense enough for the mining rules to fire. Everything is driven by one seed
and is byte-reproducible.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import Callable, Mapping, Sequence

from . import _jsonl
from .mining import BehaviorLog, LogRecord
from .sparse import ValidationError, normalize_text

# (query, k) -> ranked ids, or SearchHits whose doc_id is the id.
Retriever = Callable[[str, int], Sequence]


def _check_k(k: int) -> None:
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")


def hit_ids(hits: Sequence) -> list:
    """Ranked ids from a SearchHit list (or pass ids through unchanged)."""
    return [h.doc_id if hasattr(h, "doc_id") else h for h in hits]


def recall_at_k(ranked_ids: Sequence, relevant: set, k: int) -> float:
    _check_k(k)
    if not relevant:
        raise ValidationError("relevant set must be non-empty")
    top = set(ranked_ids[:k])
    return len(top & relevant) / len(relevant)


def precision_at_k(ranked_ids: Sequence, relevant: set, k: int) -> float:
    """Binary precision over the returned prefix: hits may be shorter than k."""
    _check_k(k)
    top = list(ranked_ids[:k])
    if not top:
        return 0.0
    return sum(1 for d in top if d in relevant) / len(top)


def ndcg_at_k(ranked_ids: Sequence, relevant: set, k: int) -> float:
    """Binary-gain NDCG with 1/log2(rank+1) discounts, ranks 1-based."""
    _check_k(k)
    if not relevant:
        raise ValidationError("relevant set must be non-empty")
    dcg = sum(
        1.0 / math.log2(rank + 1)
        for rank, doc in enumerate(ranked_ids[:k], start=1)
        if doc in relevant
    )
    ideal = sum(1.0 / math.log2(r + 1) for r in range(1, min(k, len(relevant)) + 1))
    return dcg / ideal if ideal > 0 else 0.0


@dataclass
class BenchmarkReport:
    metrics: dict[int, dict[str, float]]
    evaluated: int
    skipped: int

    def to_dict(self) -> dict:
        return {
            "metrics": {str(k): dict(v) for k, v in sorted(self.metrics.items())},
            "evaluated": self.evaluated,
            "skipped": self.skipped,
        }


def run_benchmark(
    queries: Sequence[str],
    qrels: Mapping[str, set],
    retriever: Retriever,
    ks: Sequence[int],
) -> BenchmarkReport:
    """Mean recall/precision/NDCG at each k.

    Queries missing from qrels are counted and excluded.
    """
    if not ks:
        raise ValidationError("ks must be non-empty")
    for k in ks:
        _check_k(k)
    max_k = max(ks)
    evaluated = [q for q in queries if q in qrels]
    skipped = len(queries) - len(evaluated)
    results = [(q, hit_ids(retriever(q, max_k))) for q in evaluated]
    metrics: dict[int, dict[str, float]] = {}
    for k in sorted(set(ks)):
        if not evaluated:
            metrics[k] = {"recall": 0.0, "precision": 0.0, "ndcg": 0.0}
            continue
        r = p = n = 0.0
        for q, ids in results:
            rel = set(qrels[q])
            r += recall_at_k(ids, rel, k)
            p += precision_at_k(ids, rel, k)
            n += ndcg_at_k(ids, rel, k)
        count = len(evaluated)
        metrics[k] = {"recall": r / count, "precision": p / count, "ndcg": n / count}
    return BenchmarkReport(metrics, len(evaluated), skipped)


# -- synthetic corpus ---------------------------------------------------------

TYPO_OPS = (
    "substitute",
    "transpose-adjacent-chars",
    "delete",
    "insert",
    "split-word",
    "join-words",
    "swap-word-order",
)

_CHAR_OPS = ("substitute", "transpose-adjacent-chars", "delete", "insert")
_SYMBOL_MAP = {"a": "@", "e": "3", "i": "!", "o": "0", "s": "$", "l": "1", "t": "+"}
_CONSONANTS = "bdfgjklmnprstvz"
_VOWELS = "aeiou"
_INCIDENTAL_TERMS = ("songs", "music", "live", "hits", "radio")


@dataclass(frozen=True)
class TypoSpec:
    """Weighted edit-operation mix and edits-per-query distribution."""

    ops: Mapping[str, float] = field(
        default_factory=lambda: {
            "substitute": 0.30,
            "delete": 0.15,
            "insert": 0.15,
            "transpose-adjacent-chars": 0.15,
            "split-word": 0.10,
            "join-words": 0.05,
            "swap-word-order": 0.10,
        }
    )
    edits_per_query: Mapping[int, float] = field(default_factory=lambda: {1: 0.7, 2: 0.3})

    def __post_init__(self):
        unknown = set(self.ops) - set(TYPO_OPS)
        if unknown:
            raise ValidationError(f"unknown typo ops: {sorted(unknown)}")
        if not self.ops or any(w < 0 for w in self.ops.values()):
            raise ValidationError("op weights must be non-negative and non-empty")
        if abs(sum(self.ops.values()) - 1.0) > 1e-6:
            raise ValidationError("op weights must sum to 1")
        if not self.edits_per_query or any(
            k < 1 or w < 0 for k, w in self.edits_per_query.items()
        ):
            raise ValidationError("edits_per_query needs positive counts, weights >= 0")
        if abs(sum(self.edits_per_query.values()) - 1.0) > 1e-6:
            raise ValidationError("edits_per_query weights must sum to 1")


@dataclass(frozen=True)
class SynthQuery:
    text: str
    entity_id: str
    category: str


@dataclass
class SynthCorpus:
    docs: list[tuple[str, str]]  # (entity_id, canonical name)
    queries: list[SynthQuery]
    qrels: dict[str, set[str]]
    log: BehaviorLog
    seed: int


def _weighted_choice(rng: random.Random, weights: Mapping, keys=None):
    items = sorted(weights.items()) if keys is None else [(k, weights[k]) for k in keys]
    total = sum(w for _, w in items)
    x = rng.random() * total
    acc = 0.0
    for key, w in items:
        acc += w
        if x < acc:
            return key
    return items[-1][0]


def _rand_letter(rng: random.Random, exclude: str = "") -> str:
    letters = "abcdefghijklmnopqrstuvwxyz"
    ch = rng.choice(letters)
    while ch in exclude:
        ch = rng.choice(letters)
    return ch


def _apply_op(rng: random.Random, words: list[str], op: str) -> list[str]:
    words = list(words)
    editable = [i for i, w in enumerate(words) if len(w) >= 2]
    if op == "substitute":
        i = rng.randrange(len(words))
        w = words[i]
        pos = rng.randrange(len(w))
        words[i] = w[:pos] + _rand_letter(rng, exclude=w[pos]) + w[pos + 1 :]
    elif op == "transpose-adjacent-chars":
        cands = [
            (i, p)
            for i in editable
            for p in range(len(words[i]) - 1)
            if words[i][p] != words[i][p + 1]
        ]
        if not cands:
            return _apply_op(rng, words, "substitute")
        i, p = cands[rng.randrange(len(cands))]
        w = words[i]
        words[i] = w[:p] + w[p + 1] + w[p] + w[p + 2 :]
    elif op == "delete":
        if not editable:
            return _apply_op(rng, words, "insert")
        i = rng.choice(editable)
        w = words[i]
        pos = rng.randrange(len(w))
        words[i] = w[:pos] + w[pos + 1 :]
    elif op == "insert":
        i = rng.randrange(len(words))
        w = words[i]
        pos = rng.randrange(len(w) + 1)
        words[i] = w[:pos] + _rand_letter(rng) + w[pos:]
    elif op == "split-word":
        if not editable:
            return _apply_op(rng, words, "insert")
        i = rng.choice(editable)
        w = words[i]
        pos = rng.randrange(1, len(w))
        words[i : i + 1] = [w[:pos], w[pos:]]
    elif op == "join-words":
        if len(words) < 2:
            return _apply_op(rng, words, "delete")
        i = rng.randrange(len(words) - 1)
        words[i : i + 2] = [words[i] + words[i + 1]]
    elif op == "swap-word-order":
        if len(words) < 2:
            return _apply_op(rng, words, "substitute")
        i, j = rng.sample(range(len(words)), 2)
        words[i], words[j] = words[j], words[i]
    else:  # pragma: no cover - TypoSpec validates the op set
        raise ValidationError(f"unknown op {op!r}")
    return [w for w in words if w]


def _symbol_substitute(rng: random.Random, words: list[str]) -> list[str] | None:
    cands = [
        (i, p) for i, w in enumerate(words) for p, ch in enumerate(w) if ch in _SYMBOL_MAP
    ]
    if not cands:
        return None
    i, p = cands[rng.randrange(len(cands))]
    w = words[i]
    out = list(words)
    out[i] = w[:p] + _SYMBOL_MAP[w[p]] + w[p + 1 :]
    return out


def _make_word(rng: random.Random) -> str:
    syllables = rng.randint(2, 4)
    return "".join(
        rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables)
    )


def _make_short_word(rng: random.Random) -> str:
    # 1-2 character words, the "me" problem class for trigram tokenization.
    if rng.random() < 0.3:
        return rng.choice(_CONSONANTS + _VOWELS)
    return rng.choice(_CONSONANTS) + rng.choice(_VOWELS + _CONSONANTS)


def _char_op_mix(typo: TypoSpec) -> dict[str, float]:
    mix = {op: w for op, w in typo.ops.items() if op in _CHAR_OPS and w > 0}
    return mix or {op: 1.0 for op in _CHAR_OPS}


def synth_corpus(
    seed: int,
    n_entities: int,
    queries_per_entity: int,
    typo: TypoSpec | None = None,
    *,
    short_entity_fraction: float = 0.12,
    days: int = 7,
) -> SynthCorpus:
    """Generate catalog docs, labeled query variants, qrels, and a 7-day log.

    Normal entities get queries_per_entity variants cycling through the
    misspelling / character-variation / transposition / incidental categories
    (transposition pairs a word swap with one character edit so the category
    is non-trivial for order-invariant retrievers). Short-word entities carry
    names whose words are under 3 characters; they contribute the short-word
    slice (their canonical text) and a pure-swap transposition query.
    """
    if n_entities < 1 or queries_per_entity < 1:
        raise ValidationError("n_entities and queries_per_entity must be >= 1")
    if days < 1:
        raise ValidationError("days must be >= 1")
    typo = typo or TypoSpec()
    rng = random.Random(seed)
    char_mix = _char_op_mix(typo)

    n_short = int(round(n_entities * short_entity_fraction))
    names: list[str] = []
    seen_names: set[str] = set()
    while len(names) < n_entities - n_short:
        r = rng.random()
        n_words = 1 if r < 0.25 else (2 if r < 0.85 else 3)
        name = " ".join(_make_word(rng) for _ in range(n_words))
        if name not in seen_names:
            seen_names.add(name)
            names.append(name)
    short_flags = [False] * len(names)
    while len(names) < n_entities:
        name = " ".join(_make_short_word(rng) for _ in range(2))
        if name not in seen_names and name.split(" ")[0] != name.split(" ")[1]:
            seen_names.add(name)
            names.append(name)
            short_flags.append(True)

    docs: list[tuple[str, str]] = []
    queries: list[SynthQuery] = []
    qrels: dict[str, set[str]] = {}
    taken: dict[str, str] = {}

    def emit(text: str, entity_id: str, category: str) -> bool:
        text = normalize_text(text)
        if not text or text in taken:
            return False
        taken[text] = entity_id
        queries.append(SynthQuery(text, entity_id, category))
        qrels[text] = {entity_id}
        return True

    # Canonical texts claim their query strings first so no typo'd variant of
    # one entity can collide with another entity's exact name.
    for idx, name in enumerate(names):
        entity_id = f"e{idx:05d}"
        docs.append((entity_id, name))
        emit(name, entity_id, "short_word" if short_flags[idx] else "canonical")

    for idx, name in enumerate(names):
        entity_id = f"e{idx:05d}"
        words = name.split(" ")
        if short_flags[idx]:
            emit(" ".join(reversed(words)), entity_id, "transposition")
            continue
        categories = ["misspelling", "character_variation", "transposition", "incidental"]
        for v in range(queries_per_entity):
            category = categories[v % len(categories)]
            if category == "transposition" and len(words) < 2:
                category = "misspelling"
            for _attempt in range(4):
                if category == "misspelling":
                    n_edits = _weighted_choice(rng, dict(typo.edits_per_query))
                    out = list(words)
                    for _ in range(n_edits):
                        out = _apply_op(rng, out, _weighted_choice(rng, char_mix))
                elif category == "character_variation":
                    out = _symbol_substitute(rng, list(words))
                    if out is None:
                        out = _apply_op(rng, list(words), "substitute")
                elif category == "transposition":
                    out = _apply_op(rng, list(words), "swap-word-order")
                    out = _apply_op(rng, out, _weighted_choice(rng, char_mix))
                else:  # incidental
                    out = words + [rng.choice(_INCIDENTAL_TERMS)]
                text = " ".join(out)
                if text != name and emit(text, entity_id, category):
                    break

    records = []
    base_day = date(2026, 1, 5)
    for i, q in enumerate(queries):
        records.append(
            LogRecord(
                query=q.text,
                entity=q.entity_id,
                engagements=rng.randint(4, 40),
                day=base_day + timedelta(days=i % days),
            )
        )
    log = BehaviorLog(records)
    return SynthCorpus(docs=docs, queries=queries, qrels=qrels, log=log, seed=seed)


def write_corpus_dir(corpus: SynthCorpus, out_dir: str) -> None:
    """Write docs.jsonl, queries.jsonl, qrels.jsonl and log.jsonl."""
    os.makedirs(out_dir, exist_ok=True)
    files = {
        "docs.jsonl": ({"id": i, "text": t} for i, t in corpus.docs),
        "queries.jsonl": (
            {"q": q.text, "entity": q.entity_id, "category": q.category} for q in corpus.queries
        ),
        "qrels.jsonl": ({"q": q, "docs": sorted(corpus.qrels[q])} for q in sorted(corpus.qrels)),
    }
    for name, rows in files.items():
        _jsonl.write(os.path.join(out_dir, name), rows)
    corpus.log.to_jsonl(os.path.join(out_dir, "log.jsonl"))


def _doc_row(obj: dict) -> tuple[str, str, str | None]:
    payload = obj.get("payload")
    if payload is not None and not isinstance(payload, str):
        payload = json.dumps(payload, sort_keys=True)
    return str(obj["id"]), _jsonl.string(obj, "text"), payload


def load_docs(path: str) -> list[tuple[str, str, str | None]]:
    """(id, text, payload) from rows {"id", "text"[, "payload"]}; a payload
    that is not a string is kept as its sorted-key JSON."""
    rows = _jsonl.read(path, _doc_row)
    if not rows:
        raise ValidationError(f"{path}: no documents")
    return rows


def load_queries(path: str) -> list[str]:
    """Normalized query texts from rows {"q"[, "entity", "category"]}."""
    return _jsonl.read(path, lambda obj: normalize_text(_jsonl.string(obj, "q")))


def _qrels_row(obj: dict) -> tuple[str, set[str]]:
    docs = set(_jsonl.strings(obj, "docs"))
    if not docs:
        raise ValueError("query has no relevant docs")
    return normalize_text(_jsonl.string(obj, "q")), docs


def load_qrels(path: str) -> dict[str, set[str]]:
    """Normalized query -> relevant doc ids, from rows {"q", "docs"}."""
    return dict(_jsonl.read(path, _qrels_row))
