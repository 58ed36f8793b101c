"""Weak-supervision mining over engagement logs.

Positive pairs come from queries that led to playback of the same entity and
sit close in surface form (length ratio and edit distance gates). Hard
negatives are retrieved look-alikes that provably do NOT share an entity with
the query. Train/test splitting walks connected components of the
query-entity bipartite graph so no surface form or entity leaks across the
boundary.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass
from datetime import date, datetime
from typing import Callable, Iterable, Sequence

from . import _jsonl
from .baselines import banded_levenshtein
from .sparse import ValidationError, normalize_text

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LogRecord:
    query: str
    entity: str
    engagements: int
    day: date

    def __post_init__(self):
        if self.engagements < 0:
            raise ValidationError("engagements must be >= 0")


class BehaviorLog:
    """Immutable list of (query, entity, engagements, day) records.

    Queries are normalized on ingestion so every downstream rule sees the
    same surface forms the retrieval side sees.
    """

    def __init__(self, records: Iterable[LogRecord]):
        self.records: tuple[LogRecord, ...] = tuple(
            [LogRecord(normalize_text(r.query), r.entity, r.engagements, r.day) for r in records]
        )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def queries(self) -> list[str]:
        seen = dict.fromkeys(r.query for r in self.records)
        return list(seen)

    def days(self) -> list[date]:
        return sorted({r.day for r in self.records})

    def entities_by_query(self, min_engagements: int = 1) -> dict[str, set[str]]:
        out: dict[str, set[str]] = {}
        for r in self.records:
            if r.engagements >= min_engagements:
                out.setdefault(r.query, set()).add(r.entity)
        return out

    def queries_by_entity(self, min_engagements: int = 1) -> dict[str, set[str]]:
        out: dict[str, set[str]] = {}
        for r in self.records:
            if r.engagements >= min_engagements:
                out.setdefault(r.entity, set()).add(r.query)
        return out

    def engagement_shares(self) -> dict[str, dict[str, float]]:
        """Per query: entity -> share of that query's total engagements."""
        totals: dict[str, int] = {}
        counts: dict[str, dict[str, int]] = {}
        for r in self.records:
            totals[r.query] = totals.get(r.query, 0) + r.engagements
            row = counts.setdefault(r.query, {})
            row[r.entity] = row.get(r.entity, 0) + r.engagements
        shares: dict[str, dict[str, float]] = {}
        for q, per_entity in counts.items():
            total = totals[q]
            if total <= 0:
                continue
            shares[q] = {e: n / total for e, n in per_entity.items() if n > 0}
        return shares

    @classmethod
    def from_jsonl(cls, path: str) -> "BehaviorLog":
        """Read rows {"q", "e", "n", "day": "YYYY-MM-DD"}."""
        return cls(_jsonl.read(path, _log_row))

    def to_jsonl(self, path: str) -> None:
        _jsonl.write(
            path,
            (
                {"q": r.query, "e": r.entity, "n": r.engagements, "day": r.day.isoformat()}
                for r in self.records
            ),
        )


def _log_row(obj: dict) -> LogRecord:
    return LogRecord(
        query=_jsonl.string(obj, "q"),
        entity=str(obj["e"]),
        engagements=int(obj["n"]),
        day=datetime.strptime(obj["day"], "%Y-%m-%d").date(),
    )


def edit_threshold(shorter_len: int) -> int:
    """Allowed edits for a pair whose shorter query has this many characters."""
    return max(1, shorter_len // 10)


@dataclass(frozen=True)
class MinedPair:
    q: str
    q_pos: str
    shared_entities: frozenset[str]


def pair_passes(a: str, b: str) -> bool:
    """Surface-form gates only (the shared-entity gate is the caller's job).

    Length ratio of at least 0.8 kills "taylor swift" vs "taylor swift songs"
    style incidental extensions; the edit budget scales with a tenth of the
    shorter query.
    """
    if a == b:
        return False
    shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
    if len(longer) == 0:
        return False
    if len(shorter) / len(longer) < 0.8:
        return False
    return banded_levenshtein(a, b, edit_threshold(len(shorter))) is not None


def mine_positive_pairs(log: BehaviorLog, min_engagements: int = 1) -> list[MinedPair]:
    """All query pairs that share a playback entity and pass the surface gates.

    Each unordered pair is found once (entity sets unioned across groups) and
    emitted in both orientations, since either side can serve as the anchor
    during training. Quadratic in group size by design; groups are per-entity
    query sets and stay small at this scale.
    """
    by_entity = log.queries_by_entity(min_engagements)
    accepted: dict[tuple[str, str], set[str]] = {}
    checked: dict[tuple[str, str], bool] = {}
    for entity in sorted(by_entity):
        queries = sorted(by_entity[entity])
        for i in range(len(queries)):
            for j in range(i + 1, len(queries)):
                key = (queries[i], queries[j])
                ok = checked.get(key)
                if ok is None:
                    ok = pair_passes(*key)
                    checked[key] = ok
                if ok:
                    accepted.setdefault(key, set()).add(entity)
    out: list[MinedPair] = []
    for (a, b) in sorted(accepted):
        ents = frozenset(accepted[(a, b)])
        out.append(MinedPair(a, b, ents))
        out.append(MinedPair(b, a, ents))
    return out


@dataclass(frozen=True)
class TrainTriple:
    q: str
    q_pos: str
    negatives: tuple[str, ...] = ()


@dataclass
class HardNegativeResult:
    triples: list[TrainTriple]
    starved: int = 0


class MiningError(RuntimeError):
    pass


def mine_hard_negatives(
    pairs: Sequence[MinedPair],
    retriever: Callable[[str], Sequence[str]],
    log: BehaviorLog,
    n: int,
) -> HardNegativeResult:
    """Attach up to n retrieved-but-unrelated queries to each mined pair.

    A candidate is rejected if it shares any playback entity with the anchor
    query (which also rejects the anchor and the positive themselves). Pairs
    that end up with zero negatives are counted as starved.
    """
    if n < 0:
        raise ValidationError("n must be >= 0")
    entities = log.entities_by_query()
    result = HardNegativeResult(triples=[])
    for pair in pairs:
        try:
            candidates = retriever(pair.q)
        except Exception as exc:
            raise MiningError(f"retriever failed for query {pair.q!r}: {exc}") from exc
        anchor_entities = entities.get(pair.q, set())
        negs: list[str] = []
        seen: set[str] = set()
        for cand in candidates:
            cand = normalize_text(cand)
            if cand in seen or cand == pair.q or cand == pair.q_pos:
                continue
            seen.add(cand)
            if entities.get(cand, set()) & anchor_entities:
                continue
            negs.append(cand)
            if len(negs) >= n:
                break
        if n > 0 and not negs:
            result.starved += 1
            logger.debug("no hard negatives available for %r", pair.q)
        result.triples.append(TrainTriple(pair.q, pair.q_pos, tuple(negs)))
    return result


# -- leakage-free splitting -------------------------------------------------


@dataclass(frozen=True)
class Component:
    component_id: int
    queries: frozenset[str]
    entities: frozenset[str]


@dataclass
class SplitResult:
    train: tuple[Component, ...]
    test: tuple[Component, ...]
    seed: int = 0
    test_fraction: float = 0.0

    def _union(self, side: tuple[Component, ...], attr: str) -> set[str]:
        out: set[str] = set()
        for comp in side:
            out |= getattr(comp, attr)
        return out

    @property
    def train_queries(self) -> set[str]:
        return self._union(self.train, "queries")

    @property
    def test_queries(self) -> set[str]:
        return self._union(self.test, "queries")

    @property
    def train_entities(self) -> set[str]:
        return self._union(self.train, "entities")

    @property
    def test_entities(self) -> set[str]:
        return self._union(self.test, "entities")


class SplitInfeasibleError(ValueError):
    pass


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        root = x
        while self.parent.setdefault(root, root) != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def connected_components(log: BehaviorLog) -> list[Component]:
    """Components of the query-entity bipartite engagement graph.

    Canonically ordered by each component's smallest query string so ids are
    stable for a given log.
    """
    uf = _UnionFind()
    for r in log.records:
        uf.union(("q", r.query), ("e", r.entity))
    groups: dict = {}
    for r in log.records:
        root = uf.find(("q", r.query))
        g = groups.setdefault(root, (set(), set()))
        g[0].add(r.query)
        g[1].add(r.entity)
    ordered = sorted(groups.values(), key=lambda g: min(g[0]))
    return [
        Component(i, frozenset(qs), frozenset(es)) for i, (qs, es) in enumerate(ordered)
    ]


def split_by_components(log: BehaviorLog, test_fraction: float, seed: int) -> SplitResult:
    """Assign whole components to test until it holds test_fraction of queries.

    Because a query's every entity (and an entity's every query) lives in the
    same component, train and test share no queries and no entities.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValidationError("test_fraction must lie in (0, 1)")
    components = connected_components(log)
    if not components:
        raise ValidationError("log is empty")
    total_queries = sum(len(c.queries) for c in components)
    largest = max(components, key=lambda c: len(c.queries))
    if len(largest.queries) > (1.0 - test_fraction) * total_queries:
        sizes = sorted((len(c.queries) for c in components), reverse=True)
        raise SplitInfeasibleError(
            f"largest component holds {len(largest.queries)}/{total_queries} queries, "
            f"more than 1 - test_fraction allows; component sizes: {sizes[:10]}"
        )
    shuffled = list(components)
    random.Random(seed).shuffle(shuffled)
    target = test_fraction * total_queries
    test: list[Component] = []
    taken = 0
    idx = 0
    while taken < target and idx < len(shuffled):
        comp = shuffled[idx]
        test.append(comp)
        taken += len(comp.queries)
        idx += 1
    train = shuffled[idx:]
    return SplitResult(
        train=tuple(train), test=tuple(test), seed=seed, test_fraction=test_fraction
    )


# -- file formats ------------------------------------------------------------


def save_pairs(pairs: Sequence[MinedPair], path: str) -> None:
    _jsonl.write(
        path,
        ({"q": p.q, "pos": p.q_pos, "entities": sorted(p.shared_entities)} for p in pairs),
    )


def load_pairs(path: str) -> list[MinedPair]:
    """Read rows {"q", "pos"[, "entities"]}."""
    return _jsonl.read(
        path,
        lambda obj: MinedPair(
            _jsonl.string(obj, "q"),
            _jsonl.string(obj, "pos"),
            frozenset(_jsonl.strings(obj, "entities")),
        ),
    )


def save_triples(triples: Sequence[TrainTriple], path: str) -> None:
    _jsonl.write(
        path, ({"q": t.q, "pos": t.q_pos, "negs": list(t.negatives)} for t in triples)
    )


def load_triples(path: str) -> list[TrainTriple]:
    """Read rows {"q", "pos"[, "negs"]}."""
    return _jsonl.read(
        path,
        lambda obj: TrainTriple(
            _jsonl.string(obj, "q"),
            _jsonl.string(obj, "pos"),
            tuple(_jsonl.strings(obj, "negs")),
        ),
    )


def save_split_manifest(result: SplitResult, path: str) -> None:
    def side(components: tuple[Component, ...]) -> list[dict]:
        return [
            {
                "id": c.component_id,
                "queries": sorted(c.queries),
                "entities": sorted(c.entities),
            }
            for c in sorted(components, key=lambda c: c.component_id)
        ]

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "seed": result.seed,
                "test_fraction": result.test_fraction,
                "train": side(result.train),
                "test": side(result.test),
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
