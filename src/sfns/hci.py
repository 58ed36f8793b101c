"""Feedback-loop replay over a behavior log.

Stored (query variant, entity, engagement share) entries act as an associative
cache. Each epoch answers queries through an exact-match channel over the
stored variants plus one configurable fuzzy channel, ranks entities by
Score(E) = sum over variants Q' of P(Q'|Q) * P(E|Q'), validates the top
results against the log, and writes validated pairs back so the next epoch's
exact channel covers them. Entries only ever accumulate, which is what makes
per-epoch recall monotone and guarantees a fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .baselines import FuzzyConfig, build_trigram_index, trigram_retrieve
from .encoder import EncoderParams
from .mining import BehaviorLog
from .retrieval import make_retriever

# perfbench/tracing.py hooks these names on this module, so they stay
# importable from here until the benchmark retargets its hooks.
from .retrieval import build_sparse_index, doc_vector, sparse_query_vector  # noqa: F401
from .sparse import ValidationError, normalize_text
from .tokenizer import TokenizerModel

CHANNEL_KINDS = ("trigram", "sparse", "fuzzy", "oracle", "never")


@dataclass(frozen=True)
class HciEntry:
    """One stored query-variant -> entity association with P(E|Q')."""

    query: str
    entity: str
    share: float

    def __post_init__(self):
        if not self.query:
            raise ValidationError("entry query must be non-empty")
        if not (math.isfinite(self.share) and 0.0 <= self.share <= 1.0):
            raise ValidationError(f"share must be in [0, 1], got {self.share}")


@dataclass(frozen=True)
class EpochState:
    epoch: int
    hci_entries: frozenset[HciEntry]
    recall_so_far: float = 0.0


def entry_table(entries: Iterable[HciEntry]) -> dict[str, dict[str, float]]:
    """Variant text -> {entity: share}, keeping the max share per pair."""
    table: dict[str, dict[str, float]] = {}
    for en in entries:
        row = table.setdefault(en.query, {})
        if en.share > row.get(en.entity, -1.0):
            row[en.entity] = en.share
    return table


def write_back(
    state: EpochState, validated: Iterable[tuple[str, str, float]]
) -> EpochState:
    """Union the validated pairs into the state; never removes or lowers.

    A pair already present keeps the larger share. Raises if any query's
    shares would sum past 1 (shares are fractions of one query's engagement).
    """
    best: dict[tuple[str, str], float] = {
        (en.query, en.entity): en.share for en in state.hci_entries
    }
    for q, entity, share in validated:
        q = normalize_text(q)
        probe = HciEntry(q, entity, share)  # runs the field validation
        key = (probe.query, probe.entity)
        if probe.share > best.get(key, -1.0):
            best[key] = probe.share
    sums: dict[str, float] = {}
    for (q, _), s in best.items():
        sums[q] = sums.get(q, 0.0) + s
    for q, total in sums.items():
        if total > 1.0 + 1e-6:
            raise ValidationError(f"entity shares for {q!r} sum to {total:.6f} > 1")
    entries = frozenset(HciEntry(q, e, s) for (q, e), s in best.items())
    return EpochState(state.epoch, entries, state.recall_so_far)


def hci_score(
    query: str,
    variant_sims: Mapping[str, float],
    table: Mapping[str, Mapping[str, float]],
    direct: Mapping[str, float] | None = None,
) -> list[tuple[str, float]]:
    """Rank entities by sum of P(Q'|Q) * P(E|Q'); ties break on entity id."""
    scores: dict[str, float] = {}
    for variant, sim in variant_sims.items():
        if sim <= 0.0:
            continue
        for entity, share in table.get(variant, {}).items():
            if share > 0.0:
                scores[entity] = scores.get(entity, 0.0) + sim * share
    for entity, s in (direct or {}).items():
        scores[entity] = scores.get(entity, 0.0) + s
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


@dataclass
class ChannelConfig:
    """Which fuzzy channel augments exact matching from epoch 1 onward.

    "oracle" (always returns the true entity) and "never" (returns nothing)
    are diagnostic channels for bounding behavior. Sparse needs a tokenizer;
    encoder params are optional on top of it.
    """

    kind: str
    tokenizer: TokenizerModel | None = None
    encoder_params: EncoderParams | None = None
    fuzzy: FuzzyConfig = field(default_factory=FuzzyConfig)

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ValidationError(
                f"channel kind must be one of {CHANNEL_KINDS}, got {self.kind!r}"
            )
        if self.kind == "sparse" and self.tokenizer is None:
            raise ValidationError("sparse channel requires a tokenizer")


def _channel_sims_factory(
    channel: ChannelConfig, variants: Sequence[str]
) -> Callable[[str, int], dict[str, float]]:
    """Build this epoch's snapshot; returns sims(query, top) over variants.

    Similarities are retrieval scores divided by the query's self-match score
    (its score against its own encoding), clamped to [0, 1].
    """
    if channel.kind in ("oracle", "never") or not variants:
        return lambda q, top: {}
    retriever = make_retriever(
        channel.kind,
        ((t, t) for t in variants),
        tokenizer=channel.tokenizer,
        params=channel.encoder_params,
        fuzzy=channel.fuzzy,
    )

    def sims(q: str, top: int) -> dict[str, float]:
        hits, ceiling = retriever.search_with_ceiling(q, top)
        return {h.doc_id: min(max(h.score / ceiling, 0.0), 1.0) for h in hits}

    return sims


@dataclass(frozen=True)
class EpochReport:
    epoch: int
    recall: float
    new_entries: int
    evaluated: int


@dataclass
class ReplayReport:
    epochs: list[EpochReport]
    fixed_point_epoch: int | None
    cold_start_recall: float
    final_recall: float

    def to_dict(self) -> dict:
        return {
            "epochs": [
                {
                    "epoch": e.epoch,
                    "recall": e.recall,
                    "new_entries": e.new_entries,
                    "evaluated": e.evaluated,
                }
                for e in self.epochs
            ],
            "fixed_point_epoch": self.fixed_point_epoch,
            "cold_start_recall": self.cold_start_recall,
            "final_recall": self.final_recall,
        }


def run_replay(
    log: BehaviorLog,
    catalog: Iterable[tuple[str, str]],
    channel: ChannelConfig,
    *,
    epochs: int,
    k_eval: int = 25,
    fuzzy_top: int = 10,
    min_engagements: int = 1,
    replay_all_each_epoch: bool = False,
) -> ReplayReport:
    """Replay the loop for up to `epochs` epochs past the cold start.

    Epoch 0 answers queries with trigram matching over the catalog only (no
    stored entries exist yet) and already writes validated pairs back. Later
    epochs answer via exact + configured channel over the stored entries.
    By default the log's days are replayed cumulatively (epoch e sees days
    0..e); replay_all_each_epoch evaluates the full query set every epoch.
    Stops once an epoch (past 0) adds nothing new and every day is covered.
    """
    if epochs < 1:
        raise ValidationError(f"epochs must be >= 1, got {epochs}")
    if k_eval < 1 or fuzzy_top < 1:
        raise ValidationError("k_eval and fuzzy_top must be >= 1")
    truth = {
        q: ents
        for q, ents in log.entities_by_query(min_engagements).items()
        if ents
    }
    shares = log.engagement_shares()
    all_queries = [q for q in log.queries() if q in truth]
    days = log.days()
    first_day: dict = {}
    for r in log:
        if r.query not in first_day or r.day < first_day[r.query]:
            first_day[r.query] = r.day

    def eval_queries(epoch: int) -> list[str]:
        if replay_all_each_epoch or not days:
            return all_queries
        cutoff = days[min(epoch, len(days) - 1)]
        return [q for q in all_queries if first_day[q] <= cutoff]

    catalog_index = build_trigram_index(catalog)
    state = EpochState(0, frozenset())
    reports: list[EpochReport] = []
    fixed_point: int | None = None

    for epoch in range(0, epochs + 1):
        evaluated = eval_queries(epoch)
        if epoch == 0:
            ranked = {
                q: [h.doc_id for h in trigram_retrieve(catalog_index, q, k_eval)]
                for q in evaluated
            }
        else:
            table = entry_table(state.hci_entries)
            sims_fn = _channel_sims_factory(channel, sorted(table))
            ranked = {}
            for q in evaluated:
                sims = sims_fn(q, fuzzy_top)
                if q in table:
                    sims[q] = 1.0
                direct = (
                    {e: 1.0 for e in truth[q]} if channel.kind == "oracle" else None
                )
                ranked[q] = [e for e, _ in hci_score(q, sims, table, direct)[:k_eval]]

        if evaluated:
            recall = sum(
                len(set(ranked[q]) & truth[q]) / len(truth[q]) for q in evaluated
            ) / len(evaluated)
        else:
            recall = 0.0
        validated = [
            (q, e, shares[q][e])
            for q in evaluated
            for e in sorted(set(ranked[q]) & truth[q])
        ]
        before = {(en.query, en.entity) for en in state.hci_entries}
        state = write_back(state, validated)
        new_entries = sum(
            1 for en in state.hci_entries if (en.query, en.entity) not in before
        )
        reports.append(EpochReport(epoch, recall, new_entries, len(evaluated)))
        state = EpochState(epoch, state.hci_entries, recall)
        days_covered = min(epoch + 1, len(days)) if days else 0
        all_days_seen = replay_all_each_epoch or days_covered >= len(days)
        if epoch >= 1 and new_entries == 0 and all_days_seen:
            fixed_point = epoch
            break

    return ReplayReport(
        epochs=reports,
        fixed_point_epoch=fixed_point,
        cold_start_recall=reports[0].recall,
        final_recall=reports[-1].recall,
    )
