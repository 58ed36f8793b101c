from datetime import date

import pytest

from sfns.encoder import init_params
from sfns.hci import (
    CHANNEL_KINDS,
    ChannelConfig,
    EpochState,
    HciEntry,
    _channel_sims_factory,
    entry_table,
    hci_score,
    run_replay,
    write_back,
)
from sfns.mining import BehaviorLog, LogRecord
from sfns.sparse import ValidationError
from sfns.tokenizer import TokenizerModel, train_unigram

D = date(2026, 1, 5)


def _rec(q, e, n=10, day=D):
    return LogRecord(q, e, n, day)


# -- entries and scoring ------------------------------------------------------


def test_hci_entry_validation():
    HciEntry("pink", "ent:p", 0.0)
    HciEntry("pink", "ent:p", 1.0)
    with pytest.raises(ValidationError):
        HciEntry("", "ent:p", 0.5)
    with pytest.raises(ValidationError):
        HciEntry("pink", "ent:p", 1.5)
    with pytest.raises(ValidationError):
        HciEntry("pink", "ent:p", float("nan"))


def test_entry_table_keeps_max_share_per_pair():
    table = entry_table(
        [
            HciEntry("pink", "ent:p", 0.4),
            HciEntry("pink", "ent:p", 0.7),
            HciEntry("pink", "ent:q", 0.3),
            HciEntry("p!nk", "ent:p", 1.0),
        ]
    )
    assert table == {"pink": {"ent:p": 0.7, "ent:q": 0.3}, "p!nk": {"ent:p": 1.0}}


def test_hci_score_worked_example():
    # Two stored variants reachable from the query: one at sim 0.8 with an
    # ambiguous entity split, one at sim 0.2 fully committed. The blended
    # entity score is 0.8 * 0.5 + 0.2 * 1.0 = 0.6.
    table = {
        "q1": {"e1": 0.5, "e2": 0.5},
        "q2": {"e1": 1.0},
    }
    sims = {"q1": 0.8, "q2": 0.2}
    ranked = hci_score("q", sims, table)
    assert ranked[0] == ("e1", pytest.approx(0.6))
    assert ranked[1] == ("e2", pytest.approx(0.4))


def test_hci_score_ignores_nonpositive_mass_and_ties_on_entity():
    table = {"a": {"e2": 0.5, "e1": 0.5}, "b": {"e9": 1.0}}
    ranked = hci_score("q", {"a": 1.0, "b": 0.0}, table)
    assert ranked == [("e1", 0.5), ("e2", 0.5)]  # tie broken by entity id


def test_hci_score_direct_contributions_add_in():
    ranked = hci_score("q", {}, {}, direct={"e1": 1.0})
    assert ranked == [("e1", 1.0)]


# -- write-back ---------------------------------------------------------------


def test_write_back_is_add_only_and_idempotent():
    s0 = EpochState(0, frozenset())
    s1 = write_back(s0, [("pink", "ent:p", 0.6)])
    assert entry_table(s1.hci_entries) == {"pink": {"ent:p": 0.6}}
    # Re-validating the same pair (or a lower share) changes nothing.
    s2 = write_back(s1, [("pink", "ent:p", 0.6), ("pink", "ent:p", 0.4)])
    assert s2.hci_entries == s1.hci_entries
    # A higher share upgrades in place.
    s3 = write_back(s2, [("PINK", "ent:p", 0.9)])  # normalization folds case
    assert entry_table(s3.hci_entries) == {"pink": {"ent:p": 0.9}}


def test_write_back_rejects_shares_summing_past_one():
    s0 = write_back(EpochState(0, frozenset()), [("pink", "ent:a", 0.7)])
    with pytest.raises(ValidationError, match="sum"):
        write_back(s0, [("pink", "ent:b", 0.5)])


def test_write_back_validates_each_entry():
    with pytest.raises(ValidationError):
        write_back(EpochState(0, frozenset()), [("pink", "ent:p", -0.1)])


# -- replay -------------------------------------------------------------------


def _two_day_setup():
    """Catalog with one trigram-friendly name and one short-word name.

    The short name "dj ek" has no trigrams, so the epoch-0 cold start can
    never validate it; only a later-epoch channel can close that gap.
    """
    catalog = [("ent:tay", "taylor swift"), ("ent:dj", "dj ek")]
    log = BehaviorLog(
        [
            _rec("taylor swift", "ent:tay", day=D),
            _rec("dj ek", "ent:dj", day=date(2026, 1, 6)),
        ]
    )
    return catalog, log


def test_replay_oracle_reaches_fixed_point_at_two():
    catalog, log = _two_day_setup()
    report = run_replay(
        log,
        catalog,
        ChannelConfig(kind="oracle"),
        epochs=15,
        replay_all_each_epoch=True,
    )
    # Cold start resolves only the trigram-visible query.
    assert report.cold_start_recall == pytest.approx(0.5)
    # Epoch 1: the oracle channel validates the short-word query too.
    assert report.epochs[1].recall == pytest.approx(1.0)
    assert report.epochs[1].new_entries == 1
    # Epoch 2 adds nothing new: the loop has converged.
    assert report.fixed_point_epoch == 2
    assert report.epochs[2].new_entries == 0
    assert report.final_recall == pytest.approx(1.0)


def test_replay_never_channel_is_pinned_to_the_cold_start():
    catalog, log = _two_day_setup()
    report = run_replay(
        log,
        catalog,
        ChannelConfig(kind="never"),
        epochs=15,
        replay_all_each_epoch=True,
    )
    # Exact matches over written-back entries keep cold-start coverage, and
    # nothing else ever arrives.
    assert report.fixed_point_epoch is not None
    for e in report.epochs[1:]:
        assert e.recall == pytest.approx(report.cold_start_recall)
    assert report.epochs[-1].new_entries == 0


def test_replay_recall_is_monotone_for_every_channel_kind():
    catalog, log = _two_day_setup()
    model = train_unigram([t for _, t in catalog], vocab_size=40)
    for kind in CHANNEL_KINDS:
        channel = ChannelConfig(kind=kind, tokenizer=model if kind == "sparse" else None)
        report = run_replay(
            log, catalog, channel, epochs=15, replay_all_each_epoch=True
        )
        recalls = [e.recall for e in report.epochs]
        assert recalls == sorted(recalls), kind
        assert report.fixed_point_epoch is not None, kind
        assert report.fixed_point_epoch <= 15, kind


def test_sparse_channel_segments_each_query_once(monkeypatch):
    variants = ["taylor swift", "tayler swift", "dj ek", "pink"]
    model = train_unigram(variants, vocab_size=40)
    queries = ["taylor swift", "taylr swfit", "dj ek", "zzz", ""]
    for params in (None, init_params(model.vocab_size, 4, seed=2)):
        sims = _channel_sims_factory(
            ChannelConfig(kind="sparse", tokenizer=model, encoder_params=params), variants
        )
        calls = []
        segment = TokenizerModel.segment

        def counting(self, text):
            calls.append(text)
            return segment(self, text)

        monkeypatch.setattr(TokenizerModel, "segment", counting)
        for q in queries:
            sims(q, 3)
        monkeypatch.undo()
        assert calls == queries, params


def test_replay_fuzzy_channel_recovers_typod_variants():
    # The log's typo'd variant engages the same entity; after epoch 0 stores
    # the exact pair, the fuzzy channel lets the misspelling reach it.
    catalog = [("ent:tay", "taylor swift")]
    log = BehaviorLog(
        [
            _rec("taylor swift", "ent:tay", n=20, day=D),
            _rec("tayler swift", "ent:tay", n=5, day=date(2026, 1, 6)),
        ]
    )
    report = run_replay(
        log, catalog, ChannelConfig(kind="fuzzy"), epochs=15, replay_all_each_epoch=True
    )
    assert report.final_recall == pytest.approx(1.0)
    assert report.fixed_point_epoch is not None


def test_replay_day_sliced_mode_reveals_queries_gradually():
    catalog, log = _two_day_setup()
    report = run_replay(log, catalog, ChannelConfig(kind="oracle"), epochs=15)
    assert report.epochs[0].evaluated == 1  # only day one's query
    assert report.epochs[1].evaluated == 2
    assert report.final_recall == pytest.approx(1.0)


def test_replay_exact_channel_closes_the_loop_without_fuzzy():
    # Once epoch 0 validates a pair, the exact channel alone must keep
    # answering that query in later epochs (sim 1.0 on itself).
    catalog = [("ent:tay", "taylor swift")]
    log = BehaviorLog([_rec("taylor swift", "ent:tay")])
    report = run_replay(
        log, catalog, ChannelConfig(kind="never"), epochs=15, replay_all_each_epoch=True
    )
    assert report.cold_start_recall == pytest.approx(1.0)
    assert all(e.recall == pytest.approx(1.0) for e in report.epochs)
    assert report.fixed_point_epoch == 1


def test_replay_validates_arguments():
    catalog, log = _two_day_setup()
    with pytest.raises(ValidationError):
        run_replay(log, catalog, ChannelConfig(kind="oracle"), epochs=0)
    with pytest.raises(ValidationError):
        run_replay(log, catalog, ChannelConfig(kind="oracle"), epochs=2, k_eval=0)
    with pytest.raises(ValidationError):
        run_replay(log, catalog, ChannelConfig(kind="oracle"), epochs=2, fuzzy_top=0)
    with pytest.raises(ValidationError):
        ChannelConfig(kind="mystery")
    with pytest.raises(ValidationError):
        ChannelConfig(kind="sparse")  # tokenizer required


def test_replay_min_engagements_filters_truth():
    catalog = [("ent:a", "taylor swift")]
    log = BehaviorLog(
        [
            _rec("taylor swift", "ent:a", n=10),
            _rec("taylor swift", "ent:noise", n=1),
        ]
    )
    strict = run_replay(
        log,
        catalog,
        ChannelConfig(kind="oracle"),
        epochs=3,
        min_engagements=5,
        replay_all_each_epoch=True,
    )
    assert strict.final_recall == pytest.approx(1.0)  # noise entity dropped from truth
