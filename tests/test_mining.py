import random
import string
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfns.mining import (
    BehaviorLog,
    LogRecord,
    MinedPair,
    MiningError,
    SplitInfeasibleError,
    TrainTriple,
    connected_components,
    edit_threshold,
    load_pairs,
    load_triples,
    mine_hard_negatives,
    mine_positive_pairs,
    pair_passes,
    save_pairs,
    save_triples,
    split_by_components,
)
from sfns.sparse import ValidationError

from _oracles import levenshtein_matrix as levenshtein

D = date(2026, 1, 5)


def _rec(q, e, n=5, day=D):
    return LogRecord(q, e, n, day)


# -- edit distance ------------------------------------------------------------


def test_levenshtein_worked_examples():
    assert levenshtein("tayler", "taylor") == 1
    assert levenshtein("sonideroaczino", "sonidero aczino") == 1
    assert levenshtein("radha kawach", "radha kavach") == 1
    assert levenshtein("pink", "p!nk") == 1
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("", "abc") == 3


def test_edit_threshold_floor_and_scaling():
    assert edit_threshold(3) == 1
    assert edit_threshold(9) == 1
    assert edit_threshold(10) == 1
    assert edit_threshold(20) == 2
    assert edit_threshold(35) == 3


# -- pair gates ---------------------------------------------------------------


def test_pair_passes_worked_examples():
    assert pair_passes("tayler swift", "taylor swift")  # ratio 12/12, 1 edit
    assert pair_passes("radha kawach", "radha kavach")
    assert pair_passes("sonideroaczino", "sonidero aczino")  # ratio 14/15
    # Incidental extension: ratio 12/18 = 0.667 fails the 0.8 gate.
    assert not pair_passes("taylor swift", "taylor swift songs")
    # Identical strings are not a pair.
    assert not pair_passes("pink", "pink")
    # Within ratio but over the edit budget.
    assert not pair_passes("abcdefghij", "jihgfedcba")


def test_pair_passes_counts_spaces_and_accepts_ratio_exactly_point_eight():
    # 4 vs 5 chars including the space: ratio 0.8 exactly, one edit, accepted.
    # Stripping spaces would give 3/4 = 0.75 and wrongly reject it.
    assert pair_passes("dj x", "dj xy")
    # One char shorter on the left: 3/5 = 0.6 fails the ratio gate.
    assert not pair_passes("djx", "dj xy")


def test_pair_passes_is_symmetric():
    rng = random.Random(2)
    for _ in range(100):
        a = "".join(rng.choice("abc ") for _ in range(rng.randint(1, 12)))
        b = "".join(rng.choice("abc ") for _ in range(rng.randint(1, 12)))
        assert pair_passes(a, b) == pair_passes(b, a)


@st.composite
def _query_pairs(draw):
    """A random pair, or a query and a copy with up to four random edits."""
    alphabet = "abcde !"
    a = draw(st.text(alphabet=alphabet, max_size=30))
    if draw(st.booleans()):
        return a, draw(st.text(alphabet=alphabet, max_size=30))
    b = list(a)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(b)))
        ch = draw(st.sampled_from(alphabet))
        op = draw(st.sampled_from(("insert", "delete", "substitute")))
        if op == "insert":
            b.insert(i, ch)
        elif i < len(b):
            if op == "delete":
                del b[i]
            else:
                b[i] = ch
    return a, "".join(b)


@given(_query_pairs())
@settings(max_examples=300, deadline=None)
def test_pair_passes_matches_the_oracle_rule(pair):
    a, b = pair
    shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
    want = (
        a != b
        and len(longer) > 0
        and len(shorter) / len(longer) >= 0.8
        and levenshtein(a, b) <= edit_threshold(len(shorter))
    )
    assert pair_passes(a, b) is want


# -- positive mining ----------------------------------------------------------


def test_mine_positive_pairs_basic():
    log = BehaviorLog(
        [
            _rec("tayler swift", "ent:taylor"),
            _rec("taylor swift", "ent:taylor"),
            _rec("taylor swift songs", "ent:taylor"),
            _rec("drake", "ent:drake"),
        ]
    )
    pairs = mine_positive_pairs(log)
    got = {(p.q, p.q_pos) for p in pairs}
    # Both orientations of the one passing pair; the extension is gated out.
    assert got == {("tayler swift", "taylor swift"), ("taylor swift", "tayler swift")}
    assert all(p.shared_entities == frozenset({"ent:taylor"}) for p in pairs)


def test_mine_positive_pairs_requires_shared_entity():
    log = BehaviorLog(
        [_rec("tayler swift", "ent:a"), _rec("taylor swift", "ent:b")]
    )
    assert mine_positive_pairs(log) == []


def test_mine_positive_pairs_unions_entities_across_groups():
    log = BehaviorLog(
        [
            _rec("pink", "ent:pink"),
            _rec("p!nk", "ent:pink"),
            _rec("pink", "ent:album"),
            _rec("p!nk", "ent:album"),
        ]
    )
    pairs = mine_positive_pairs(log)
    assert len(pairs) == 2  # one unordered pair, two orientations
    assert pairs[0].shared_entities == frozenset({"ent:pink", "ent:album"})


def test_mine_positive_pairs_min_engagements_gate():
    log = BehaviorLog(
        [_rec("pink", "ent:p", n=1), _rec("p!nk", "ent:p", n=9)]
    )
    assert len(mine_positive_pairs(log, min_engagements=1)) == 2
    assert mine_positive_pairs(log, min_engagements=2) == []


def test_mine_positive_pairs_normalizes_queries():
    log = BehaviorLog([_rec("PINK", "ent:p"), _rec("pïnk", "ent:p")])
    pairs = mine_positive_pairs(log)
    assert {(p.q, p.q_pos) for p in pairs} == {("pink", "pïnk"), ("pïnk", "pink")}


# -- hard negatives -----------------------------------------------------------


def _neg_log():
    return BehaviorLog(
        [
            _rec("tayler swift", "ent:taylor"),
            _rec("taylor swift", "ent:taylor"),
            _rec("taylor lautner", "ent:lautner"),
            _rec("tay dizm", "ent:dizm"),
        ]
    )


def test_mine_hard_negatives_excludes_entity_sharers():
    log = _neg_log()
    pairs = [MinedPair("tayler swift", "taylor swift", frozenset({"ent:taylor"}))]

    def retriever(q):
        return ["taylor swift", "taylor lautner", "tay dizm", "tayler swift"]

    result = mine_hard_negatives(pairs, retriever, log, n=5)
    assert result.starved == 0
    (triple,) = result.triples
    # The anchor and positive are skipped; entity-sharers are skipped.
    assert triple.negatives == ("taylor lautner", "tay dizm")


def test_mine_hard_negatives_caps_at_n_and_counts_starved():
    log = _neg_log()
    pairs = [
        MinedPair("tayler swift", "taylor swift", frozenset({"ent:taylor"})),
        MinedPair("taylor swift", "tayler swift", frozenset({"ent:taylor"})),
    ]
    capped = mine_hard_negatives(pairs, lambda q: ["taylor lautner", "tay dizm"], log, n=1)
    assert all(len(t.negatives) == 1 for t in capped.triples)
    starving = mine_hard_negatives(pairs, lambda q: ["taylor swift", "tayler swift"], log, n=2)
    assert starving.starved == 2
    assert all(t.negatives == () for t in starving.triples)


def test_mine_hard_negatives_wraps_retriever_failures():
    def broken(q):
        raise RuntimeError("index offline")

    pairs = [MinedPair("a", "b", frozenset())]
    with pytest.raises(MiningError, match="index offline"):
        mine_hard_negatives(pairs, broken, BehaviorLog([]), n=2)
    with pytest.raises(ValidationError):
        mine_hard_negatives(pairs, lambda q: [], BehaviorLog([]), n=-1)


def test_mine_hard_negatives_n_zero_never_starves():
    pairs = [MinedPair("a", "b", frozenset())]
    result = mine_hard_negatives(pairs, lambda q: [], BehaviorLog([]), n=0)
    assert result.starved == 0
    assert result.triples == [TrainTriple("a", "b", ())]


# -- components and splitting -------------------------------------------------


def test_connected_components_worked_example():
    log = BehaviorLog(
        [
            _rec("pink", "ent:pink"),
            _rec("p!nk", "ent:pink"),
            _rec("p!nk", "ent:album"),
            _rec("drake", "ent:drake"),
        ]
    )
    comps = connected_components(log)
    assert len(comps) == 2
    assert comps[0].queries == frozenset({"drake"})
    assert comps[1].queries == frozenset({"pink", "p!nk"})
    assert comps[1].entities == frozenset({"ent:pink", "ent:album"})
    assert [c.component_id for c in comps] == [0, 1]


def test_split_has_no_query_or_entity_leakage():
    rng = random.Random(7)
    records = []
    for i in range(60):
        base = "".join(rng.choice(string.ascii_lowercase) for _ in range(6))
        records.append(_rec(base, f"ent:{i}"))
        records.append(_rec(base + "x", f"ent:{i}"))
    log = BehaviorLog(records)
    result = split_by_components(log, test_fraction=0.3, seed=1)
    assert result.train_queries and result.test_queries
    assert not (result.train_queries & result.test_queries)
    assert not (result.train_entities & result.test_entities)
    # Nothing dropped: the split covers every component's queries.
    assert result.train_queries | result.test_queries == set(log.queries())


def test_split_is_deterministic_per_seed():
    records = [_rec(f"query {i}", f"ent:{i}") for i in range(30)]
    log = BehaviorLog(records)
    a = split_by_components(log, 0.25, seed=3)
    b = split_by_components(log, 0.25, seed=3)
    assert a.test_queries == b.test_queries
    c = split_by_components(log, 0.25, seed=4)
    assert a.test_queries != c.test_queries  # 30 components, astronomically unlikely


def test_split_infeasible_when_one_component_dominates():
    # A 5-query star plus one singleton: train would need <= 0.5 * 6 = 3
    # queries, but the star alone has 5.
    records = [_rec(f"q{i}", "ent:star") for i in range(5)] + [_rec("solo", "ent:solo")]
    with pytest.raises(SplitInfeasibleError, match="largest component"):
        split_by_components(BehaviorLog(records), test_fraction=0.5, seed=0)


def test_split_validates_inputs():
    log = BehaviorLog([_rec("a", "e")])
    with pytest.raises(ValidationError):
        split_by_components(log, 0.0, seed=0)
    with pytest.raises(ValidationError):
        split_by_components(log, 1.0, seed=0)
    with pytest.raises(ValidationError):
        split_by_components(BehaviorLog([]), 0.3, seed=0)


# -- log plumbing -------------------------------------------------------------


def test_engagement_shares():
    log = BehaviorLog(
        [
            _rec("pink", "ent:pink", n=6),
            _rec("pink", "ent:album", n=2),
            _rec("pink", "ent:pink", n=2),
            _rec("ghost", "ent:g", n=0),
        ]
    )
    shares = log.engagement_shares()
    assert shares["pink"] == {"ent:pink": 0.8, "ent:album": 0.2}
    assert "ghost" not in shares  # zero engagement total carries no signal


def test_log_jsonl_round_trip(tmp_path):
    log = BehaviorLog(
        [_rec("pink", "ent:p", n=3), _rec("tayler swift", "ent:t", n=7, day=date(2026, 1, 8))]
    )
    p = tmp_path / "log.jsonl"
    log.to_jsonl(str(p))
    back = BehaviorLog.from_jsonl(str(p))
    assert back.records == log.records
    assert back.days() == [D, date(2026, 1, 8)]


def test_log_jsonl_rejects_bad_rows(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"q": "a", "e": "x", "n": 1, "day": "2026-01-05"}\n{"q": "b"}\n')
    with pytest.raises(ValidationError, match=":2:"):
        BehaviorLog.from_jsonl(str(p))


def test_pairs_and_triples_round_trip(tmp_path):
    pairs = [MinedPair("a", "b", frozenset({"e1", "e2"})), MinedPair("b", "a", frozenset({"e1"}))]
    pp = tmp_path / "pairs.jsonl"
    save_pairs(pairs, str(pp))
    assert load_pairs(str(pp)) == pairs

    triples = [TrainTriple("a", "b", ("x", "y")), TrainTriple("b", "a", ())]
    tp = tmp_path / "triples.jsonl"
    save_triples(triples, str(tp))
    assert load_triples(str(tp)) == triples

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"q": "a"}\n')  # no positive
    with pytest.raises(ValidationError, match=":1:"):
        load_pairs(str(bad))
    with pytest.raises(ValidationError, match=":1:"):
        load_triples(str(bad))
