import json
import random

import pytest

from sfns.evaluation import (
    TYPO_OPS,
    SynthQuery,
    TypoSpec,
    hit_ids,
    load_docs,
    load_qrels,
    load_queries,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
    run_benchmark,
    synth_corpus,
    write_corpus_dir,
)
from sfns.index import SearchHit
from sfns.sparse import ValidationError

from _oracles import dcg


# -- metrics ------------------------------------------------------------------


def test_metric_worked_example():
    ranked = ["e2", "e1"]
    rel = {"e1"}
    assert recall_at_k(ranked, rel, 1) == 0.0
    assert recall_at_k(ranked, rel, 2) == 1.0
    assert precision_at_k(ranked, rel, 2) == 0.5
    # Gain at rank 2 discounted by log2(3), ideal at rank 1.
    assert ndcg_at_k(ranked, rel, 2) == pytest.approx(0.6309297535714575, abs=1e-15)


def test_perfect_ranking_scores_one_everywhere():
    ranked = ["e1", "e2", "e3"]
    rel = {"e1", "e2", "e3"}
    for k in (1, 2, 3, 10):
        assert ndcg_at_k(ranked, rel, k) == pytest.approx(1.0)
        assert precision_at_k(ranked, rel, k) == 1.0
    assert recall_at_k(ranked, rel, 3) == 1.0


def test_ndcg_matches_dcg_oracle_on_random_rankings():
    rng = random.Random(5)
    for _ in range(100):
        ids = [f"d{i}" for i in range(rng.randint(1, 12))]
        rng.shuffle(ids)
        rel = {d for d in ids if rng.random() < 0.4} or {ids[0]}
        k = rng.randint(1, 12)
        ideal = dcg(sorted(rel, key=lambda d: 0), rel, min(k, len(rel)))
        assert ndcg_at_k(ids, rel, k) == pytest.approx(dcg(ids, rel, k) / ideal)


def test_precision_uses_returned_prefix_not_k():
    # Two hits for k=10: denominators follow what actually came back.
    assert precision_at_k(["e1", "e9"], {"e1"}, 10) == 0.5
    assert precision_at_k([], {"e1"}, 10) == 0.0


def test_metric_validation():
    with pytest.raises(ValidationError):
        recall_at_k(["a"], {"a"}, 0)
    with pytest.raises(ValidationError):
        recall_at_k(["a"], set(), 3)
    with pytest.raises(ValidationError):
        ndcg_at_k(["a"], set(), 3)
    with pytest.raises(ValidationError):
        precision_at_k(["a"], {"a"}, -1)


def test_hit_ids_unwraps_search_hits_and_passes_strings():
    hits = [SearchHit("d1", 2.0, 1), SearchHit("d0", 1.0, 2)]
    assert hit_ids(hits) == ["d1", "d0"]
    assert hit_ids(["a", "b"]) == ["a", "b"]


# -- benchmark harness --------------------------------------------------------


def test_run_benchmark_with_oracle_retriever():
    qrels = {f"q{i}": {f"e{i}"} for i in range(10)}

    def oracle(q, k):
        return [f"e{q[1:]}"]

    report = run_benchmark(list(qrels) + ["unlabeled"], qrels, oracle, ks=[1, 5])
    assert report.evaluated == 10
    assert report.skipped == 1
    for k in (1, 5):
        assert report.metrics[k]["recall"] == 1.0
        assert report.metrics[k]["ndcg"] == 1.0
    d = report.to_dict()
    assert set(d["metrics"]) == {"1", "5"}
    json.dumps(d)  # envelope-safe


def test_run_benchmark_validates_ks():
    with pytest.raises(ValidationError):
        run_benchmark(["q"], {"q": {"e"}}, lambda q, k: [], ks=[])
    with pytest.raises(ValidationError):
        run_benchmark(["q"], {"q": {"e"}}, lambda q, k: [], ks=[0])


def test_run_benchmark_empty_retriever_scores_zero():
    report = run_benchmark(["q"], {"q": {"e"}}, lambda q, k: [], ks=[3])
    assert report.metrics[3] == {"recall": 0.0, "precision": 0.0, "ndcg": 0.0}


# -- typo spec ----------------------------------------------------------------


def test_typo_ops_catalog():
    assert set(TYPO_OPS) == {
        "substitute",
        "transpose-adjacent-chars",
        "delete",
        "insert",
        "split-word",
        "join-words",
        "swap-word-order",
    }


def test_typo_spec_defaults_are_valid_and_frozen():
    spec = TypoSpec()
    assert sum(spec.ops.values()) == pytest.approx(1.0)
    assert sum(spec.edits_per_query.values()) == pytest.approx(1.0)


def test_typo_spec_validation():
    with pytest.raises(ValidationError):
        TypoSpec(ops={"substitute": 0.5, "mystery-op": 0.5})
    with pytest.raises(ValidationError):
        TypoSpec(ops={"substitute": 0.5})  # does not sum to 1
    with pytest.raises(ValidationError):
        TypoSpec(ops={"substitute": 1.5, "delete": -0.5})
    with pytest.raises(ValidationError):
        TypoSpec(edits_per_query={0: 1.0})
    with pytest.raises(ValidationError):
        TypoSpec(edits_per_query={1: 0.5})


# -- synthetic corpus ---------------------------------------------------------


def test_synth_corpus_is_byte_deterministic(tmp_path):
    def written(seed: int, name: str) -> dict[str, bytes]:
        out = tmp_path / name
        write_corpus_dir(synth_corpus(seed=seed, n_entities=40, queries_per_entity=4), str(out))
        return {p.name: p.read_bytes() for p in out.iterdir()}

    a = written(42, "a")
    assert set(a) == {"docs.jsonl", "queries.jsonl", "qrels.jsonl", "log.jsonl"}
    assert written(42, "b") == a
    assert written(43, "c") != a


def test_synth_corpus_covers_all_categories():
    corpus = synth_corpus(seed=1, n_entities=60, queries_per_entity=5)
    cats = {q.category for q in corpus.queries}
    assert {
        "canonical",
        "misspelling",
        "character_variation",
        "transposition",
        "incidental",
        "short_word",
    } <= cats


def test_synth_corpus_sizes_and_short_fraction():
    corpus = synth_corpus(seed=7, n_entities=50, queries_per_entity=4)
    assert len(corpus.docs) == 50
    short_docs = [d for d in corpus.docs if all(len(w) < 3 for w in d[1].split(" "))]
    assert len(short_docs) == round(50 * 0.12)
    # Every short-word doc name has exactly two sub-3-char words.
    for _, name in short_docs:
        words = name.split(" ")
        assert len(words) == 2 and all(1 <= len(w) <= 2 for w in words)


def test_synth_corpus_qrels_and_log_are_consistent():
    corpus = synth_corpus(seed=3, n_entities=30, queries_per_entity=4)
    doc_ids = {d[0] for d in corpus.docs}
    texts = set()
    for q in corpus.queries:
        assert q.entity_id in doc_ids
        assert corpus.qrels[q.text] == {q.entity_id}
        assert q.text not in texts, "query strings are globally unique"
        texts.add(q.text)
    # One log record per query, engagements in the configured band.
    assert len(corpus.log) == len(corpus.queries)
    for r in corpus.log:
        assert 4 <= r.engagements <= 40
    assert len(corpus.log.days()) == 7


def test_synth_corpus_variants_stay_tied_to_their_entity():
    corpus = synth_corpus(seed=9, n_entities=40, queries_per_entity=4)
    canon = dict(corpus.docs)
    for q in corpus.queries:
        if q.category in ("canonical", "short_word"):
            assert q.text == canon[q.entity_id]
        else:
            assert q.text != canon[q.entity_id]


def test_synth_corpus_character_variation_uses_symbol_map():
    corpus = synth_corpus(seed=5, n_entities=60, queries_per_entity=5)
    symbol_chars = set("@3!0$1+")
    variation = [q for q in corpus.queries if q.category == "character_variation"]
    assert variation
    with_symbol = [q for q in variation if set(q.text) & symbol_chars]
    # The fallback substitution only fires for names with no mappable char,
    # which the syllable generator cannot produce (every vowel is mappable).
    assert len(with_symbol) == len(variation)


def test_synth_corpus_transpositions_swap_word_order():
    corpus = synth_corpus(seed=11, n_entities=60, queries_per_entity=4)
    canon = dict(corpus.docs)
    trans = [q for q in corpus.queries if q.category == "transposition"]
    assert trans
    pure_swaps = 0
    for q in trans:
        words = q.text.split(" ")
        canon_words = canon[q.entity_id].split(" ")
        assert q.text != canon[q.entity_id]
        if sorted(words) == sorted(canon_words):
            # Pure swap (the short-entity variant): order must differ.
            assert words != canon_words
            pure_swaps += 1
    assert pure_swaps >= 1  # the short-word entities contribute these


def test_synth_corpus_validation():
    with pytest.raises(ValidationError):
        synth_corpus(seed=0, n_entities=0, queries_per_entity=3)
    with pytest.raises(ValidationError):
        synth_corpus(seed=0, n_entities=5, queries_per_entity=0)
    with pytest.raises(ValidationError):
        synth_corpus(seed=0, n_entities=5, queries_per_entity=2, days=0)


def test_write_corpus_dir_round_trips(tmp_path):
    corpus = synth_corpus(seed=2, n_entities=20, queries_per_entity=3)
    out = tmp_path / "corpus"
    write_corpus_dir(corpus, str(out))
    docs = [json.loads(l) for l in (out / "docs.jsonl").read_text().splitlines()]
    assert [(d["id"], d["text"]) for d in docs] == corpus.docs
    queries = [json.loads(l) for l in (out / "queries.jsonl").read_text().splitlines()]
    assert [SynthQuery(r["q"], r["entity"], r["category"]) for r in queries] == corpus.queries
    qrels = load_qrels(str(out / "qrels.jsonl"))
    assert qrels == corpus.qrels
    from sfns.mining import BehaviorLog

    assert BehaviorLog.from_jsonl(str(out / "log.jsonl")).records == corpus.log.records


def test_docs_and_queries_round_trip(tmp_path):
    corpus = synth_corpus(seed=2, n_entities=20, queries_per_entity=3)
    write_corpus_dir(corpus, str(tmp_path))
    assert load_docs(str(tmp_path / "docs.jsonl")) == [(i, t, None) for i, t in corpus.docs]
    assert load_queries(str(tmp_path / "queries.jsonl")) == [q.text for q in corpus.queries]
    # A payload that is not a string is kept as its sorted-key JSON.
    p = tmp_path / "payload.jsonl"
    p.write_text('{"id": 7, "text": "a", "payload": {"b": 1, "a": [2]}}\n')
    assert load_docs(str(p)) == [("7", "a", '{"a": [2], "b": 1}')]
    p.write_text("\n")
    with pytest.raises(ValidationError, match="no documents"):
        load_docs(str(p))


def test_load_qrels_rejects_bad_rows(tmp_path):
    p = tmp_path / "qrels.jsonl"
    p.write_text('{"q": "a", "docs": []}\n')
    with pytest.raises(ValidationError, match=":1:"):
        load_qrels(str(p))
    p.write_text('{"q": "a"}\n')
    with pytest.raises(ValidationError, match=":1:"):
        load_qrels(str(p))
