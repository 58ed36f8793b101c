"""The index surface that perfbench/checks.py reads: `postings`, `stats` and
served hits. A refactor that drops or reshapes them fails here, not only in a
benchmark run."""

import importlib.util
import random
from pathlib import Path

from sfns.evaluation import synth_corpus
from sfns.index import InvertedIndex
from sfns.retrieval import build_sparse_index, sparse_retrieve
from sfns.sparse import SparseVector
from sfns.tokenizer import train_unigram

_CHECKS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
_spec = importlib.util.spec_from_file_location("perfbench_checks", _CHECKS_PATH)
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


def _plain_setup():
    corpus = synth_corpus(5, 200, 4)
    model = train_unigram([text for _, text in corpus.docs], vocab_size=120)
    return corpus, model, build_sparse_index(model, corpus.docs)


def test_same_index_accepts_a_save_load_round_trip(tmp_path):
    corpus, model, built = _plain_setup()
    path = str(tmp_path / "plain.idx")
    built.save(path)
    loaded = InvertedIndex.load(path)
    assert checks.same_index(built, built)
    assert checks.same_index(built, loaded)
    assert not checks.same_index(built, build_sparse_index(model, corpus.docs[:-1]))


def test_brute_force_scorer_accepts_served_hits():
    corpus, model, index = _plain_setup()
    vectors = [
        SparseVector((t, 1.0) for t in {t for t in model.segment(text) if t >= 0})
        for _, text in corpus.docs
    ]
    scorer = checks.BruteForceScorer([d for d, _ in corpus.docs], vectors, model.vocab_size)
    queries = random.Random(3).sample([q.text for q in corpus.queries], 60)
    for q in queries:
        tokens = [t for t in model.segment(q) if t >= 0]
        hits = sparse_retrieve(index, model, q, 10)
        assert scorer.check(tokens, hits, 10), q
    # The check is not vacuous: reversed hits fail it.
    hits = sparse_retrieve(index, model, queries[0], 10)
    assert len(hits) > 1
    assert not scorer.check([t for t in model.segment(queries[0]) if t >= 0], hits[::-1], 10)
