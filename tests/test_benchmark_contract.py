"""The surface perfbench reads: `postings`, `stats` and served hits for
perfbench/checks.py, and every function perfbench/tracing.py hooks. A
refactor that drops or reshapes them, or a call that skips a hook, fails
here, not only in a benchmark run."""

import importlib.util
import inspect
import random
from pathlib import Path

from sfns.evaluation import synth_corpus
from sfns.index import InvertedIndex
from sfns.retrieval import build_sparse_index, sparse_retrieve
from sfns.sparse import SparseVector
from sfns.tokenizer import train_unigram

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_by_path(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load_by_path("checks")
tracing = _load_by_path("tracing")


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


def test_every_trace_hook_resolves():
    for owner, attr, _ in tracing.HOOKS:
        inspect.getattr_static(owner, attr)  # AttributeError names the missing hook


def test_save_and_load_each_record_a_crc_span(tmp_path):
    """`binio.crc_s` sums the `_binio.crc32c` spans; the checksum must go
    through the hooked module global on both paths."""
    _, _, built = _plain_setup()
    path = str(tmp_path / "traced.idx")
    with tracing.Tracer().installed() as tracer:
        built.save(path)
        InvertedIndex.load(path)
    crc_parents = [
        tracer.names[parent]
        for name, parent in zip(tracer.names, tracer.parents)
        if name == "_binio.crc32c"
    ]
    assert crc_parents == ["index.save", "index.load"]
