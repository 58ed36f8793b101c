"""Spans around the calls into each sfns module, recorded from outside `src/`.

A hook replaces a function at the name its callers look up at call time: a
method on its class, or a module attribute in the calling module. `hci`
imported `build_sparse_index`, `sparse_query_vector`, `doc_vector` and the
trigram helpers by name, and `retrieval` imported `encode_query` and
`encode_doc`, so those are hooked in the importing module too; wrapping
only the defining module would miss every call made through the copy.

Spans (name, start, end, parent, query id) are kept in memory and written
out once, after the traced run.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager

from sfns import _binio, encoder, evaluation, hci, index, mining, retrieval, tokenizer

# (owner, attribute, span name). A name "caller>layer.function" marks a call
# made through the caller module's own import of the function.
HOOKS = [
    (evaluation, "synth_corpus", "evaluation.synth_corpus"),
    (tokenizer, "train_unigram", "tokenizer.train_unigram"),
    (tokenizer.TokenizerModel, "segment", "tokenizer.segment"),
    (retrieval, "encode_query", "sparse.encode_query"),
    (index, "build", "index.build"),
    (index.InvertedIndex, "search", "index.search"),
    (index.InvertedIndex, "save", "index.save"),
    (index.InvertedIndex, "load", "index.load"),
    (_binio, "crc32c", "_binio.crc32c"),
    (retrieval, "sparse_retrieve", "retrieval.sparse_retrieve"),
    (retrieval, "doc_vector", "retrieval.doc_vector"),
    (retrieval, "build_sparse_index", "retrieval.build_sparse_index"),
    (retrieval, "encode_doc", "encoder.encode_doc"),
    (encoder, "encode_doc", "encoder.encode_doc"),
    (encoder, "train", "encoder.train"),
    (mining, "mine_positive_pairs", "mining.mine_positive_pairs"),
    (mining, "mine_hard_negatives", "mining.mine_hard_negatives"),
    (hci, "build_trigram_index", "baselines.build_trigram_index"),
    (hci, "trigram_retrieve", "baselines.trigram_retrieve"),
    (hci, "build_sparse_index", "hci>retrieval.build_sparse_index"),
    (hci, "sparse_query_vector", "hci>retrieval.sparse_query_vector"),
    (hci, "doc_vector", "hci>retrieval.doc_vector"),
    (hci, "hci_score", "hci.hci_score"),
    (hci, "write_back", "hci.write_back"),
    (hci, "run_replay", "hci.run_replay"),
]

# Searches keep their (index, query) arguments for the postings count.
KEEP_ARGS = {"index.search"}


class Tracer:
    """Spans as parallel lists of names, start and end times, parent span
    and query id. Plain ints and interned strings are not tracked by the
    garbage collector, so hundreds of thousands of spans stay cheap."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.queries: list[int] = []
        self.args: dict[int, tuple] = {}
        self.query_id = -1
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        names, starts, ends, parents, queries = (
            self.names, self.starts, self.ends, self.parents, self.queries)
        stack, kept, clock = self._stack, self.args, time.perf_counter_ns
        keep = name in KEEP_ARGS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            queries.append(self.query_id)
            starts.append(0)
            ends.append(0)
            if keep:
                kept[i] = args
            stack.append(i)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[i] = start
                ends[i] = end

        return traced

    @contextmanager
    def installed(self):
        """Patch every hook for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name in HOOKS:
                original = inspect.getattr_static(owner, attr)
                if isinstance(original, classmethod):
                    patched = classmethod(self.wrap(original.__func__, name))
                else:
                    patched = self.wrap(original, name)
                saved.append((owner, attr, original))
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def durations(self) -> list[int]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[int]:
        """Each span's duration minus its direct children's; children never
        overlap because the program is single-threaded."""
        out = self.durations()
        for dur, parent in zip(self.durations(), self.parents):
            if parent >= 0:
                out[parent] -= dur
        return out

    def summary(self) -> dict[str, dict]:
        """Per layer function: calls, inclusive and self nanoseconds."""
        out: dict[str, dict] = {}
        for name, dur, own in zip(self.names, self.durations(), self.self_times()):
            row = out.setdefault(layer_name(name), {"calls": 0, "incl_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["incl_ns"] += dur
            row["self_ns"] += own
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tquery\n")
            rows = zip(self.names, self.starts, self.ends, self.parents, self.queries)
            for i, (name, start, end, parent, query) in enumerate(rows):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{query}\n")


def layer_name(span_name: str) -> str:
    return span_name.rpartition(">")[2]
