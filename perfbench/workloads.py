"""One benchmark workload in one process: run it, check it, print one JSON line.

Started by run.py with the thread count and hash seed pinned; see README.md
for what each workload runs and why.

    python3 perfbench/workloads.py --workload serve-large --seed 1 --seconds 6 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import sfns  # noqa: E402

if not Path(sfns.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"sfns imported from {sfns.__file__}, not from this checkout")

from sfns import encoder, evaluation, hci, index, mining, retrieval, tokenizer  # noqa: E402
from sfns.sparse import SparseVector, VocabStats  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer, layer_name  # noqa: E402

K = 10
VOCAB = 400
MAX_PIECE = 3
QUERIES_PER_ENTITY = 4
WARMUP_QUERIES = 100
CHECKED_QUERIES = 200
CHECKED_WORDS = 200
MAX_CHECKED_WORD = 16
REPLAY_EPOCHS = 30
ROUNDS = 4  # each round: loads, a share of the query stream, one replay
MIN_ROUNDS = 3
CATEGORIES = (
    "canonical",
    "short_word",
    "misspelling",
    "character_variation",
    "transposition",
    "incidental",
)


@dataclass(frozen=True)
class Workload:
    name: str
    entities: int
    tokenizer_sample: int | None  # catalog names the tokenizer trains on; None = all
    learned: bool  # mine, train the encoder and serve learned expansions
    per_category: int  # stream queries per query category
    replay_entities: int  # entities in each round's replay slice (their log and docs)
    setup_repeats: int
    loads_per_round: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("serve-large", 50_000, 1000, False, 170, 120, 2, 1),
        Workload("learn-offline", 2000, None, True, 400, 120, 5, 1),
        Workload("replay-daily", 1000, None, False, 400, 250, 5, 3),
    )
}


@dataclass
class Inputs:
    corpus: object
    stream: list[str]
    tokenizer_texts: list[str]
    replays: list[tuple[object, list[tuple[str, str]]]]  # (log, catalog) per round


def make_inputs(wl: Workload, seed: int, rounds: int) -> Inputs:
    corpus = evaluation.synth_corpus(seed, wl.entities, QUERIES_PER_ENTITY)
    rng = random.Random(seed)
    by_category: dict[str, list[str]] = {c: [] for c in CATEGORIES}
    for q in corpus.queries:
        by_category[q.category].append(q.text)
    stream = []
    for c in CATEGORIES:
        pool = by_category[c]
        stream.extend(rng.sample(pool, min(wl.per_category, len(pool))))
    rng.shuffle(stream)
    names = [text for _, text in corpus.docs]
    if wl.tokenizer_sample is not None:
        names = rng.sample(names, wl.tokenizer_sample)
    # A different slice of entities each round: replay work and replay_recall
    # then add up over several logs instead of hanging on one log's epoch count.
    chosen = rng.sample([d for d, _ in corpus.docs], wl.replay_entities * rounds)
    round_of = {e: i // wl.replay_entities for i, e in enumerate(chosen)}
    records: list[list] = [[] for _ in range(rounds)]
    for r in corpus.log:
        if r.entity in round_of:
            records[round_of[r.entity]].append(r)
    catalogs: list[list] = [[] for _ in range(rounds)]
    for d in corpus.docs:
        if d[0] in round_of:
            catalogs[round_of[d[0]]].append(d)
    replays = [(mining.BehaviorLog(recs), cat) for recs, cat in zip(records, catalogs)]
    return Inputs(corpus, stream, names, replays)


@dataclass
class Trained:
    model: object
    params: object = None
    history: list | None = None
    pairs: int = 0
    starved: int = 0


def learn(wl: Workload, inputs: Inputs, seed: int) -> Trained:
    model = tokenizer.train_unigram(inputs.tokenizer_texts, VOCAB, MAX_PIECE)
    if not wl.learned:
        return Trained(model)
    log = inputs.corpus.log
    pairs = mining.mine_positive_pairs(log)
    qindex = retrieval.build_sparse_index(model, [(q, q) for q in log.queries()])

    def first_pass(query: str) -> list[str]:
        return [h.doc_id for h in retrieval.sparse_retrieve(qindex, model, query, 50)]

    mined = mining.mine_hard_negatives(pairs, first_pass, log, 4)
    dataset = encoder.prepare_dataset(model, mined.triples)
    stats = VocabStats.from_token_sets(
        set(tokenizer.retrieval_tokens(model, text)) for _, text in inputs.corpus.docs
    )
    params, history = encoder.train(
        encoder.init_params(model.vocab_size, 16, seed),
        dataset,
        stats,
        encoder.TrainConfig(seed=seed),
    )
    return Trained(model, params, history, len(pairs), mined.starved)


class Stream:
    """Closed loop, one client: each query starts when the previous returns.

    The stream is served in chunks between other phases. A chunk serves whole
    rounds of the query set, at least one, until its time is up; the last
    chunk also runs on until MIN_ROUNDS rounds are done in all. Every query
    thus has several latency samples, and its latency is their median, which
    keeps short stalls of the host out of the percentiles.
    """

    def __init__(self, queries: list[str], tracer=None):
        self.queries = queries
        self.tracer = tracer
        self.rounds = 0
        self.warmups = 0
        self.latencies_ns: list[int] = []
        self.first_round: dict[str, list] = {}

    def serve(self, idx, model, seconds: float | None = None, rounds: int | None = None, last=False):
        """Serve for `seconds`, or until `rounds` rounds in total have been served."""
        queries, n = self.queries, len(self.queries)
        for q in queries[:WARMUP_QUERIES]:
            retrieval.sparse_retrieve(idx, model, q, K)
        self.warmups += min(WARMUP_QUERIES, n)
        clock = time.perf_counter_ns
        latencies, tracer = self.latencies_ns, self.tracer
        deadline = None if seconds is None else clock() + int(seconds * 1e9)
        t0 = clock()
        while True:
            first = self.rounds == 0
            for i, q in enumerate(queries):
                if tracer is not None:
                    tracer.query_id = self.rounds * n + i
                hits = retrieval.sparse_retrieve(idx, model, q, K)
                t1 = clock()
                latencies.append(t1 - t0)
                t0 = t1
                if first:
                    self.first_round[q] = hits
            self.rounds += 1
            if rounds is not None:
                if self.rounds >= rounds:
                    break
            elif t0 >= deadline and (self.rounds >= MIN_ROUNDS or not last):
                break
        if tracer is not None:
            tracer.query_id = -1

    def per_query_us(self) -> np.ndarray:
        """Each query's median latency over the rounds, in microseconds."""
        lat = np.asarray(self.latencies_ns, dtype=np.float64).reshape(self.rounds, -1)
        return np.median(lat, axis=0) / 1e3

    def qps(self) -> float:
        """Queries completed per second of stream time."""
        return len(self.latencies_ns) / (sum(self.latencies_ns) / 1e9)


@contextmanager
def observed_write_back():
    writes = checks.WriteBackLog()
    original = hci.write_back
    hci.write_back = writes.wrap(original)
    try:
        yield writes
    finally:
        hci.write_back = original


def replay(log, catalog, trained: Trained):
    channel = hci.ChannelConfig("sparse", tokenizer=trained.model, encoder_params=trained.params)
    with observed_write_back() as writes:
        report = hci.run_replay(log, catalog, channel, epochs=REPLAY_EPOCHS)
    return report, writes


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


class PhaseTimer:
    """Times phases. With a tracer, each phase runs twice back to back,
    untraced and traced, and the difference adds to `overhead_s`; pairing
    them keeps the host's slow speed drift out of the difference, and
    alternating which goes first cancels the second run's warmer start."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.overhead_s = 0.0
        self._pairs = 0

    def run(self, fn):
        if self.tracer is None:
            return timed(fn)
        self._pairs += 1
        if self._pairs % 2:
            plain_s = timed(fn)[0]  # its output is dropped before the traced run
        with self.tracer.installed():
            traced_s, out = timed(fn)
        if not self._pairs % 2:
            plain_s = timed(fn)[0]
        self.overhead_s += traced_s - plain_s
        return traced_s, out

    def serve(self, stream: Stream, idx, model, seconds, last) -> None:
        """A stream chunk; the traced one serves as many rounds as the plain one did."""
        if self.tracer is None:
            stream.serve(idx, model, seconds, last=last)
            return
        plain = Stream(stream.queries)
        plain_s = timed(lambda: plain.serve(idx, model, seconds, last=True))[0]
        with self.tracer.installed():
            traced_s = timed(lambda: stream.serve(idx, model, rounds=plain.rounds))[0]
        self.overhead_s += traced_s - plain_s


@dataclass
class Pass:
    """Everything one pass over the workload produced, with phase timings."""

    setup_s: list[float]
    train_s: float
    build_s: float
    load_s: list[float]
    replay_s: list[float]
    inputs: Inputs
    trained: Trained
    built: object
    loaded: object
    index_bytes: int
    stream: Stream
    replays: list
    peak_rss_mb: float  # read before any check runs


def run_pass(wl: Workload, seed: int, workdir: Path, seconds: float, timer: PhaseTimer) -> Pass:
    """Set up, learn, build and save; then rounds of load, serve, replay.

    The stream runs for `seconds` in all, split over the rounds. A traced
    run makes every phase once.
    """
    once = timer.tracer is not None
    rounds = 1 if once else ROUNDS
    setup_s = []
    for _ in range(1 if once else wl.setup_repeats):
        inputs = None  # let the previous corpus go before building the next
        dt, inputs = timer.run(lambda: make_inputs(wl, seed, rounds))
        setup_s.append(dt)

    tok_path, idx_path = str(workdir / "tokenizer.tsv"), str(workdir / "catalog.idx")

    def build_and_save():
        built = retrieval.build_sparse_index(trained.model, inputs.corpus.docs, trained.params)
        trained.model.save(tok_path)
        built.save(idx_path)
        return built

    def load():
        return tokenizer.TokenizerModel.load(tok_path), index.InvertedIndex.load(idx_path)

    train_s, trained = timer.run(lambda: learn(wl, inputs, seed))
    build_s, built = timer.run(build_and_save)
    stream = Stream(inputs.stream, timer.tracer)
    load_s, replay_s, replays = [], [], []
    for r in range(rounds):
        for _ in range(1 if once else wl.loads_per_round):
            loaded = loaded_model = None
            dt, (loaded_model, loaded) = timer.run(load)
            load_s.append(dt)
        timer.serve(stream, loaded, loaded_model, seconds / rounds, last=r == rounds - 1)
        dt, out = timer.run(lambda: replay(*inputs.replays[r], trained))
        replay_s.append(dt)
        replays.append(out)

    index_bytes = os.path.getsize(idx_path)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return Pass(setup_s, train_s, build_s, load_s, replay_s, inputs, trained, built,
                loaded, index_bytes, stream, replays, peak_rss_mb)


class Tally:
    """Operations attempted and failed, with the names of failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ops(self, n: int) -> None:
        self.attempted += n

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def check_pass(wl: Workload, p: Pass, seed: int, tally: Tally) -> dict:
    """Independent checks on one pass; returns data the trace metrics reuse."""
    model, rng = p.trained.model, random.Random(seed + 1)
    tally.check(checks.tokenizer_meets_budget(model, VOCAB, MAX_PIECE), "tokenizer budget")
    # The exhaustive search grows like 1.8^len; joined words past 16 characters are skipped.
    words = sorted({w for q in p.inputs.stream for w in q.split(" ") if 0 < len(w) <= MAX_CHECKED_WORD})
    for word in rng.sample(words, min(CHECKED_WORDS, len(words))):
        tally.check(checks.segmentation_is_optimal(model, word), f"segmentation of {word!r}")
    if wl.learned:
        tally.check(checks.encoder_trained(p.trained.params, p.trained.history), "encoder training")
    tally.check(checks.same_index(p.built, p.loaded), "loaded index equals built index")
    for report, writes in p.replays:
        tally.check(checks.replay_converged(report, writes), "replay fixed point")

    docs = p.inputs.corpus.docs
    vectors = []
    for _, text in docs:
        tokens = sorted({t for t in model.segment(text) if t >= 0})
        if p.trained.params is None or not tokens:
            vectors.append(SparseVector((t, 1.0) for t in tokens))
        else:
            vectors.append(encoder.encode_doc(p.trained.params, tokens))
    scorer = checks.BruteForceScorer([d for d, _ in docs], vectors, model.vocab_size)
    answered = list(p.stream.first_round)
    candidates = hits = 0
    for q in rng.sample(answered, min(CHECKED_QUERIES, len(answered))):
        tokens = [t for t in model.segment(q) if t >= 0]
        served = p.stream.first_round[q]
        tally.check(scorer.check(tokens, served, K), f"served top-{K} for {q!r}")
        candidates += scorer.candidates(tokens)
        hits += len(served)
    return {"candidates": candidates, "hits": hits, "checked": min(CHECKED_QUERIES, len(answered))}


def count_pass_ops(p: Pass, tally: Tally, paired: bool) -> None:
    """Timed operations of the pass; a traced run made each of them twice."""
    phases = len(p.setup_s) + 2 + len(p.load_s) + len(p.replays)  # 2: train, build
    tally.ops((phases + p.stream.warmups + len(p.stream.latencies_ns)) * (2 if paired else 1))


def end_to_end(p: Pass) -> dict:
    p50, p99 = np.percentile(p.stream.per_query_us(), [50, 99])
    ranked = {q: [h.doc_id for h in hits] for q, hits in p.stream.first_round.items()}
    qrels = p.inputs.corpus.qrels
    return {
        "setup_s": (statistics.median(p.setup_s), "s"),
        "train_s": (p.train_s, "s"),
        "build_s": (p.build_s, "s"),
        "load_s": (statistics.median(p.load_s), "s"),
        "index_bytes": (p.index_bytes, "bytes"),
        "query_p50_us": (float(p50), "us"),
        "query_p99_us": (float(p99), "us"),
        "qps": (p.stream.qps(), "1/s"),
        "recall_at_10": (checks.recall_at_10(ranked, qrels), "ratio"),
        "replay_s": (sum(p.replay_s), "s"),
        "replay_recall": (statistics.fmean(report.final_recall for report, _ in p.replays), "ratio"),
        "peak_rss_mb": (p.peak_rss_mb, "MB"),
    }


QUERY_ROOTS = ("retrieval.sparse_retrieve", "hci>retrieval.sparse_query_vector")
QUERY_WORK = QUERY_ROOTS + ("hci>retrieval.doc_vector",)


def per_layer(p: Pass, tracer: Tracer, checked: dict, overhead_s: float) -> dict:
    rows = tracer.summary()

    def row(name):
        return rows.get(name, {"calls": 0, "incl_ns": 0, "self_ns": 0})

    def total_s(name, kind="self_ns"):
        return row(name)[kind] / 1e9

    def per_call_us(name, kind="self_ns"):
        r = row(name)
        return r[kind] / r["calls"] / 1e3 if r["calls"] else 0.0

    names, parents = tracer.names, tracer.parents
    queries = sum(1 for name in names if name in QUERY_ROOTS)
    query_segments = 0
    for i, name in enumerate(names):
        if name == "tokenizer.segment":
            parent = parents[i]
            while parent >= 0 and names[parent] not in QUERY_WORK:
                parent = parents[parent]
            query_segments += parent >= 0
    postings = sum(
        sum(len(idx.postings[t][0]) for t in query.ids.tolist() if t in idx.postings)
        for idx, query, *_ in tracer.args.values()
    )
    searches = len(tracer.args)
    channel_build_ns = sum(
        dur for name, dur in zip(names, tracer.durations())
        if name == "hci>retrieval.build_sparse_index"
    )

    lengths = np.array([len(ids) for ids, _ in p.loaded.postings.values()])
    p50_len, p99_len = np.percentile(lengths, [50, 99])
    steps = len(p.trained.history or [])
    return {
        "evaluation.synth_s": (total_s("evaluation.synth_corpus", "incl_ns"), "s"),
        "tokenizer.train_s": (total_s("tokenizer.train_unigram", "incl_ns"), "s"),
        "tokenizer.pieces": (p.trained.model.vocab_size, "count"),
        "tokenizer.segment_us": (per_call_us("tokenizer.segment"), "us"),
        "tokenizer.segments_per_query": (query_segments / queries if queries else 0.0, "count"),
        "sparse.encode_query_us": (per_call_us("sparse.encode_query"), "us"),
        "index.search_us": (per_call_us("index.search"), "us"),
        "index.search_calls": (row("index.search")["calls"], "count"),
        "index.postings_per_search": (postings / searches if searches else 0.0, "count"),
        "index.candidates_per_search": (checked["candidates"] / checked["checked"], "count"),
        "index.hits_per_candidate": (checked["hits"] / max(1, checked["candidates"]), "ratio"),
        "index.build_s": (total_s("index.build"), "s"),
        "index.save_s": (total_s("index.save"), "s"),
        "index.load_s": (total_s("index.load"), "s"),
        "index.tokens": (p.loaded.token_count, "count"),
        "index.posting_len_p50": (float(p50_len), "count"),
        "index.posting_len_p99": (float(p99_len), "count"),
        "binio.crc_s": (total_s("_binio.crc32c"), "s"),
        "retrieval.doc_vector_us": (per_call_us("retrieval.doc_vector"), "us"),
        "retrieval.build_sparse_index_s": (total_s("retrieval.build_sparse_index"), "s"),
        "encoder.train_s": (total_s("encoder.train", "incl_ns"), "s"),
        "encoder.step_ms": (total_s("encoder.train", "incl_ns") * 1e3 / steps if steps else 0.0, "ms"),
        "encoder.encode_doc_us": (per_call_us("encoder.encode_doc"), "us"),
        "encoder.avg_nonzero_dims": (p.loaded.avg_nonzero_dims, "count"),
        "mining.pairs_s": (total_s("mining.mine_positive_pairs", "incl_ns"), "s"),
        "mining.negatives_s": (total_s("mining.mine_hard_negatives", "incl_ns"), "s"),
        "mining.pairs": (p.trained.pairs, "count"),
        "mining.starved": (p.trained.starved, "count"),
        "baselines.trigram_build_s": (total_s("baselines.build_trigram_index", "incl_ns"), "s"),
        "baselines.trigram_query_us": (per_call_us("baselines.trigram_retrieve", "incl_ns"), "us"),
        "hci.epochs": (len(p.replays[0][0].epochs), "count"),
        "hci.channel_build_s": (channel_build_ns / 1e9, "s"),
        "hci.score_us": (per_call_us("hci.hci_score"), "us"),
        "hci.write_back_s": (total_s("hci.write_back"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def query_breakdown(tracer: Tracer) -> dict[str, float]:
    """Share of traced stream query time spent in each layer's own code."""
    rows: dict[str, int] = {}
    total = 0
    spans = zip(tracer.names, tracer.parents, tracer.queries, tracer.durations(), tracer.self_times())
    for name, parent, query, dur, own in spans:
        if query < 0:
            continue
        if parent < 0:
            total += dur  # the query's root span, retrieval.sparse_retrieve
        rows[layer_name(name)] = rows.get(layer_name(name), 0) + own
    return {name: ns / total for name, ns in sorted(rows.items())} if total else {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    out_dir = Path(__file__).resolve().parent / "out"
    workdir = out_dir / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        tracer = Tracer() if args.trace else None
        timer = PhaseTimer(tracer)
        p = run_pass(wl, args.seed, workdir, args.seconds, timer)
        count_pass_ops(p, tally, paired=tracer is not None)
        checked = check_pass(wl, p, args.seed, tally)
        if tracer is None:
            metrics = end_to_end(p)
        else:
            metrics = per_layer(p, tracer, checked, timer.overhead_s)
            stem = out_dir / f"trace-{wl.name}-seed{args.seed}"
            tracer.write(f"{stem}.tsv")
            with open(f"{stem}.json", "w", encoding="utf-8") as fh:
                json.dump({"layers": tracer.summary(), "query_share": query_breakdown(tracer)}, fh, indent=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for what in tally.failures:
        print(f"FAILED CHECK: {what}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{wl.name:14} {name:32} {value:14.6g} {unit}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
