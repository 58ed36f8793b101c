"""End-to-end acceptance checks for the whole package.

Each test computes its criterion from scratch, prints a single
"ACCEPTANCE n PASS/FAIL" line with the measured numbers, and then asserts.
Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear.
These are deliberately heavier than the unit tests; the whole module should
still finish in a couple of minutes.
"""

import math
import random
import string
import time
from datetime import date

import numpy as np

from sfns._binio import ChecksumError
from sfns.baselines import build_trigram_index, trigram_retrieve
from sfns.encoder import (
    BatchItem,
    EncoderParams,
    TokenTriple,
    TrainBatch,
    TrainConfig,
    grad,
    init_params,
    load_params,
    loss,
    mean_nonzero_dims,
    save_params,
    train,
)
from sfns.evaluation import hit_ids, recall_at_k, synth_corpus
from sfns.hci import ChannelConfig, run_replay
from sfns.index import InvertedIndex, build
from sfns.mining import (
    BehaviorLog,
    LogRecord,
    pair_passes,
    split_by_components,
)
from sfns.retrieval import make_retriever
from sfns.sparse import SparseVector, VocabStats
from sfns.tokenizer import TokenizerModel, train_unigram

from _oracles import (
    UNK_SCORE,
    best_segmentation,
    brute_force_search,
    central_fd,
    kink_margin,
    levenshtein_matrix as levenshtein,
)


def _line(n: int, ok: bool, detail: str) -> str:
    msg = f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}"
    print(msg, flush=True)
    return msg


# -- 1: index search is bitwise identical to document-at-a-time scoring --------


def _random_vector(rng: random.Random, vocab: int, max_nnz: int) -> SparseVector:
    nnz = rng.randint(1, min(max_nnz, vocab))
    toks = rng.sample(range(vocab), nnz)
    return SparseVector((t, rng.uniform(0.01, 6.0)) for t in toks)


def test_acceptance_1_search_matches_brute_force():
    rng = random.Random(11)
    start = time.perf_counter()
    corpora = checks = mismatches = 0
    for trial in range(100):
        if trial < 2:  # pin a couple of runs at the size ceiling
            n_docs, vocab = 1000, 500
        elif trial < 20:
            n_docs, vocab = rng.randint(200, 1000), rng.randint(50, 500)
        else:
            n_docs, vocab = rng.randint(1, 200), rng.randint(1, 500)
        docs = [
            (f"doc{d:04d}", f"doc {d}", _random_vector(rng, vocab, 8), None)
            for d in range(n_docs)
        ]
        idx = build(docs)
        for _ in range(3):
            q = _random_vector(rng, vocab, 6)
            for k in (1, 10, 25):
                if idx.search(q, k) != brute_force_search(idx, q, k):
                    mismatches += 1
                checks += 1
        corpora += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and corpora >= 100 and elapsed < 60.0
    msg = _line(
        1,
        ok,
        f"{checks} ranked lists over {corpora} corpora identical to brute force "
        f"({mismatches} mismatches, {elapsed:.1f}s < 60s)",
    )
    assert ok, msg


# -- 2: analytic gradients against central finite differences ------------------


def _token_tuple(rng: np.random.Generator, vocab: int) -> tuple:
    size = int(rng.integers(1, min(3, vocab) + 1))
    return tuple(int(t) for t in rng.choice(vocab, size=size, replace=False))


def _fd_instance(seed: int):
    """Random small training instance resampled until it sits clear of every
    ReLU and argmax kink, so a 1e-4 step cannot cross one."""
    rng = np.random.default_rng(seed)
    v = int(rng.integers(2, 9))
    d = int(rng.integers(1, 5))
    b = int(rng.integers(1, 4))
    if seed == 0:  # make sure the size ceiling itself gets exercised
        v, d, b = 8, 4, 3
    for _ in range(400):
        params = EncoderParams(
            embed=rng.normal(0.0, 0.8, (v, d)),
            proj=rng.normal(0.0, 0.8, (v, d)),
            bias=rng.normal(0.0, 0.3, v),
        )
        items = []
        doc_lists = []
        for _ in range(b):
            q = _token_tuple(rng, v)
            pos = _token_tuple(rng, v)
            negs = tuple(_token_tuple(rng, v) for _ in range(int(rng.integers(0, 3))))
            items.append(BatchItem(q, pos, negs))
            doc_lists += [pos, *negs]
        if kink_margin(params.embed, params.proj, params.bias, doc_lists) > 1e-2:
            stats = VocabStats(12, {t: 4 for t in range(v)})
            return params, TrainBatch(tuple(items), stats)
    raise AssertionError(f"no kink-free instance for seed {seed}")


def test_acceptance_2_gradients_match_finite_differences():
    start = time.perf_counter()
    lam = 1e-2
    worst = 0.0
    instances = 50
    for seed in range(instances):
        params, batch = _fd_instance(seed)
        g = grad(params, batch, lam)
        for name in ("embed", "proj", "bias"):
            arr = getattr(params, name)
            fd = central_fd(lambda: loss(params, batch, lam)[0], arr, step=1e-4)
            got = getattr(g, name)
            denom = np.maximum(np.maximum(np.abs(fd), np.abs(got)), 1e-6)
            worst = max(worst, float((np.abs(got - fd) / denom).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    msg = _line(
        2,
        ok,
        f"max relative gradient error {worst:.2e} < 1e-4 over {instances} "
        f"kink-free instances ({elapsed:.1f}s < 30s)",
    )
    assert ok, msg


# -- 3: segmenter optimality against exhaustive enumeration --------------------


def _random_piece_model(rng: random.Random) -> TokenizerModel:
    alphabet = rng.sample(string.ascii_lowercase, rng.randint(3, 6))
    pieces: dict[str, float] = {}
    for _ in range(rng.randint(6, 30)):
        n = rng.randint(1, 3)
        piece = "".join(rng.choice(alphabet) for _ in range(n))
        pieces[piece] = rng.uniform(-8.0, -0.5)
    # make sure the model is non-empty even if every draw collided
    pieces.setdefault(alphabet[0], -2.0)
    return TokenizerModel(pieces, max_piece_len=3)


def _trained_model(rng: random.Random) -> TokenizerModel:
    alphabet = rng.sample(string.ascii_lowercase, rng.randint(3, 5))
    corpus = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 8)))
        for _ in range(rng.randint(30, 80))
    ]
    return train_unigram(corpus, vocab_size=rng.randint(8, 24), max_piece_len=3)


def test_acceptance_3_segmentation_is_optimal():
    rng = random.Random(33)
    vocabs = words_checked = 0
    for trial in range(20):
        model = _trained_model(rng) if trial % 2 else _random_piece_model(rng)
        vocab = model.pieces()
        assert all(len(p) <= 3 for p in vocab)
        letters = sorted({c for p in vocab for c in p})
        for _ in range(40):
            chars = [rng.choice(letters) for _ in range(rng.randint(1, 8))]
            if rng.random() < 0.2:  # foreign char exercises the unknown arc
                chars[rng.randrange(len(chars))] = "q" if "q" not in letters else "7"
            word = "".join(chars)
            got = model.segment_word(word)
            assert all(len(p) <= 3 for p in got)
            assert "".join(got) == word
            assert all(len(p) == 1 for p in got if p not in vocab)
            # Score equality is the guarantee; among bit-equal totals the
            # lattice's pick can differ from the enumerator's by rounding.
            score = sum(vocab.get(p, UNK_SCORE) for p in got)
            want_score, _, _ = best_segmentation(word, vocab, 3)
            assert score == want_score, (word, got, score, want_score)
            words_checked += 1
        vocabs += 1
    ok = vocabs == 20
    msg = _line(
        3,
        ok,
        f"{words_checked} segmentations across {vocabs} vocabularies matched "
        "the exhaustive-enumeration optimum exactly (all pieces <= 3 chars)",
    )
    assert ok, msg


# -- 4: the sparsity penalty actually sparsifies -------------------------------


def test_acceptance_4_penalty_reduces_active_dimensions():
    rng = np.random.default_rng(7)
    vocab, dim = 24, 6
    triples = []
    for _ in range(50):
        q = tuple(int(t) for t in rng.choice(vocab, size=3, replace=False))
        pos = tuple(int(t) for t in rng.choice(vocab, size=3, replace=False))
        negs = tuple(
            tuple(int(t) for t in rng.choice(vocab, size=3, replace=False))
            for _ in range(2)
        )
        triples.append(TokenTriple(q, pos, negs))
    stats = VocabStats(50, {t: int(rng.integers(2, 40)) for t in range(vocab)})
    doc_lists = [t.pos_tokens for t in triples]
    base = init_params(vocab, dim, seed=3)
    with_reg, _ = train(base, triples, stats, TrainConfig(lambda_reg=1e-2, seed=5))
    without, _ = train(base, triples, stats, TrainConfig(lambda_reg=0.0, seed=5))
    nz_reg = mean_nonzero_dims(with_reg, doc_lists)
    nz_off = mean_nonzero_dims(without, doc_lists)
    ok = nz_reg < nz_off
    msg = _line(
        4,
        ok,
        f"mean active dims {nz_reg:.2f} with penalty 1e-2 vs {nz_off:.2f} "
        "without (same seed and data)",
    )
    assert ok, msg


# -- 5: pair filter worked examples and leakage-free splits --------------------


def _random_log(rng: random.Random, trial: int) -> BehaviorLog:
    records = []
    n_comp = rng.randint(8, 25)
    for c in range(n_comp):
        for j in range(rng.randint(1, 4)):
            records.append(
                LogRecord(
                    query=f"t{trial}c{c}q{j}",
                    entity=f"t{trial}e{c}",
                    engagements=rng.randint(1, 30),
                    day=date(2026, 1, 1 + (j % 7)),
                )
            )
    if n_comp >= 15:
        # a query naming two entities merges their components; the merged
        # size stays <= 8, well under the 0.6 * total feasibility bound
        records.append(
            LogRecord(
                query=f"t{trial}c0q0",
                entity=f"t{trial}e1",
                engagements=rng.randint(1, 30),
                day=date(2026, 1, 2),
            )
        )
    return BehaviorLog(records)


def test_acceptance_5_mining_examples_and_split_hygiene():
    assert levenshtein("tayler", "taylor") == 1
    assert levenshtein("sonideroaczino", "sonidero aczino") == 1
    assert levenshtein("pink", "p!nk") == 1
    for a, b, want in [
        ("tayler swift", "taylor swift", True),
        ("radha kawach", "radha kavach", True),
        ("taylor swift", "taylor swift songs", False),  # 12/18 is too short
        ("dj x", "dj xy", True),  # length ratio exactly at the 0.8 boundary
        ("pink", "pink", False),  # identical strings are not a pair
    ]:
        assert pair_passes(a, b) is want, (a, b)

    rng = random.Random(101)
    splits = 0
    for trial in range(1000):
        log = _random_log(rng, trial)
        res = split_by_components(log, rng.uniform(0.1, 0.4), seed=trial)
        assert not (res.train_queries & res.test_queries)
        assert not (res.train_entities & res.test_entities)
        assert res.train_queries | res.test_queries == {r.query for r in log}
        splits += 1
    ok = splits == 1000
    msg = _line(
        5,
        ok,
        f"pair-filter worked examples exact; {splits} random splits had zero "
        "query or entity overlap between train and test",
    )
    assert ok, msg


# -- 6: retrieval quality on a synthetic typo corpus ---------------------------

TYPO_CATEGORIES = {"misspelling", "character_variation", "transposition", "incidental"}


def _slice_recall(retriever, queries, k: int = 10) -> float:
    total = 0.0
    for q in queries:
        total += recall_at_k(hit_ids(retriever(q.text, k)), {q.entity_id}, k)
    return total / len(queries)


def test_acceptance_6_sparse_beats_trigram_on_typos():
    start = time.perf_counter()
    sc = synth_corpus(seed=20260816, n_entities=520, queries_per_entity=5)
    typod = [q for q in sc.queries if q.category in TYPO_CATEGORIES]
    trans = [q for q in sc.queries if q.category == "transposition"]
    short = [q for q in sc.queries if q.category == "short_word"]

    model = train_unigram([text for _, text in sc.docs], vocab_size=700)
    sparse = make_retriever("sparse", sc.docs, tokenizer=model).search
    tindex = build_trigram_index(sc.docs)

    def trigram(q: str, k: int):
        return trigram_retrieve(tindex, q, k)

    r_sp_all, r_tr_all = _slice_recall(sparse, typod), _slice_recall(trigram, typod)
    r_sp_t, r_tr_t = _slice_recall(sparse, trans), _slice_recall(trigram, trans)
    r_sp_s, r_tr_s = _slice_recall(sparse, short), _slice_recall(trigram, short)
    elapsed = time.perf_counter() - start

    ok = (
        len(sc.docs) >= 500
        and len(typod) >= 2000
        and {q.category for q in typod} == TYPO_CATEGORIES
        and r_sp_all >= r_tr_all
        and r_sp_t > r_tr_t
        and r_sp_s > r_tr_s
        and elapsed < 300.0
    )
    msg = _line(
        6,
        ok,
        f"{len(sc.docs)} entities, {len(typod)} typo queries; recall@10 "
        f"sparse vs trigram: overall {r_sp_all:.3f} >= {r_tr_all:.3f}, "
        f"transposition {r_sp_t:.3f} > {r_tr_t:.3f}, "
        f"short-word {r_sp_s:.3f} > {r_tr_s:.3f} ({elapsed:.0f}s < 300s)",
    )
    assert ok, msg


# -- 7: the write-back loop converges and helps every channel ------------------


def test_acceptance_7_replay_is_monotone_and_converges():
    sc = synth_corpus(seed=77, n_entities=120, queries_per_entity=3)
    tok = train_unigram([text for _, text in sc.docs], vocab_size=300)
    channels = {
        "trigram": ChannelConfig("trigram"),
        "sparse": ChannelConfig("sparse", tokenizer=tok),
        "fuzzy": ChannelConfig("fuzzy"),
        "oracle": ChannelConfig("oracle"),
        "never": ChannelConfig("never"),
    }
    reports = {}
    for name, channel in channels.items():
        rep = run_replay(
            sc.log, sc.docs, channel, epochs=15, replay_all_each_epoch=True
        )
        recalls = [e.recall for e in rep.epochs]
        assert all(b >= a for a, b in zip(recalls, recalls[1:])), (name, recalls)
        assert rep.fixed_point_epoch is not None and rep.fixed_point_epoch <= 15, name
        reports[name] = rep

    cold = reports["trigram"].cold_start_recall
    assert all(r.cold_start_recall == cold for r in reports.values())
    ok = reports["sparse"].final_recall >= reports["trigram"].final_recall >= cold
    msg = _line(
        7,
        ok,
        "recall non-decreasing and fixed point reached for all 5 channels "
        f"(fixed points: "
        f"{ {n: r.fixed_point_epoch for n, r in reports.items()} }); final "
        f"sparse {reports['sparse'].final_recall:.3f} >= trigram "
        f"{reports['trigram'].final_recall:.3f} >= cold start {cold:.3f}",
    )
    assert ok, msg


# -- 8: artifacts survive disk round trips and reject corruption ---------------


def test_acceptance_8_artifacts_round_trip_bit_exact(tmp_path):
    rng = random.Random(5)
    docs = [(f"e{d:03d}", f"name {d}", _random_vector(rng, 60, 7), None) for d in range(40)]
    docs[3] = (*docs[3][:3], "payload survives too")
    idx = build(docs)
    p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
    idx.save(str(p1))
    loaded = InvertedIndex.load(str(p1))
    loaded.save(str(p2))
    index_exact = p1.read_bytes() == p2.read_bytes()

    q = _random_vector(rng, 60, 5)
    search_exact = idx.search(q, 10) == loaded.search(q, 10)

    params = init_params(30, 8, seed=9)
    e1, e2 = tmp_path / "a.enc", tmp_path / "b.enc"
    save_params(params, str(e1))
    save_params(load_params(str(e1)), str(e2))
    params_exact = e1.read_bytes() == e2.read_bytes()

    rejected = 0
    for path in (p1, e1):
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        bad = path.with_suffix(".bad")
        bad.write_bytes(bytes(blob))
        try:
            if path is p1:
                InvertedIndex.load(str(bad))
            else:
                load_params(str(bad))
        except ChecksumError:
            rejected += 1

    ok = index_exact and search_exact and params_exact and rejected == 2
    msg = _line(
        8,
        ok,
        f"index round trip byte-identical={index_exact} (search results "
        f"identical={search_exact}), encoder round trip byte-identical="
        f"{params_exact}, corrupted files rejected {rejected}/2",
    )
    assert ok, msg
