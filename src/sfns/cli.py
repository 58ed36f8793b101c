"""Single command-line entry point for every pipeline stage.

Stages communicate through files (TSV tokenizer models, JSONL corpora and
logs, binary index/params blobs) so each one is independently runnable and
cacheable. Reports are JSON envelopes {"meta", "config", "result"}; meta
holds the timestamp, config echoes the resolved flags (seed included), and
result is deterministic for identical argv + identical inputs.

Exit codes: 0 success, 1 validation/usage errors, 2 I/O or corrupt files.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from datetime import datetime, timezone

from . import _jsonl, baselines, evaluation, hci, index as index_mod, mining, retrieval
from ._binio import StorageError
from .encoder import (
    TrainConfig,
    init_params,
    load_external_vectors,
    load_params,
    prepare_dataset,
    save_external_vectors,
    save_params,
    train,
)
from .index import InvertedIndex
from .mining import BehaviorLog
from .sparse import ValidationError, VocabStats, normalize_text
from .tokenizer import TokenizerModel, retrieval_tokens, train_unigram

logger = logging.getLogger("sfns")


# -- shared plumbing ----------------------------------------------------------


def _read_lines(path: str) -> list[str]:
    return [line.rstrip("\n") for _, line in _jsonl.lines(path)]


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"func"}
    out = {}
    for key, value in vars(args).items():
        if key in skip:
            continue
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _emit(args: argparse.Namespace, result: dict, path: str | None = None) -> None:
    """Write the report envelope to `path`, or stdout when no path is given.

    Commands whose --out names a build artifact (model, index, vectors) print
    their report to stdout; only query/report commands route --out here.
    """
    payload = {
        "meta": {"timestamp": datetime.now(timezone.utc).isoformat()},
        "config": _config_dict(args),
        "result": result,
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_ks(raw: str) -> list[int]:
    try:
        ks = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad --k list {raw!r}") from exc
    if not ks:
        raise ValidationError("--k needs at least one cutoff")
    return ks


def _hits_json(hits) -> list[dict]:
    return [{"id": h.doc_id, "score": h.score, "rank": h.rank} for h in hits]


def _add_fuzzy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-edits", type=int, default=1, dest="max_edits")
    p.add_argument("--prefix-lock", type=int, default=0, dest="prefix_lock")


def _fuzzy_config(args) -> baselines.FuzzyConfig:
    return baselines.FuzzyConfig(args.max_edits, args.prefix_lock)


# -- tokenize -----------------------------------------------------------------


def _cmd_tokenize_train(args) -> int:
    corpus = _read_lines(args.input)
    model = train_unigram(
        corpus,
        args.vocab_size,
        args.max_piece_len,
        shrink_factor=args.shrink_factor,
        em_iters=args.em_iters,
    )
    model.save(args.out)
    _emit(
        args,
        {
            "vocab_size": model.vocab_size,
            "max_piece_len": model.max_piece_len,
            "model": args.out,
        },
    )
    return 0


def _cmd_tokenize_apply(args) -> int:
    model = TokenizerModel.load(args.model)
    texts = [args.text] if args.text is not None else _read_lines(args.input)
    segmentations = [
        {"text": t, "pieces": model.segment_pieces(t), "ids": model.segment(t)}
        for t in texts
    ]
    _emit(args, {"segmentations": segmentations}, args.out)
    return 0


# -- encoder ------------------------------------------------------------------


def _doc_stats(model: TokenizerModel, texts) -> VocabStats:
    return VocabStats.from_token_sets(set(retrieval_tokens(model, t)) for t in texts)


def _cmd_encoder_train(args) -> int:
    model = TokenizerModel.load(args.tokenizer)
    triples = mining.load_triples(args.triples)
    dataset = prepare_dataset(model, triples)
    if not dataset:
        raise ValidationError("no usable training triples after tokenization")
    if args.docs:
        stats = _doc_stats(model, [text for _, text, _ in evaluation.load_docs(args.docs)])
    else:
        # No catalog given: treat the positives as the document collection.
        stats = _doc_stats(model, sorted({t.q_pos for t in triples}))
    params = init_params(model.vocab_size, args.dim, args.seed)
    config = TrainConfig(
        lr=args.lr,
        steps=args.steps,
        batch_size=args.batch_size,
        lambda_reg=args.lambda_reg,
        seed=args.seed,
        negatives_per_query=args.negatives,
        momentum=args.momentum,
    )
    params, history = train(params, dataset, stats, config)
    save_params(params, args.out)
    _emit(
        args,
        {
            "params": args.out,
            "triples": len(dataset),
            "steps": len(history),
            "history": history,
        },
    )
    return 0


def _cmd_encoder_encode(args) -> int:
    model = TokenizerModel.load(args.tokenizer)
    params = load_params(args.params)
    docs = evaluation.load_docs(args.input)
    save_external_vectors(
        ((doc_id, retrieval.doc_vector(model, text, params)) for doc_id, text, _ in docs),
        model,
        args.out,
    )
    _emit(args, {"vectors": args.out, "docs": len(docs)})
    return 0


# -- index --------------------------------------------------------------------


def _cmd_index_build(args) -> int:
    model = TokenizerModel.load(args.tokenizer)
    docs = evaluation.load_docs(args.docs)
    if args.vectors:
        doc_ids = {doc_id for doc_id, _, _ in docs}
        by_id = {}
        for doc_id, vec in load_external_vectors(args.vectors, model):
            if doc_id in by_id:
                raise ValidationError(f"doc {doc_id!r} listed twice in {args.vectors}")
            if doc_id not in doc_ids:
                raise ValidationError(f"doc {doc_id!r} in {args.vectors} is not in {args.docs}")
            by_id[doc_id] = vec
        for doc_id, _, _ in docs:
            if doc_id not in by_id:
                raise ValidationError(f"doc {doc_id!r} missing from {args.vectors}")
        vectors = [by_id[doc_id] for doc_id, _, _ in docs]
    else:
        params = load_params(args.params) if args.params else None
        vectors = [retrieval.doc_vector(model, text, params) for _, text, _ in docs]
    index = index_mod.build(
        (doc_id, text, vec, payload) for (doc_id, text, payload), vec in zip(docs, vectors)
    )
    index.save(args.out)
    _emit(
        args,
        {
            "index": args.out,
            "docs": index.doc_count,
            "tokens": index.token_count,
            "postings": index.posting_count,
        },
    )
    return 0


def _cmd_index_stats(args) -> int:
    index = InvertedIndex.load(args.index)
    _emit(
        args,
        {
            "docs": index.doc_count,
            "tokens": index.token_count,
            "postings": index.posting_count,
            "avg_nonzero_dims": index.avg_nonzero_dims,
        },
        args.out,
    )
    return 0


# -- unified search -----------------------------------------------------------


def _cmd_search(args) -> int:
    if args.method == "sparse":
        if not args.index or not args.tokenizer:
            raise ValidationError("--method sparse needs --index and --tokenizer")
        retriever = retrieval.SparseRetriever(
            InvertedIndex.load(args.index), TokenizerModel.load(args.tokenizer)
        )
    elif not args.docs:
        raise ValidationError(f"--method {args.method} needs --docs")
    else:
        docs = evaluation.load_docs(args.docs)
        retriever = retrieval.make_retriever(
            args.method, [(d, t) for d, t, _ in docs], fuzzy=_fuzzy_config(args)
        )
    hits = retriever.search(args.query, args.k)
    _emit(args, {"query": normalize_text(args.query), "hits": _hits_json(hits)}, args.out)
    return 0


# -- mine ---------------------------------------------------------------------


def _cmd_mine_pairs(args) -> int:
    log = BehaviorLog.from_jsonl(args.log)
    pairs = mining.mine_positive_pairs(log, args.min_engagements)
    mining.save_pairs(pairs, args.out)
    _emit(args, {"pairs": len(pairs), "out": args.out})
    return 0


def _cmd_mine_negatives(args) -> int:
    log = BehaviorLog.from_jsonl(args.log)
    pairs = mining.load_pairs(args.pairs)
    model = TokenizerModel.load(args.tokenizer)
    params = load_params(args.params) if args.params else None
    retriever = retrieval.make_retriever(
        "sparse", ((q, q) for q in log.queries()), tokenizer=model, params=params
    )
    pool = max(50, args.negatives * 5)
    result = mining.mine_hard_negatives(
        pairs, lambda q: evaluation.hit_ids(retriever.search(q, pool)), log, args.negatives
    )
    mining.save_triples(result.triples, args.out)
    _emit(
        args,
        {"triples": len(result.triples), "starved": result.starved, "out": args.out},
    )
    return 0


def _cmd_mine_split(args) -> int:
    log = BehaviorLog.from_jsonl(args.log)
    result = mining.split_by_components(log, args.test_fraction, args.seed)
    train_q = result.train_queries
    test_q = result.test_queries
    BehaviorLog([r for r in log if r.query in train_q]).to_jsonl(args.out_train)
    BehaviorLog([r for r in log if r.query in test_q]).to_jsonl(args.out_test)
    if args.manifest:
        mining.save_split_manifest(result, args.manifest)
    _emit(
        args,
        {
            "train_queries": len(train_q),
            "test_queries": len(test_q),
            "train_entities": len(result.train_entities),
            "test_entities": len(result.test_entities),
            "components": len(result.train) + len(result.test),
        },
    )
    return 0


# -- eval ---------------------------------------------------------------------


def _cmd_eval_run(args) -> int:
    docs = evaluation.load_docs(args.docs)
    queries = evaluation.load_queries(args.queries)
    qrels = evaluation.load_qrels(args.qrels)
    retriever = retrieval.make_retriever(
        args.method,
        [(d, t) for d, t, _ in docs],
        tokenizer=TokenizerModel.load(args.tokenizer) if args.tokenizer else None,
        params=load_params(args.params) if args.params else None,
        fuzzy=_fuzzy_config(args),
    )
    ks = _parse_ks(args.k)
    report = evaluation.run_benchmark(queries, qrels, retriever.search, ks)
    _emit(args, report.to_dict(), args.out)
    return 0


# -- gen ----------------------------------------------------------------------


def _cmd_gen_synth(args) -> int:
    corpus = evaluation.synth_corpus(
        args.seed,
        args.entities,
        args.queries_per_entity,
        short_entity_fraction=args.short_fraction,
        days=args.days,
    )
    evaluation.write_corpus_dir(corpus, args.out_dir)
    by_category: dict[str, int] = {}
    for q in corpus.queries:
        by_category[q.category] = by_category.get(q.category, 0) + 1
    _emit(
        args,
        {
            "out_dir": args.out_dir,
            "docs": len(corpus.docs),
            "queries": len(corpus.queries),
            "log_records": len(corpus.log),
            "by_category": dict(sorted(by_category.items())),
        },
        args.out,
    )
    return 0


# -- sim ----------------------------------------------------------------------


def _cmd_sim_replay(args) -> int:
    log = BehaviorLog.from_jsonl(args.log)
    catalog = [(d, t) for d, t, _ in evaluation.load_docs(args.catalog)]
    tokenizer = TokenizerModel.load(args.tokenizer) if args.tokenizer else None
    params = load_params(args.params) if args.params else None
    channel = hci.ChannelConfig(
        kind=args.channel,
        tokenizer=tokenizer,
        encoder_params=params,
        fuzzy=_fuzzy_config(args),
    )
    report = hci.run_replay(
        log,
        catalog,
        channel,
        epochs=args.epochs,
        k_eval=args.k,
        fuzzy_top=args.fuzzy_top,
        min_engagements=args.min_engagements,
        replay_all_each_epoch=args.replay_all_each_epoch,
    )
    _emit(args, report.to_dict(), args.out)
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfns",
        description="Learned sparse retrieval for surface-form-robust matching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # tokenize
    tok = sub.add_parser("tokenize", help="unigram tokenizer").add_subparsers(
        dest="sub", required=True
    )
    p = tok.add_parser("train")
    p.add_argument("--input", required=True, help="text corpus, one document per line")
    p.add_argument("--vocab-size", type=int, required=True, dest="vocab_size")
    p.add_argument("--max-piece-len", type=int, default=3, dest="max_piece_len")
    p.add_argument("--shrink-factor", type=float, default=0.75, dest="shrink_factor")
    p.add_argument("--em-iters", type=int, default=2, dest="em_iters")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_tokenize_train)

    p = tok.add_parser("apply")
    p.add_argument("--model", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--text")
    group.add_argument("--input", help="one text per line")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tokenize_apply)

    # encoder
    enc = sub.add_parser("encoder", help="document expansion model").add_subparsers(
        dest="sub", required=True
    )
    p = enc.add_parser("train")
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--triples", required=True, help="mined training triples JSONL")
    p.add_argument("--docs", help="catalog JSONL for IDF stats (default: positives)")
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--batch-size", type=int, default=8, dest="batch_size")
    p.add_argument("--lambda-reg", type=float, default=1e-2, dest="lambda_reg")
    p.add_argument("--negatives", type=int, default=4)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="parameter blob path")
    p.set_defaults(func=_cmd_encoder_train)

    p = enc.add_parser("encode")
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--input", required=True, help="docs JSONL")
    p.add_argument("--out", required=True, help="vectors JSONL")
    p.set_defaults(func=_cmd_encoder_encode)

    # index
    idx = sub.add_parser("index", help="inverted index").add_subparsers(
        dest="sub", required=True
    )
    p = idx.add_parser("build")
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--docs", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--params", help="encoder params for learned doc expansion")
    group.add_argument("--vectors", help="precomputed vectors JSONL")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_index_build)

    p = idx.add_parser("stats")
    p.add_argument("--index", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_index_stats)

    # search
    p = sub.add_parser("search", help="query any retrieval method")
    p.add_argument("--method", choices=("sparse", "trigram", "fuzzy"), required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--index", help="sparse: index blob")
    p.add_argument("--tokenizer", help="sparse: tokenizer model")
    p.add_argument("--docs", help="trigram/fuzzy: docs JSONL")
    _add_fuzzy_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_search)

    # mine
    mine = sub.add_parser("mine", help="weak supervision from behavior logs").add_subparsers(
        dest="sub", required=True
    )
    p = mine.add_parser("pairs")
    p.add_argument("--log", required=True)
    p.add_argument(
        "--min-engagements", type=int, default=1, dest="min_engagements"
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mine_pairs)

    p = mine.add_parser("negatives")
    p.add_argument("--pairs", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--params")
    p.add_argument("--negatives", "-n", type=int, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mine_negatives)

    p = mine.add_parser("split")
    p.add_argument("--log", required=True)
    p.add_argument(
        "--test-fraction", type=float, default=0.2, dest="test_fraction"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-train", required=True, dest="out_train")
    p.add_argument("--out-test", required=True, dest="out_test")
    p.add_argument("--manifest")
    p.set_defaults(func=_cmd_mine_split)

    # eval
    ev = sub.add_parser("eval", help="metrics and benchmarks").add_subparsers(
        dest="sub", required=True
    )
    p = ev.add_parser("run")
    p.add_argument("--docs", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--method", choices=("sparse", "trigram", "fuzzy"), required=True)
    p.add_argument("--tokenizer")
    p.add_argument("--params")
    p.add_argument("--k", default="1,10,25", help="comma-separated cutoffs")
    _add_fuzzy_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval_run)

    # gen
    gen = sub.add_parser("gen", help="synthetic data").add_subparsers(
        dest="sub", required=True
    )
    p = gen.add_parser("synth")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--entities", type=int, default=500)
    p.add_argument(
        "--queries-per-entity", type=int, default=4, dest="queries_per_entity"
    )
    p.add_argument(
        "--short-fraction", type=float, default=0.12, dest="short_fraction"
    )
    p.add_argument("--days", type=int, default=7)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen_synth)

    # sim
    sim = sub.add_parser("sim", help="feedback-loop replay").add_subparsers(
        dest="sub", required=True
    )
    p = sim.add_parser("replay")
    p.add_argument("--log", required=True)
    p.add_argument("--catalog", required=True, help="entity docs JSONL")
    p.add_argument(
        "--channel",
        choices=hci.CHANNEL_KINDS,
        default="trigram",
    )
    p.add_argument("--tokenizer", help="sparse channel tokenizer")
    p.add_argument("--params", help="sparse channel encoder params")
    p.add_argument("--fuzzy-top", type=int, default=10, dest="fuzzy_top")
    p.add_argument("--k", type=int, default=25)
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument(
        "--min-engagements", type=int, default=1, dest="min_engagements"
    )
    p.add_argument(
        "--replay-all-each-epoch",
        action="store_true",
        dest="replay_all_each_epoch",
    )
    _add_fuzzy_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sim_replay)

    return parser


def main(argv=None) -> int:
    level_name = os.environ.get("SFNS_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level_name, logging.WARNING))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into the validation code.
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except StorageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ValueError, mining.MiningError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
