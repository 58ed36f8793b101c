"""Mine weak supervision from a behavior log and train the doc expander.

Walks the full offline pipeline: positive pairs from co-engagement, hard
negatives from a first-pass retriever, contrastive training, and finally
what the learned expansion does to a document vector. Also shows the
sparsity penalty trading a little expansion away for cheaper postings.

Run: python3 demos/expansion_training.py
"""

from sfns import (
    TrainConfig,
    VocabStats,
    doc_vector,
    hit_ids,
    init_params,
    make_retriever,
    mean_nonzero_dims,
    mine_hard_negatives,
    mine_positive_pairs,
    plain_doc_vector,
    prepare_dataset,
    retrieval_tokens,
    synth_corpus,
    train,
    train_unigram,
)


def main():
    sc = synth_corpus(seed=9, n_entities=80, queries_per_entity=4)
    model = train_unigram([text for _, text in sc.docs], vocab_size=240)

    pairs = mine_positive_pairs(sc.log, min_engagements=2)
    print(f"mined {len(pairs)} positive pairs from {len(list(sc.log))} log records")
    print("  e.g.", [(p.q, p.q_pos) for p in pairs[:3]])

    first_pass = make_retriever("sparse", sc.docs, tokenizer=model)
    result = mine_hard_negatives(
        pairs, lambda q: hit_ids(first_pass.search(q, 12)), sc.log, n=3
    )
    print(f"attached negatives to {len(result.triples)} pairs "
          f"({result.starved} starved)\n")

    dataset = prepare_dataset(model, result.triples)
    df = {t: 1 for toks in (retrieval_tokens(model, x) for _, x in sc.docs) for t in toks}
    stats = VocabStats(len(sc.docs), df)
    base = init_params(model.vocab_size, dim=12, seed=0)

    trained, history = train(base, dataset, stats, TrainConfig(steps=120, seed=1))
    print(f"trained {len(history)} steps, "
          f"loss {history[0]['loss']:.3f} -> {history[-1]['loss']:.3f}")

    ent, name = sc.docs[0]
    base_vec = plain_doc_vector(model, name)
    learned_vec = doc_vector(model, name, trained)
    print(f"\ndoc {name!r}: {len(list(base_vec.items()))} surface tokens, "
          f"{len(list(learned_vec.items()))} dims after expansion")

    # Same data, same seed, only the penalty differs.
    token_lists = [tuple(retrieval_tokens(model, text)) for _, text in sc.docs]
    sparse_cfg = TrainConfig(steps=120, seed=1, lambda_reg=1e-2)
    dense_cfg = TrainConfig(steps=120, seed=1, lambda_reg=0.0)
    with_pen, _ = train(base, dataset, stats, sparse_cfg)
    without, _ = train(base, dataset, stats, dense_cfg)
    print(f"mean active dims per doc: {mean_nonzero_dims(with_pen, token_lists):.1f} "
          f"with penalty, {mean_nonzero_dims(without, token_lists):.1f} without")


if __name__ == "__main__":
    main()
