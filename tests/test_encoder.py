import logging
import math

import numpy as np
import pytest

from sfns._binio import ChecksumError
from sfns.encoder import (
    BatchItem,
    EncoderParams,
    TokenTriple,
    TrainBatch,
    TrainConfig,
    _query_row,
    encode_doc,
    grad,
    init_params,
    load_external_vectors,
    load_params,
    loss,
    mean_nonzero_dims,
    prepare_dataset,
    save_external_vectors,
    save_params,
    train,
)
from sfns.mining import TrainTriple
from sfns.sparse import SparseVector, ValidationError, VocabStats, idf
from sfns.tokenizer import TokenizerModel

from _oracles import central_fd, kink_margin


def _one_hot_params():
    # Token 0's embedding is the scalar 1, so dim 0's pre-activation equals
    # proj[0] exactly; dim 1 is pinned below the ReLU.
    return EncoderParams(
        embed=np.array([[1.0], [0.0]]),
        proj=np.array([[math.e - 1.0], [-5.0]]),
        bias=np.zeros(2),
    )


def _stats(vocab: int) -> VocabStats:
    return VocabStats(10, {t: 5 for t in range(vocab)})


def test_query_row_weights_equal_idf_bit_for_bit():
    # Token 0 is in every doc, 1 and 2 in some, 3 in none (df=0); 9 lies
    # outside the vocab and is dropped.
    stats = VocabStats(7, {0: 7, 1: 3, 2: 1})
    row = _query_row(BatchItem((3, 0, 2, 2, 1, 9, -1), ()), stats, 6)
    assert row.tolist() == [idf(stats, 0), idf(stats, 1), idf(stats, 2), idf(stats, 3), 0.0, 0.0]


# -- forward ------------------------------------------------------------------


def test_saturating_activation_worked_example():
    # pre = e - 1 lands exactly on weight log(1 + (e-1)) = 1.
    vec = encode_doc(_one_hot_params(), [0])
    assert dict(vec.items()) == {0: pytest.approx(1.0)}


def test_encode_doc_is_order_and_multiplicity_invariant():
    params = init_params(6, 3, seed=1)
    a = encode_doc(params, [0, 3, 5])
    b = encode_doc(params, [5, 0, 3, 3, 0])
    assert dict(a.items()) == dict(b.items())


def test_encode_doc_validates_tokens():
    params = init_params(4, 2, seed=0)
    with pytest.raises(ValidationError):
        encode_doc(params, [])
    with pytest.raises(ValidationError):
        encode_doc(params, [4])
    with pytest.raises(ValidationError):
        encode_doc(params, [-1])


def test_negative_preactivations_yield_empty_expansion():
    params = EncoderParams(
        embed=np.array([[1.0]]), proj=np.array([[-2.0]]), bias=np.array([0.0])
    )
    assert encode_doc(params, [0]).nnz == 0


# -- loss ---------------------------------------------------------------------


def test_infonce_equals_ln2_for_two_identical_candidates():
    params = _one_hot_params()
    item = BatchItem(query_tokens=(0,), pos_tokens=(0,), neg_tokens=((0,),))
    batch = TrainBatch((item,), _stats(2))
    total, parts = loss(params, batch, lambda_reg=0.0)
    assert parts["infonce"] == pytest.approx(math.log(2.0), abs=1e-12)
    assert total == pytest.approx(math.log(2.0), abs=1e-12)


def test_flops_penalty_worked_example():
    # Both docs expand to exactly weight 1 on dim 0, so the squared
    # per-dimension mean is 1, and lambda scales in linearly.
    params = _one_hot_params()
    item = BatchItem(query_tokens=(0,), pos_tokens=(0,), neg_tokens=((0,),))
    batch = TrainBatch((item,), _stats(2))
    _, parts = loss(params, batch, lambda_reg=0.01)
    assert parts["flops"] == pytest.approx(1.0, abs=1e-12)
    assert parts["total"] == pytest.approx(math.log(2.0) + 0.01, abs=1e-12)


def test_loss_rejects_negative_lambda_and_empty_batch():
    params = init_params(4, 2, seed=0)
    item = BatchItem((0,), (1,))
    with pytest.raises(ValidationError):
        loss(params, TrainBatch((item,), _stats(4)), lambda_reg=-0.1)
    with pytest.raises(ValidationError):
        TrainBatch((), _stats(4))


def test_in_batch_negatives_shift_the_loss():
    params = init_params(6, 3, seed=3)
    stats = _stats(6)
    i1 = BatchItem((0,), (1,))
    i2 = BatchItem((2,), (3,))
    solo, _ = loss(params, TrainBatch((i1,), stats), 0.0)
    both, _ = loss(params, TrainBatch((i1, i2), stats), 0.0)
    # The second item contributes a cross-candidate for the first.
    assert both != pytest.approx(solo)


# -- gradients ----------------------------------------------------------------


def _kink_free_instance(seed: int):
    rng = np.random.default_rng(seed)
    for attempt in range(200):
        v, d = 6, 3
        params = EncoderParams(
            embed=rng.normal(0.0, 0.8, (v, d)),
            proj=rng.normal(0.0, 0.8, (v, d)),
            bias=rng.normal(0.0, 0.3, v),
        )
        items = []
        token_lists = []
        for _ in range(2):
            q = tuple(rng.choice(v, size=2, replace=False).tolist())
            pos = tuple(rng.choice(v, size=2, replace=False).tolist())
            neg = tuple(rng.choice(v, size=2, replace=False).tolist())
            items.append(BatchItem(q, pos, (neg,)))
            token_lists += [pos, neg]
        if kink_margin(params.embed, params.proj, params.bias, token_lists) > 1e-2:
            return params, TrainBatch(tuple(items), _stats(v))
    raise AssertionError("no kink-free instance found")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_analytic_gradient_matches_central_differences(seed):
    params, batch = _kink_free_instance(seed)
    lam = 1e-2
    g = grad(params, batch, lam)
    for name in ("embed", "proj", "bias"):
        arr = getattr(params, name)
        fd = central_fd(lambda: loss(params, batch, lam)[0], arr, step=1e-4)
        got = getattr(g, name)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(got)), 1e-6)
        rel = np.abs(got - fd) / denom
        assert rel.max() < 1e-4, (name, rel.max())


def test_gradient_is_zero_when_nothing_activates():
    params = EncoderParams(
        embed=np.array([[1.0], [1.0]]),
        proj=np.array([[-3.0], [-4.0]]),
        bias=np.zeros(2),
    )
    item = BatchItem((0,), (0,), ((1,),))
    g = grad(params, TrainBatch((item,), _stats(2)), 1e-2)
    assert not g.embed.any() and not g.proj.any() and not g.bias.any()


# -- training -----------------------------------------------------------------


def test_train_returns_input_unchanged_for_zero_steps():
    params = init_params(5, 2, seed=0)
    data = [TokenTriple((0,), (1,))]
    out, history = train(params, data, _stats(5), TrainConfig(steps=0))
    assert history == []
    assert out is params


def test_train_is_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(7)
    data = [
        TokenTriple(
            tuple(rng.choice(8, 2).tolist()),
            tuple(rng.choice(8, 2).tolist()),
            (tuple(rng.choice(8, 2).tolist()),),
        )
        for _ in range(10)
    ]
    stats = _stats(8)
    p0 = init_params(8, 3, seed=2)
    cfg = TrainConfig(steps=15, batch_size=4, seed=5)
    a, ha = train(p0, data, stats, cfg)
    b, hb = train(p0, data, stats, cfg)
    assert ha == hb
    assert np.array_equal(a.embed, b.embed)
    assert np.array_equal(a.proj, b.proj)
    assert np.array_equal(a.bias, b.bias)
    c, _ = train(p0, data, stats, TrainConfig(steps=15, batch_size=4, seed=6))
    assert not np.array_equal(a.embed, c.embed)


def test_train_does_not_mutate_initial_params():
    p0 = init_params(6, 2, seed=1)
    before = p0.copy()
    train(p0, [TokenTriple((0,), (1,), ((2,),))], _stats(6), TrainConfig(steps=5))
    assert np.array_equal(p0.embed, before.embed)
    assert np.array_equal(p0.bias, before.bias)


def test_sparsity_penalty_lowers_expansion_size():
    rng = np.random.default_rng(11)
    vocab = 12
    data = [
        TokenTriple(
            tuple(rng.choice(vocab, 2, replace=False).tolist()),
            tuple(rng.choice(vocab, 2, replace=False).tolist()),
            (tuple(rng.choice(vocab, 2, replace=False).tolist()),),
        )
        for _ in range(16)
    ]
    stats = _stats(vocab)
    p0 = init_params(vocab, 3, seed=4, scale=0.5)
    docs = [t.pos_tokens for t in data]
    dense, _ = train(p0, data, stats, TrainConfig(steps=120, lambda_reg=0.0, seed=9))
    sparse, _ = train(p0, data, stats, TrainConfig(steps=120, lambda_reg=1e-2, seed=9))
    assert mean_nonzero_dims(sparse, docs) < mean_nonzero_dims(dense, docs)


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValidationError):
        TrainConfig(steps=-1)
    with pytest.raises(ValidationError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValidationError):
        TrainConfig(lambda_reg=-1e-3)


# -- dataset preparation ------------------------------------------------------


def test_prepare_dataset_tokenizes_and_skips_empty(caplog):
    model = TokenizerModel({"a": -1.0, "b": -1.0}, max_piece_len=3)
    triples = [
        TrainTriple(q="ab", q_pos="ba", negatives=("aa", "zz")),
        TrainTriple(q="zz", q_pos="ab", negatives=()),  # query tokenizes to nothing
    ]
    with caplog.at_level(logging.WARNING, logger="sfns.encoder"):
        out = prepare_dataset(model, triples)
    assert len(out) == 1
    a, b = model.piece_id("a"), model.piece_id("b")
    assert out[0].query_tokens == (a, b)
    assert out[0].pos_tokens == (b, a)
    assert out[0].neg_tokens == ((a, a),)  # the untokenizable negative is dropped
    assert any("skipped 1" in r.message for r in caplog.records)


# -- external vectors ---------------------------------------------------------


def test_load_external_vectors_round_trip(tmp_path, caplog):
    model = TokenizerModel({"pi": -1.0, "nk": -1.0}, max_piece_len=3)
    p = tmp_path / "vec.jsonl"
    p.write_text(
        '{"id": "d1", "vec": {"pi": 1.5, "nk": 0.25}}\n'
        '\n'
        '{"id": "d2", "vec": {"pi": 0.5, "mystery": 9.0}}\n'
    )
    with caplog.at_level(logging.WARNING, logger="sfns.encoder"):
        rows = list(load_external_vectors(str(p), model))
    assert rows[0][0] == "d1"
    assert dict(rows[0][1].items()) == {
        model.piece_id("nk"): 0.25,
        model.piece_id("pi"): 1.5,
    }
    assert dict(rows[1][1].items()) == {model.piece_id("pi"): 0.5}
    assert any("unknown piece" in r.message for r in caplog.records)


def test_external_vectors_save_load_round_trip(tmp_path, caplog):
    model = TokenizerModel({"pi": -1.0, "nk": -1.0, "me": -1.0}, max_piece_len=3)
    vectors = [
        ("d1", SparseVector([(model.piece_id("pi"), 1.5), (model.piece_id("me"), 0.1)])),
        ("d2", SparseVector(())),
    ]
    p = tmp_path / "vec.jsonl"
    save_external_vectors(vectors, model, str(p))
    back = load_external_vectors(str(p), model)
    assert [(i, dict(v.items())) for i, v in back] == [
        (i, dict(v.items())) for i, v in vectors
    ]
    # An unknown piece is skipped with a warning that names its doc.
    with caplog.at_level(logging.WARNING, logger="sfns.encoder"):
        load_external_vectors(str(p), TokenizerModel({"pi": -1.0}, max_piece_len=3))
    assert any("doc 'd1'" in r.getMessage() for r in caplog.records)


def test_load_external_vectors_reports_line_numbers(tmp_path):
    model = TokenizerModel({"pi": -1.0}, max_piece_len=3)
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id": "d1", "vec": {"pi": 1.0}}\nnot json\n')
    with pytest.raises(ValidationError, match=":2:"):
        list(load_external_vectors(str(p), model))
    p.write_text('{"id": "d1"}\n')
    with pytest.raises(ValidationError, match=":1:"):
        list(load_external_vectors(str(p), model))
    p.write_text('{"id": "d1", "vec": {"pi": -2.0}}\n')
    with pytest.raises(ValidationError, match=":1:"):
        list(load_external_vectors(str(p), model))


# -- persistence --------------------------------------------------------------


def test_params_round_trip_and_restore_bit_exact(tmp_path):
    params = init_params(7, 4, seed=3)
    p1, p2 = tmp_path / "a.sfne", tmp_path / "b.sfne"
    save_params(params, str(p1))
    loaded = load_params(str(p1))
    assert loaded.vocab_size == 7 and loaded.dim == 4
    # Storage is f32; a second save of the loaded params is byte-identical.
    save_params(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(loaded.embed, params.embed.astype(np.float32).astype(np.float64))


def test_params_file_rejects_corruption(tmp_path):
    params = init_params(3, 2, seed=0)
    p = tmp_path / "c.sfne"
    save_params(params, str(p))
    raw = bytearray(p.read_bytes())
    raw[10] ^= 0x01
    p.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError):
        load_params(str(p))


def test_params_validation():
    with pytest.raises(ValidationError):
        EncoderParams(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValidationError):
        EncoderParams(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(3))
    with pytest.raises(ValidationError):
        EncoderParams(np.full((1, 1), np.nan), np.zeros((1, 1)), np.zeros(1))
    with pytest.raises(ValidationError):
        init_params(0, 3, seed=0)
