import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfns.sparse import (
    SparseVector,
    ValidationError,
    VocabStats,
    dequantize_weights,
    dot_score,
    encode_query,
    idf,
    normalize_text,
    quantize_weights,
)
from sfns.tokenizer import TokenizerModel

from _oracles import dense_dot, f16_from_bits


# -- normalization ------------------------------------------------------------


def test_normalize_lowercases_and_collapses_whitespace():
    assert normalize_text("  Taylor\t SWIFT \n") == "taylor swift"


def test_normalize_keeps_punctuation():
    assert normalize_text("P!nk") == "p!nk"


def test_normalize_nfkc_folds_compatibility_forms():
    assert normalize_text("ﬁsh") == "fish"  # U+FB01 ligature
    assert normalize_text("Ｔaylor") == "taylor"  # fullwidth T


def test_normalize_idempotent_on_ascii_samples():
    for s in ("tayler swift", "p!nk  ", " sonidero aczino"):
        once = normalize_text(s)
        assert normalize_text(once) == once


# -- SparseVector -------------------------------------------------------------


def test_vector_sorts_ids_and_merges_duplicates_by_max():
    v = SparseVector([(5, 1.0), (2, 3.0), (5, 4.0), (2, 2.0)])
    assert list(v.ids) == [2, 5]
    assert list(v.weights) == [3.0, 4.0]


def test_vector_drops_zero_weights():
    v = SparseVector([(1, 0.0), (2, 1.5)])
    assert list(v.ids) == [2]


def test_vector_rejects_negative_and_nonfinite():
    with pytest.raises(ValidationError):
        SparseVector([(1, -0.5)])
    with pytest.raises(ValidationError):
        SparseVector([(1, float("nan"))])
    with pytest.raises(ValidationError):
        SparseVector([(1, float("inf"))])


def test_vector_get_and_items():
    v = SparseVector([(3, 1.0), (7, 2.0)])
    assert v.get(3) == 1.0
    assert v.get(4) == 0.0
    assert list(v.items()) == [(3, 1.0), (7, 2.0)]
    assert v.nnz == 2 and len(v) == 2 and bool(v)
    assert not SparseVector(())


def test_vector_line_round_trip():
    v = SparseVector([(0, 0.0999755859375), (12, 1.6931471805599453)])
    assert SparseVector.from_line(v.to_line()) == v


def test_vector_equality_and_hash():
    a = SparseVector([(1, 2.0), (3, 4.0)])
    b = SparseVector([(3, 4.0), (1, 2.0)])
    assert a == b and hash(a) == hash(b)
    assert a != SparseVector([(1, 2.0)])


def test_vector_arrays_are_immutable():
    v = SparseVector([(1, 2.0)])
    with pytest.raises(ValueError):
        v.weights[0] = 9.0


# -- dot product --------------------------------------------------------------


def test_dot_matches_dense_oracle_on_random_vectors():
    rng = np.random.default_rng(11)
    for _ in range(200):
        ids_a = rng.choice(50, size=rng.integers(0, 12), replace=False)
        ids_b = rng.choice(50, size=rng.integers(0, 12), replace=False)
        a = SparseVector([(int(i), float(rng.uniform(0.01, 5))) for i in ids_a])
        b = SparseVector([(int(i), float(rng.uniform(0.01, 5))) for i in ids_b])
        assert dot_score(a, b) == pytest.approx(dense_dot(a, b), rel=1e-12, abs=1e-12)


def test_dot_disjoint_is_zero():
    a = SparseVector([(1, 2.0)])
    b = SparseVector([(2, 3.0)])
    assert dot_score(a, b) == 0.0
    assert dot_score(a, SparseVector(())) == 0.0


@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.floats(0.01, 100.0)), max_size=10
    ),
    st.lists(
        st.tuples(st.integers(0, 30), st.floats(0.01, 100.0)), max_size=10
    ),
)
@settings(max_examples=80, deadline=None)
def test_dot_commutative(pairs_a, pairs_b):
    a, b = SparseVector(pairs_a), SparseVector(pairs_b)
    assert dot_score(a, b) == dot_score(b, a)


# -- binary16 quantization ----------------------------------------------------


def _bits(w: float) -> int:
    return int(quantize_weights([w])[0])


def test_quantize_known_value():
    bits = quantize_weights([0.1])
    assert bits.dtype == np.uint16 and bits.tolist() == [0x2E66]
    assert dequantize_weights(bits).tolist() == [0.0999755859375]


def test_quantize_round_trips_every_finite_nonnegative_pattern():
    # Exhaustive over all 31744 non-negative finite binary16 patterns.
    bits = np.arange(0x0000, 0x7C00, dtype=np.uint16)
    values = dequantize_weights(bits)
    again = quantize_weights(values)
    assert np.array_equal(again, bits)


def test_dequantize_matches_bit_arithmetic_oracle():
    bits = np.arange(0x0000, 0x7C00, dtype=np.uint16)
    ours = dequantize_weights(bits)
    theirs = np.array([f16_from_bits(int(b)) for b in bits])
    assert np.array_equal(ours, theirs)


def test_quantize_rounds_to_nearest_even():
    # Between 2048 and 2050 the tie 2049 goes to the even mantissa (2048);
    # between 2050 and 2052 the tie 2051 goes to 2052.
    assert _bits(2049.0) == _bits(2048.0)
    assert _bits(2051.0) == _bits(2052.0)


def test_quantize_negative_zero_becomes_positive_zero():
    assert _bits(-0.0) == 0x0000


def test_quantize_rejects_negative_and_nan():
    with pytest.raises(ValidationError):
        quantize_weights([1.0, -1.0])
    with pytest.raises(ValidationError):
        quantize_weights([float("nan")])


def test_quantize_overflow_saturates_to_infinity_bits():
    # IEEE round-to-nearest takes values above the binary16 max (65504) to
    # +inf; the index build layer is what keeps weights in range.
    assert _bits(1.0e6) == 0x7C00
    assert math.isinf(dequantize_weights(quantize_weights([1.0e6]))[0])


@given(st.floats(0.0, 60000.0))
@settings(max_examples=200, deadline=None)
def test_quantize_is_idempotent_through_one_round_trip(x):
    once = quantize_weights([x])
    assert np.array_equal(quantize_weights(dequantize_weights(once)), once)


# -- vocab stats and idf ------------------------------------------------------


def test_stats_validates_df_range():
    with pytest.raises(ValidationError):
        VocabStats(2, {1: 3})
    with pytest.raises(ValidationError):
        VocabStats(-1, {})


def test_stats_from_token_sets():
    stats = VocabStats.from_token_sets([{1, 2}, {2}, {2, 9}])
    assert stats.doc_count == 3
    assert stats.doc_freq == {1: 1, 2: 3, 9: 1}


def test_idf_formula():
    stats = VocabStats(3, {7: 1, 8: 3})
    assert idf(stats, 7) == pytest.approx(math.log(2.0) + 1.0)
    assert idf(stats, 8) == pytest.approx(1.0)
    # unknown token: df = 0
    assert idf(stats, 99) == pytest.approx(math.log(4.0) + 1.0)


# -- query encoding -----------------------------------------------------------


def _fixture_model():
    return TokenizerModel(
        {"p": -4.0, "i": -4.0, "n": -4.0, "k": -4.0, "pi": -1.5, "nk": -1.6},
        max_piece_len=3,
    )


def test_encode_query_idf_weights():
    # "pink" segments to [pi, nk]; with df(pi)=1, df(nk)=3 over 3 docs the
    # weights are ln(4/2)+1 and ln(4/4)+1.
    model = _fixture_model()
    ids = {piece: model.piece_id(piece) for piece in ("pi", "nk")}
    stats = VocabStats(3, {ids["pi"]: 1, ids["nk"]: 3})
    q = encode_query(stats, model.segment("pink"))
    assert list(q.ids) == sorted(ids.values())
    got = {tid: w for tid, w in q.items()}
    assert got[ids["pi"]] == pytest.approx(1.693147, abs=1e-6)
    assert got[ids["nk"]] == pytest.approx(1.0)


def test_encode_query_empty_text():
    model = _fixture_model()
    stats = VocabStats(1, {})
    assert encode_query(stats, model.segment("   ")).nnz == 0
    assert encode_query(stats, [-1, -1]).nnz == 0  # unknown ids drop out


def test_encode_query_dedupes_repeated_tokens():
    model = _fixture_model()
    stats = VocabStats(2, {})
    q = encode_query(stats, model.segment("pink pink"))
    assert len(q.ids) == len(set(q.ids))
