import gc
import json
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfns._binio import (
    BadMagicError,
    ChecksumError,
    StorageError,
    TruncatedError,
    VersionError,
    crc32c,
)
from sfns.index import BuildError, DocEntry, InvertedIndex, SearchHit, build
from sfns.sparse import SparseVector, ValidationError, VocabStats, quantize_weights

from _oracles import brute_force_search, iter_doc_vectors


def _random_vector(rng: random.Random, vocab: int, max_dims: int = 8) -> SparseVector:
    n = rng.randint(1, max_dims)
    tokens = rng.sample(range(vocab), min(n, vocab))
    return SparseVector((t, rng.uniform(0.01, 6.0)) for t in tokens)


def _small_index():
    docs = [
        ("d0", "alpha", SparseVector([(0, 1.0), (2, 2.0)]), None),
        ("d1", "beta", SparseVector([(1, 3.0)]), "extra"),
        ("d2", "gamma", SparseVector([(0, 0.5), (1, 0.5), (2, 0.5)]), None),
    ]
    return build(docs)


# -- building -----------------------------------------------------------------


def test_build_counts_and_stats_recount():
    idx = _small_index()
    assert idx.doc_count == 3
    assert idx.token_count == 3
    assert idx.posting_count == 6
    assert idx.avg_nonzero_dims == 2.0
    # Stats must agree with a recount of the stored postings.
    assert idx.stats.doc_count == 3
    for token, (ids, _) in idx.postings.items():
        assert idx.stats.doc_freq[token] == ids.shape[0]


def test_build_rejects_duplicate_external_id():
    with pytest.raises(BuildError, match="dup"):
        build(
            [
                ("dup", "a", SparseVector([(0, 1.0)]), None),
                ("dup", "b", SparseVector([(1, 1.0)]), None),
            ]
        )


def test_build_rejects_malformed_records():
    with pytest.raises(BuildError):
        build([("d0",)])
    # One record shape: the payload field is required, even when None.
    with pytest.raises(BuildError):
        build([("d0", "text", SparseVector([(0, 1.0)]))])
    with pytest.raises(BuildError):
        build([("d0", "text", {0: 1.0}, None)])
    with pytest.raises(BuildError):
        build([("d0", "text", SparseVector([(0, 1.0)]), {"kind": "artist"})])
    # Token ids are stored as u32.
    for token in (-1, 2**32):
        with pytest.raises(BuildError):
            build([("d0", "text", SparseVector([(token, 1.0)]), None)])


def test_build_rejects_weights_that_overflow_binary16():
    # 65504 is the largest finite binary16; 65520 and up round to +inf,
    # where 1e6 and 1e7 would tie.
    idx = build([("ok", "", SparseVector([(0, 65504.0)]), None)])
    assert idx.search(SparseVector([(0, 1.0)]), k=1)[0].score == 65504.0
    for big in (65520.0, 1e6, 1e7):
        with pytest.raises(BuildError, match="big"):
            build(
                [
                    ("ok", "", SparseVector([(0, 1.0)]), None),
                    ("big", "", SparseVector([(0, big)]), None),
                ]
            )


def test_build_drops_postings_that_quantize_to_zero():
    tiny = 1e-9  # underflows binary16 to zero
    idx = build(
        [
            ("d0", "", SparseVector([(0, tiny), (1, 1.0)]), None),
            ("d1", "", SparseVector([(0, 1.0)]), None),
        ]
    )
    ids, bits = idx.postings[0]
    assert ids.tolist() == [1]
    assert 0 not in idx.stats.doc_freq or idx.stats.doc_freq[0] == 1
    assert idx.stats.doc_freq[1] == 1
    # The fully underflowed posting never scores.
    hits = idx.search(SparseVector([(0, 1.0)]), k=5)
    assert [h.doc_id for h in hits] == ["d1"]


def test_build_postings_match_the_input_vectors():
    # Per-doc reference: each doc's postings are its input vector rounded
    # through binary16, minus weights that underflow to zero.
    rng = random.Random(17)
    for trial in range(20):
        vocab = rng.randint(1, 30)
        vecs = [_random_vector(rng, vocab) for _ in range(rng.randint(1, 40))]
        vecs.append(SparseVector([(0, 1e-9), (vocab, 2.0)]))  # one underflows
        idx = build((f"d{i}", "", v, None) for i, v in enumerate(vecs))
        for vec, got in zip(vecs, iter_doc_vectors(idx)):
            want = {
                t: float(np.float16(w)) for t, w in vec.items() if np.float16(w) != 0
            }
            assert dict(got.items()) == want, trial
        assert all((np.diff(ids) > 0).all() for ids, _ in idx.postings.values())


def test_doc_weights_are_quantized_on_ingest():
    idx = build([("d0", "", SparseVector([(7, 0.1)]), None)])
    _, bits = idx.postings[7]
    assert bits.tolist() == quantize_weights([0.1]).tolist() == [0x2E66]
    vec = iter_doc_vectors(idx)[0]
    assert dict(vec.items()) == {7: 0.0999755859375}


# -- searching ----------------------------------------------------------------


@pytest.mark.parametrize(
    "record, fields",
    [
        (SearchHit("d1", 2.0, 1), {"doc_id": "d1", "score": 2.0, "rank": 1}),
        (DocEntry("d1", "pink"), {"ext_id": "d1", "text": "pink", "payload": None}),
    ],
)
def test_records_are_immutable_values(record, fields):
    # Built positionally (payload defaults to None), read by name, never
    # assigned, and equal and hashed by value.
    for name, value in fields.items():
        assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    twin = type(record)(**fields)
    assert twin == record and hash(twin) == hash(record)


def test_search_scores_and_ranks():
    idx = _small_index()
    hits = idx.search(SparseVector([(0, 2.0), (1, 1.0)]), k=3)
    assert [h.doc_id for h in hits] == ["d1", "d0", "d2"]
    assert [h.rank for h in hits] == [1, 2, 3]
    assert hits[0].score == pytest.approx(3.0)
    assert hits[1].score == pytest.approx(2.0)
    assert hits[2].score == pytest.approx(1.5)


def test_search_ties_break_by_ingestion_order():
    idx = build(
        [
            ("zz", "", SparseVector([(0, 1.0)]), None),
            ("aa", "", SparseVector([(0, 1.0)]), None),
        ]
    )
    hits = idx.search(SparseVector([(0, 1.0)]), k=2)
    # Equal scores: first-ingested wins even though its ext id sorts later.
    assert [h.doc_id for h in hits] == ["zz", "aa"]


def test_search_omits_zero_scores_and_validates_k():
    idx = _small_index()
    assert idx.search(SparseVector([(99, 1.0)]), k=10) == []
    assert idx.search(SparseVector(), k=10) == []
    with pytest.raises(ValidationError):
        idx.search(SparseVector([(0, 1.0)]), k=0)
    with pytest.raises(ValidationError):
        brute_force_search(idx, SparseVector([(0, 1.0)]), k=-1)


def test_search_matches_brute_force_bitwise_on_random_corpora():
    rng = random.Random(11)
    for trial in range(30):
        vocab = rng.randint(3, 40)
        docs = [
            (f"doc{i}", f"t{i}", _random_vector(rng, vocab), None)
            for i in range(rng.randint(1, 60))
        ]
        idx = build(docs)
        for _ in range(5):
            q = _random_vector(rng, vocab, max_dims=5)
            for k in (1, 3, 50):
                assert idx.search(q, k) == brute_force_search(idx, q, k), trial


_TIE_WEIGHTS = st.sampled_from([0.5, 1.0, 2.0])


@st.composite
def _tie_heavy_case(draw):
    # Four tokens and three weights make most scores tie, also at the top-k
    # cut; k runs past the number of docs that score at all.
    n = draw(st.integers(0, 60))
    vectors = st.dictionaries(st.integers(0, 3), _TIE_WEIGHTS)
    docs = draw(st.lists(vectors, min_size=n, max_size=n))
    query = draw(st.dictionaries(st.integers(0, 4), _TIE_WEIGHTS, min_size=1))
    return docs, query, draw(st.integers(1, n + 2))


@given(_tie_heavy_case())
@settings(max_examples=300, deadline=None)
def test_search_matches_brute_force_on_tie_heavy_corpora(case):
    docs, query, k = case
    idx = build((f"doc{i}", "", SparseVector(vec.items()), None) for i, vec in enumerate(docs))
    q = SparseVector(query.items())
    assert idx.search(q, k) == brute_force_search(idx, q, k)


# -- persistence --------------------------------------------------------------


def test_save_load_round_trip_is_bit_exact(tmp_path):
    rng = random.Random(5)
    docs = [
        (f"doc{i}", f"text {i}", _random_vector(rng, 30), None if i % 2 else "p")
        for i in range(25)
    ]
    idx = build(docs)
    p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
    idx.save(str(p1))
    loaded = InvertedIndex.load(str(p1))
    assert loaded == idx
    loaded.save(str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_payload_round_trip(tmp_path):
    idx = build(
        [
            ("a", "x", SparseVector([(0, 1.0)]), '{"kind":"artist"}'),
            ("b", "y", SparseVector([(1, 1.0)]), None),
        ]
    )
    p = tmp_path / "pl.idx"
    idx.save(str(p))
    loaded = InvertedIndex.load(str(p))
    assert loaded.doc_table[0].payload == '{"kind":"artist"}'
    assert loaded.doc_table[1].payload is None


def test_load_rejects_flipped_byte(tmp_path):
    p = tmp_path / "c.idx"
    _small_index().save(str(p))
    raw = bytearray(p.read_bytes())
    raw[len(raw) // 2] ^= 0x40
    p.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError):
        InvertedIndex.load(str(p))


def test_load_rejects_truncation(tmp_path):
    p = tmp_path / "t.idx"
    _small_index().save(str(p))
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) - 9])
    # Cutting the tail severs the checksum from its body.
    with pytest.raises((TruncatedError, ChecksumError)):
        InvertedIndex.load(str(p))
    p.write_bytes(raw[:5])
    with pytest.raises(TruncatedError):
        InvertedIndex.load(str(p))


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "m.idx"
    _small_index().save(str(p))
    raw = bytearray(p.read_bytes())
    raw[:4] = b"NOPE"
    p.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        InvertedIndex.load(str(p))


def test_load_rejects_future_version(tmp_path):
    p = tmp_path / "v.idx"
    _small_index().save(str(p))
    raw = bytearray(p.read_bytes())
    body = raw[:-4]
    # Version 1 files are rejected too: they must be rebuilt.
    for version in (1, 99):
        body[4:6] = version.to_bytes(2, "little")  # version field follows the magic
        fixed = bytes(body) + crc32c(bytes(body)).to_bytes(4, "little")
        p.write_bytes(fixed)
        with pytest.raises(VersionError):
            InvertedIndex.load(str(p))


def test_load_rejects_trailing_bytes_inside_valid_checksum(tmp_path):
    p = tmp_path / "g.idx"
    _small_index().save(str(p))
    raw = p.read_bytes()
    body = raw[:-4] + b"junk"
    p.write_bytes(body + crc32c(body).to_bytes(4, "little"))
    with pytest.raises(TruncatedError):
        InvertedIndex.load(str(p))


def test_appended_garbage_breaks_the_checksum(tmp_path):
    p = tmp_path / "ap.idx"
    _small_index().save(str(p))
    p.write_bytes(p.read_bytes() + b"\x00\x01\x02")
    with pytest.raises(StorageError):
        InvertedIndex.load(str(p))


def test_storage_errors_share_a_base_class():
    for exc in (BadMagicError, VersionError, TruncatedError, ChecksumError):
        assert issubclass(exc, StorageError)


def test_empty_index_round_trip(tmp_path):
    idx = build([])
    assert idx.doc_count == 0
    assert idx.search(SparseVector([(0, 1.0)]), k=3) == []
    p = tmp_path / "e.idx"
    idx.save(str(p))
    assert InvertedIndex.load(str(p)) == idx
    # Docs without postings: an empty vector and one that underflows binary16.
    idx = build([("a", "x", SparseVector(), None), ("b", "y", SparseVector([(0, 1e-9)]), "p")])
    assert (idx.doc_count, idx.token_count, idx.posting_count) == (2, 0, 0)
    assert idx.stats == VocabStats(2, {})
    idx.save(str(p))
    loaded = InvertedIndex.load(str(p))
    assert loaded == idx
    q = tmp_path / "e2.idx"
    loaded.save(str(q))
    assert p.read_bytes() == q.read_bytes()


def _small_fields():
    """The flat arrays and doc rows of _small_index(), as plain lists."""
    idx = _small_index()
    return {
        "rows": [[e.ext_id, e.text, e.payload] for e in idx.doc_table],
        "tokens": idx.tokens.tolist(),
        "lengths": idx.lengths.tolist(),
        "ids": idx.doc_ids.tolist(),
        "bits": idx.bits.tolist(),
    }


def _v2_bytes(rows, tokens, lengths, ids, bits) -> bytes:
    """A format-v2 index file with a valid checksum, whatever its contents."""
    if not isinstance(rows, bytes):
        rows = json.dumps(rows, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    body = b"".join(
        [
            b"SFNS",
            struct.pack("<HQ", 2, len(rows)),
            rows,
            struct.pack("<QQ", len(tokens), len(ids)),
            np.array(tokens, dtype="<u4").tobytes(),
            np.array(lengths, dtype="<u4").tobytes(),
            np.array(ids, dtype="<u4").tobytes(),
            np.array(bits, dtype="<u2").tobytes(),
        ]
    )
    return body + crc32c(body).to_bytes(4, "little")


def test_saved_file_is_the_v2_layout(tmp_path):
    p = tmp_path / "l.idx"
    _small_index().save(str(p))
    fields = _small_fields()
    assert fields["tokens"] == [0, 1, 2]
    assert fields["lengths"] == [2, 2, 2]
    assert fields["ids"] == [0, 2, 1, 2, 0, 2]
    assert p.read_bytes() == _v2_bytes(**fields)
    assert InvertedIndex.load(str(p)) == _small_index()


def _load_bytes(tmp_path, raw: bytes) -> InvertedIndex:
    p = tmp_path / "s.idx"
    p.write_bytes(raw)
    return InvertedIndex.load(str(p))


@pytest.mark.parametrize(
    "token, ids, bits",
    [
        (1, [1, 5], [0x3C00, 0x3C00]),  # doc 5 in a 3-doc index
        (1, [2, 1], [0x3C00, 0x3C00]),  # out of order
        (1, [1, 1], [0x3C00, 0x3C00]),  # repeated doc
        (0, [2**32 - 1, 2], [0x3C00, 0x3C00]),  # largest u32 doc id
        (0, [0, 2], [0x3C00, 0x0000]),  # zero weight
        (0, [0, 2], [0x3C00, 0x7C00]),  # +inf
        (0, [0, 2], [0x3C00, 0x7E00]),  # NaN
        (0, [0, 2], [0xBC00, 0x3C00]),  # negative
    ],
)
def test_load_rejects_invalid_postings(tmp_path, token, ids, bits):
    # Every posting of _small_index() has length 2; replace the token's one.
    fields = _small_fields()
    fields["ids"][2 * token : 2 * token + 2] = ids
    fields["bits"][2 * token : 2 * token + 2] = bits
    with pytest.raises(StorageError):
        _load_bytes(tmp_path, _v2_bytes(**fields))


@pytest.mark.parametrize(
    "field, value",
    [
        ("tokens", [0, 2, 1]),  # unsorted
        ("tokens", [0, 1, 1]),  # duplicate
        ("lengths", [2, 4, 0]),  # zero-length posting
        ("lengths", [2, 2, 1]),  # sums to 5 of 6 postings
        ("rows", [["d0", "alpha", None], ["d1", "beta"], ["d2", "gamma", None]]),
        ("rows", [["d0", "alpha", None], ["d1", "beta", 7], ["d2", "gamma", None]]),
        ("rows", None),  # not a list
        ("rows", b"\xff["),  # not UTF-8 JSON
    ],
)
def test_load_rejects_malformed_layout(tmp_path, field, value):
    fields = _small_fields()
    fields[field] = value
    with pytest.raises(StorageError):
        _load_bytes(tmp_path, _v2_bytes(**fields))


def test_load_names_the_first_bad_doc_row(tmp_path):
    rows = [["d0", "alpha", None], ["d1", "beta", 7], ["d2", 5, None]]
    with pytest.raises(StorageError, match=r"doc row \['d1', 'beta', 7\]"):
        _load_bytes(tmp_path, _v2_bytes(**{**_small_fields(), "rows": rows}))


def test_doc_rows_drop_out_of_the_collector(tmp_path):
    # The collector stops tracking a tuple of strings, so a large index held
    # for a long run adds nothing to later full collections.
    built = _small_index()
    loaded = _load_bytes(tmp_path, _v2_bytes(**_small_fields()))
    gc.collect()
    for idx in (built, loaded):
        assert not any(gc.is_tracked(row) for row in idx._rows)
        assert idx.doc_table == [DocEntry(*row) for row in idx._rows]


@pytest.mark.parametrize("enabled", [True, False])
def test_load_leaves_the_garbage_collector_as_it_found_it(tmp_path, enabled):
    # The doc-table parse pauses the collector; a load, good or rejected,
    # must hand it back in the caller's state.
    good = _v2_bytes(**_small_fields())
    bad = _v2_bytes(**{**_small_fields(), "rows": [["d0", "alpha", 7]]})
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert _load_bytes(tmp_path, good) == _small_index()
        assert gc.isenabled() is enabled
        with pytest.raises(StorageError):
            _load_bytes(tmp_path, bad)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
