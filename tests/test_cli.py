import json

import pytest

from sfns.cli import main
from sfns.evaluation import synth_corpus, write_corpus_dir
from sfns.index import InvertedIndex


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _envelope(stdout: str) -> dict:
    payload = json.loads(stdout)
    assert set(payload) == {"meta", "config", "result"}
    assert "timestamp" in payload["meta"]
    return payload


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    corpus = synth_corpus(seed=13, n_entities=30, queries_per_entity=4)
    write_corpus_dir(corpus, str(root))
    # Line corpus for tokenizer training.
    (root / "texts.txt").write_text(
        "".join(text + "\n" for _, text in corpus.docs), encoding="utf-8"
    )
    return root


@pytest.fixture(scope="module")
def artifacts(corpus_dir, tmp_path_factory):
    """Run the artifact-producing stages once: tokenizer, pairs, triples,
    params, vectors, and two index builds."""
    art = tmp_path_factory.mktemp("artifacts")
    steps = [
        ["tokenize", "train", "--input", str(corpus_dir / "texts.txt"),
         "--vocab-size", "120", "--out", str(art / "tok.tsv")],
        ["mine", "pairs", "--log", str(corpus_dir / "log.jsonl"),
         "--out", str(art / "pairs.jsonl")],
        ["mine", "negatives", "--pairs", str(art / "pairs.jsonl"),
         "--log", str(corpus_dir / "log.jsonl"),
         "--tokenizer", str(art / "tok.tsv"), "-n", "2",
         "--out", str(art / "triples.jsonl")],
        ["encoder", "train", "--tokenizer", str(art / "tok.tsv"),
         "--triples", str(art / "triples.jsonl"),
         "--docs", str(corpus_dir / "docs.jsonl"),
         "--dim", "4", "--steps", "10", "--out", str(art / "enc.sfne")],
        ["encoder", "encode", "--tokenizer", str(art / "tok.tsv"),
         "--params", str(art / "enc.sfne"),
         "--input", str(corpus_dir / "docs.jsonl"),
         "--out", str(art / "vectors.jsonl")],
        ["index", "build", "--tokenizer", str(art / "tok.tsv"),
         "--docs", str(corpus_dir / "docs.jsonl"), "--out", str(art / "plain.idx")],
        ["index", "build", "--tokenizer", str(art / "tok.tsv"),
         "--docs", str(corpus_dir / "docs.jsonl"),
         "--vectors", str(art / "vectors.jsonl"), "--out", str(art / "enc.idx")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return art


# -- individual stages --------------------------------------------------------


def test_tokenize_train_and_apply(corpus_dir, tmp_path, capsys):
    model_path = tmp_path / "tok.tsv"
    code, out, _ = _run(
        capsys,
        ["tokenize", "train", "--input", str(corpus_dir / "texts.txt"),
         "--vocab-size", "80", "--out", str(model_path)],
    )
    assert code == 0
    env = _envelope(out)
    assert env["result"]["vocab_size"] <= 80
    assert model_path.exists()

    code, out, _ = _run(
        capsys, ["tokenize", "apply", "--model", str(model_path), "--text", "pink"]
    )
    assert code == 0
    seg = _envelope(out)["result"]["segmentations"][0]
    assert seg["text"] == "pink"
    assert "".join(seg["pieces"]) == "pink"
    assert len(seg["pieces"]) == len(seg["ids"])


def test_index_search_hit_schema(artifacts, corpus_dir, capsys):
    query = json.loads((corpus_dir / "docs.jsonl").read_text().splitlines()[0])["text"]
    code, out, _ = _run(
        capsys,
        ["index", "search", "--index", str(artifacts / "plain.idx"),
         "--tokenizer", str(artifacts / "tok.tsv"), "--query", query, "--k", "3"],
    )
    assert code == 0
    result = _envelope(out)["result"]
    assert result["query"] == query
    assert result["hits"], "the doc's own name must match itself"
    for rank, hit in enumerate(result["hits"], start=1):
        assert set(hit) == {"id", "score", "rank"}
        assert hit["rank"] == rank
        assert isinstance(hit["id"], str)
    assert result["hits"][0]["id"] == json.loads(
        (corpus_dir / "docs.jsonl").read_text().splitlines()[0]
    )["id"]


def test_index_stats_reports_counts(artifacts, capsys):
    code, out, _ = _run(capsys, ["index", "stats", "--index", str(artifacts / "plain.idx")])
    assert code == 0
    result = _envelope(out)["result"]
    assert result["docs"] == 30
    assert result["postings"] > 0
    assert result["avg_nonzero_dims"] > 0


def test_search_trigram_and_fuzzy_methods(corpus_dir, capsys):
    docs = str(corpus_dir / "docs.jsonl")
    first = json.loads((corpus_dir / "docs.jsonl").read_text().splitlines()[0])
    code, out, _ = _run(
        capsys,
        ["search", "--method", "trigram", "--query", first["text"], "--docs", docs],
    )
    assert code == 0
    assert _envelope(out)["result"]["hits"][0]["id"] == first["id"]

    code, out, _ = _run(
        capsys,
        ["search", "--method", "fuzzy", "--query", first["text"], "--docs", docs,
         "--max-edits", "2"],
    )
    assert code == 0
    hits = _envelope(out)["result"]["hits"]
    # Fuzzy hits are mapped back to external doc ids, not scan positions.
    assert hits[0]["id"] == first["id"]


def test_eval_run_reports_metrics(artifacts, corpus_dir, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = _run(
        capsys,
        ["eval", "run", "--docs", str(corpus_dir / "docs.jsonl"),
         "--queries", str(corpus_dir / "queries.jsonl"),
         "--qrels", str(corpus_dir / "qrels.jsonl"),
         "--method", "sparse", "--tokenizer", str(artifacts / "tok.tsv"),
         "--k", "1,10", "--out", str(out_path)],
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    result = report["result"]
    assert result["evaluated"] > 0 and result["skipped"] == 0
    assert set(result["metrics"]) == {"1", "10"}
    assert 0.0 <= result["metrics"]["10"]["recall"] <= 1.0


def test_sim_replay_produces_monotone_epochs(artifacts, corpus_dir, capsys):
    code, out, _ = _run(
        capsys,
        ["sim", "replay", "--log", str(corpus_dir / "log.jsonl"),
         "--catalog", str(corpus_dir / "docs.jsonl"),
         "--channel", "fuzzy", "--epochs", "15", "--replay-all-each-epoch"],
    )
    assert code == 0
    result = _envelope(out)["result"]
    recalls = [e["recall"] for e in result["epochs"]]
    assert recalls == sorted(recalls)
    assert result["fixed_point_epoch"] is not None
    assert result["final_recall"] >= result["cold_start_recall"]


def test_gen_synth_writes_corpus(tmp_path, capsys):
    out_dir = tmp_path / "gen"
    code, out, _ = _run(
        capsys,
        ["gen", "synth", "--seed", "3", "--entities", "12",
         "--queries-per-entity", "3", "--out-dir", str(out_dir)],
    )
    assert code == 0
    result = _envelope(out)["result"]
    assert result["docs"] == 12
    for name in ("docs.jsonl", "queries.jsonl", "qrels.jsonl", "log.jsonl"):
        assert (out_dir / name).exists()
    assert "canonical" in result["by_category"]


def test_mine_split_writes_disjoint_logs(corpus_dir, tmp_path, capsys):
    code, out, _ = _run(
        capsys,
        ["mine", "split", "--log", str(corpus_dir / "log.jsonl"),
         "--test-fraction", "0.3", "--seed", "1",
         "--out-train", str(tmp_path / "train.jsonl"),
         "--out-test", str(tmp_path / "test.jsonl"),
         "--manifest", str(tmp_path / "manifest.json")],
    )
    assert code == 0
    result = _envelope(out)["result"]
    assert result["train_queries"] > 0 and result["test_queries"] > 0
    train_q = {
        json.loads(l)["q"] for l in (tmp_path / "train.jsonl").read_text().splitlines()
    }
    test_q = {
        json.loads(l)["q"] for l in (tmp_path / "test.jsonl").read_text().splitlines()
    }
    assert not (train_q & test_q)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 1


# -- envelope and exit-code contract -------------------------------------------


def test_report_is_deterministic_outside_meta(artifacts, capsys):
    argv = ["index", "stats", "--index", str(artifacts / "plain.idx")]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    a, b = json.loads(out1), json.loads(out2)
    assert a["config"] == b["config"]
    assert a["result"] == b["result"]


def test_exit_zero_on_help(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_exit_one_on_usage_and_validation_errors(artifacts, corpus_dir, tmp_path, capsys):
    assert main(["definitely-not-a-command"]) == 1
    capsys.readouterr()
    assert main(["index", "stats", "--no-such-flag"]) == 1
    capsys.readouterr()
    # Validation error inside a handler: k = 0.
    code, _, err = _run(
        capsys,
        ["search", "--method", "trigram", "--query", "x",
         "--docs", str(corpus_dir / "docs.jsonl"), "--k", "0"],
    )
    assert code == 1
    assert "error:" in err
    # Missing required pairing: sparse without --index.
    code, _, err = _run(capsys, ["search", "--method", "sparse", "--query", "x"])
    assert code == 1
    # A malformed JSONL line names its file and line.
    bad = tmp_path / "bad.jsonl"
    out = str(tmp_path / "out")
    tok = str(artifacts / "tok.tsv")
    docs = str(corpus_dir / "docs.jsonl")
    log = str(corpus_dir / "log.jsonl")
    mine_pairs = ["mine", "pairs", "--log", str(bad), "--out", out]
    replay = ["sim", "replay", "--log", str(bad), "--catalog", docs]
    negatives = ["mine", "negatives", "--pairs", str(bad), "--log", log,
                 "--tokenizer", tok, "--out", out]
    encoder_train = ["encoder", "train", "--tokenizer", tok, "--triples", str(bad),
                     "--out", out]
    qrels = ["eval", "run", "--docs", docs, "--queries", str(corpus_dir / "queries.jsonl"),
             "--qrels", str(bad), "--method", "trigram"]
    vectors = ["index", "build", "--tokenizer", tok, "--docs", docs,
               "--vectors", str(bad), "--out", out]
    fuzzy = ["search", "--method", "fuzzy", "--query", "none", "--docs", str(bad)]
    log_row = '"e": "e1", "n": 3, "day": "2026-01-05"'
    cases = [
        (mine_pairs, "[1, 2]"),
        (mine_pairs, '{"q": 5, ' + log_row + "}"),
        (mine_pairs, '{"q": "a", "e": "e1", "n": 1e400, "day": "2026-01-05"}'),
        (replay, "[1, 2]"),
        (replay, '{"q": 5, ' + log_row + "}"),
        (negatives, "[1, 2]"),
        (encoder_train, "[1, 2]"),
        (encoder_train, '{"q": "a", "pos": "b", "negs": 5}'),
        (qrels, "[1, 2]"),
        (qrels, '{"q": "a", "docs": 5}'),
        (vectors, '{"id": "e00000", "vec": [1]}'),
        (vectors, '{"id": "e00000", "vec": {"a": null}}'),
        (vectors, '{"id": "e00000", "vec": {"zzzz": null}}'),
        (fuzzy, '{"id": "a", "text": null}'),
    ]
    for argv, line in cases:
        bad.write_text(line + "\n", encoding="utf-8")
        code, _, err = _run(capsys, argv)
        assert code == 1, (argv, line)
        assert err.startswith(f"error: {bad}:1:"), (argv, line, err)


def test_exit_one_on_a_file_that_is_not_utf8(artifacts, corpus_dir, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    docs = ["search", "--method", "trigram", "--query", "x", "--docs", str(bad)]
    corpus = ["tokenize", "train", "--input", str(bad), "--vocab-size", "50",
              "--out", str(tmp_path / "tok.tsv")]
    texts = ["tokenize", "apply", "--model", str(artifacts / "tok.tsv"), "--input", str(bad)]
    first = (corpus_dir / "docs.jsonl").read_bytes().splitlines(keepends=True)[0]
    for argv in (docs, corpus, texts):
        for raw, line in ((b"\xff\xfe{}\n", 1), (first + b"\r\n" + b"caf\xe9\n", 3)):
            bad.write_bytes(raw)
            code, _, err = _run(capsys, argv)
            assert code == 1, (argv, raw)
            assert err.startswith(f"error: {bad}:{line}: not UTF-8"), (argv, raw, err)


def test_exit_two_on_missing_and_corrupt_files(artifacts, tmp_path, capsys):
    code, _, err = _run(
        capsys, ["index", "stats", "--index", str(tmp_path / "nope.idx")]
    )
    assert code == 2
    assert "error:" in err

    corrupt = tmp_path / "corrupt.idx"
    raw = bytearray((artifacts / "plain.idx").read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    corrupt.write_bytes(bytes(raw))
    code, _, err = _run(capsys, ["index", "stats", "--index", str(corrupt)])
    assert code == 2
    assert "error:" in err


def test_exit_two_on_structurally_invalid_index(artifacts, tmp_path, capsys):
    # A posting that names a doc past the doc table, under a valid checksum.
    index = InvertedIndex.load(str(artifacts / "plain.idx"))
    ids, _ = index.postings[min(index.postings)]
    ids[-1] = index.doc_count + 5  # the postings are views of the saved arrays
    bad = tmp_path / "bad.idx"
    index.save(str(bad))
    code, out, err = _run(
        capsys,
        ["index", "search", "--index", str(bad),
         "--tokenizer", str(artifacts / "tok.tsv"), "--query", "pink"],
    )
    assert code == 2
    assert out == "" and "error:" in err


def test_index_build_takes_params_or_vectors(artifacts, corpus_dir, tmp_path, capsys):
    base = ["index", "build", "--tokenizer", str(artifacts / "tok.tsv"),
            "--docs", str(corpus_dir / "docs.jsonl")]
    params = ["--params", str(artifacts / "enc.sfne")]
    vectors = ["--vectors", str(artifacts / "vectors.jsonl")]
    code, _, _ = _run(capsys, base + params + vectors + ["--out", str(tmp_path / "both.idx")])
    assert code == 1
    assert not (tmp_path / "both.idx").exists()
    # The encoded vectors file and the params it came from build the same index.
    code, _, _ = _run(capsys, base + params + ["--out", str(tmp_path / "params.idx")])
    assert code == 0
    assert (tmp_path / "params.idx").read_bytes() == (artifacts / "enc.idx").read_bytes()


@pytest.mark.parametrize(
    "extra, message",
    [
        ('{"id": "e00000", "vec": {}}', "'e00000' listed twice"),
        ('{"id": "nope", "vec": {}}', "'nope' in "),
    ],
)
def test_index_build_rejects_vectors_that_do_not_match_the_docs(
    artifacts, corpus_dir, tmp_path, capsys, extra, message
):
    vectors = tmp_path / "vectors.jsonl"
    vectors.write_text((artifacts / "vectors.jsonl").read_text(encoding="utf-8") + extra + "\n",
                       encoding="utf-8")
    out = tmp_path / "extra.idx"
    code, _, err = _run(capsys, ["index", "build", "--tokenizer", str(artifacts / "tok.tsv"),
                                 "--docs", str(corpus_dir / "docs.jsonl"),
                                 "--vectors", str(vectors), "--out", str(out)])
    assert code == 1
    assert message in err
    assert not out.exists()
