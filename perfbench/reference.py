"""Reference figures for the paper's comparisons; printed, never gated.

    python3 perfbench/reference.py --seed 1

Serves the serve-large stream with the character-trigram baseline
(recall@10 and queries per second, same closed loop as the benchmark) and
replays replay-daily's log slices day by day with the trigram channel
(mean recall at the fixed point). Run it in the pinned environment run.py uses, e.g.
`PYTHONHASHSEED=0 OPENBLAS_NUM_THREADS=1 python3 perfbench/reference.py`.
"""

from __future__ import annotations

import argparse
import json
import time

import checks
from workloads import K, REPLAY_EPOCHS, ROOT, ROUNDS, WARMUP_QUERIES, WORKLOADS, make_inputs

from sfns import baselines, hci


def trigram_stream(seed: int, seconds: float) -> tuple[float, float]:
    inputs = make_inputs(WORKLOADS["serve-large"], seed, 1)
    tindex = baselines.build_trigram_index(inputs.corpus.docs)
    stream = inputs.stream
    for q in stream[:WARMUP_QUERIES]:
        baselines.trigram_retrieve(tindex, q, K)
    ranked: dict[str, list[str]] = {}
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < len(stream) or time.perf_counter() < deadline:
        q = stream[i % len(stream)]
        hits = baselines.trigram_retrieve(tindex, q, K)
        if i < len(stream):
            ranked[q] = [h.doc_id for h in hits]
        i += 1
    qps = i / (time.perf_counter() - start)
    return checks.recall_at_10(ranked, inputs.corpus.qrels), qps


def trigram_replay(seed: int) -> float:
    """Mean fixed-point recall over the same slices the benchmark replays."""
    wl = WORKLOADS["replay-daily"]
    recalls = [
        hci.run_replay(log, catalog, hci.ChannelConfig("trigram"), epochs=REPLAY_EPOCHS).final_recall
        for log, catalog in make_inputs(wl, seed, ROUNDS).replays
    ]
    return sum(recalls) / len(recalls)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    recall, qps = trigram_stream(args.seed, seconds)
    print(f"serve-large   trigram recall_at_10 {recall:.4f}  qps {qps:.1f}")
    print(f"replay-daily  trigram replay_recall {trigram_replay(args.seed):.4f}")


if __name__ == "__main__":
    main()
