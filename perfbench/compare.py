"""Run two sets of benchmark runs interleaved and compare them metric by metric.

    python3 perfbench/compare.py                       # this checkout against itself
    python3 perfbench/compare.py --a ../parent --b .   # parent checkout vs this one

For seeds 1-10 and every workload of BENCHMARK.json, at its run_seconds, it
runs set A and set B back to back, swapping which goes first on every other
seed, so slow spells of the host fall on both sets alike. It then prints,
per workload and end-to-end metric, each set's median and quartiles, the
spread (interquartile distance over the median), and how much worse B's
median is than A's, against the bound in BENCHMARK.json. The verdict is
"NO" where B's median is worse than A's by more than the bound, otherwise
"unresolved" where either set's spread exceeds the bound (the runs are too
noisy to tell a change of that size), otherwise "yes". It exits 1 on any
"NO" or on a different share of failed operations. Raw results go to
perfbench/out/compare-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=Path, default=ROOT, help="checkout root of set A")
    ap.add_argument("--b", type=Path, default=ROOT, help="checkout root of set B")
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]

    results: dict[str, dict[str, list[dict]]] = {w: {"A": [], "B": []} for w in workloads}
    for i, seed in enumerate(SEEDS):
        for workload in workloads:
            order = [("A", args.a), ("B", args.b)]
            if i % 2:
                order.reverse()
            for side, root in order:
                results[workload][side].append(run_once(root.resolve(), workload, seed, spec["run_seconds"]))
            print(f"seed {seed} {workload} done", file=sys.stderr, flush=True)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"compare-{int(time.time())}.json").write_text(json.dumps(results))

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    all_ok = True
    print(f"{'workload':14} {'metric':14} {'A median':>12} {'A q1..q3':>23} {'A spr':>6} "
          f"{'B median':>12} {'B spr':>6} {'B worse':>8} {'bound':>6}  verdict")
    for workload, sides in results.items():
        shares = {side: {r["failed"] / r["attempted"] for r in runs} for side, runs in sides.items()}
        if shares["A"] != shares["B"] or len(shares["A"]) != 1:
            all_ok = False
            print(f"{workload}: failed shares differ: {shares}")
        for name, metric in bounds.items():
            a = summarize([r["metrics"][name]["value"] for r in sides["A"]])
            b = summarize([r["metrics"][name]["value"] for r in sides["B"]])
            spread_a = (a[2] - a[1]) / a[0]
            spread_b = (b[2] - b[1]) / b[0]
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (b[0] - a[0]) / a[0]
            if worse > metric["bound"]:
                verdict = "NO"
            elif max(spread_a, spread_b) > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "yes"
            all_ok &= verdict != "NO"
            print(f"{workload:14} {name:14} {a[0]:12.5g} {a[1]:11.5g}..{a[2]:<11.5g} {spread_a:6.3f} "
                  f"{b[0]:12.5g} {spread_b:6.3f} {worse:8.3f} {metric['bound']:6.2f}  {verdict}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
