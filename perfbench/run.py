"""Benchmark entry point: one workload, one fresh process, one JSON result line.

    python3 perfbench/run.py --workload serve-large --seed 1 --seconds 10 --trace 0

The workload runs in a child process with the BLAS/OpenMP thread count
pinned to 1 and a fixed PYTHONHASHSEED, so runs differ only by the seed
given here. The child's last stdout line is printed as this program's last
line; if the child fails, this exits non-zero without printing a result.
Workloads: serve-large, learn-offline, replay-daily (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    env = dict(os.environ, **PINNED_ENV)
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"workload {args.workload} exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"workload {args.workload} exited with {child.returncode}", file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("workload printed no result line", file=sys.stderr)
        return 1
    if set(result) != RESULT_KEYS:
        print(f"workload result has keys {sorted(result)}", file=sys.stderr)
        return 1
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        print(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
