#!/usr/bin/env python3
"""Same-code stability check: run workloads over several seeds, print spreads.

    python3 perfbench/stability.py --workloads figures,transform,verify_sweep --seeds 1-10

For each end-to-end metric this prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread, i.e. the
interquartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json.  Running it twice on the same code and comparing the
two medians is the same-code comparison the bounds are meant to pass.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="figures,transform,verify_sweep")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ns = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = ns.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in ns.workloads.split(","):
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in parse_seeds(ns.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.add((result["failed"] / result["attempted"], result["correct"]))
            row = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed {result['failed']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
            for key, value in row.items():
                values.setdefault(key, []).append(value)
        print(f"{workload}: (failed share, correct) over the runs: {sorted(shares)}")
        for key, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            print(f"{workload} {key}: median {median:.4g} q1 {q1:.4g} q3 {q3:.4g} "
                  f"spread {(q3 - q1) / median:.3f} bound {bounds[key]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
