#!/usr/bin/env python3
"""Benchmark of the pseudosplines package: figures, transform, verify_sweep.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Each workload runs in fresh child processes (perfbench/workloads.py).  With
--trace 0 the last line of output is one JSON object with the end-to-end
metrics ops_per_s, setup_s and peak_rss_mb; with --trace 1 it holds the
per-layer metrics of a traced run instead.  `--workload all` runs every
workload in turn and prints one such line per workload.

An untraced run splits its timed phase over several processes (PROCESSES).
ops_per_s is the operations of all of them over their total timed seconds
(the output checks between operations are not timed); setup_s is the median,
over the processes, of the time from spawning one to the moment its first
timed operation starts; peak_rss_mb is the largest of their peaks.  The
workload processes run with one BLAS thread.  Scratch files, results and
traces go to .perfbench/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("figures", "transform", "verify_sweep")
# processes per untraced run: the timed phase is split evenly over them
# and each gives one set-up sample; fewer for transform, whose set-up
# takes seconds of the run's time budget
PROCESSES = {"figures": 3, "transform": 2, "verify_sweep": 3}
DEADLINE_S = 170.0
# one BLAS thread: the workloads are a single client, and a second BLAS
# thread on a shared 2-CPU host made `figures` both slower and unsteadier
# (its dense inverse Fourier sums are matrix-vector products)
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class ChildFailed(RuntimeError):
    pass


def run_child(args: list[str], deadline: float) -> tuple[float, dict]:
    """Spawn one workload process; return (spawn time, its JSON report)."""
    started = time.time()
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("out of time before spawning " + " ".join(args))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), *args],
            cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE, timeout=timeout, text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"workload process timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"workload process exited with {proc.returncode}")
    return started, json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> tuple[dict, dict]:
    work = OUT / "work" / f"{name}-{os.getpid()}"
    common = ["--workload", name, "--seed", str(seed), "--work", str(work)]
    try:
        if trace:
            _, report = run_child(common + ["--seconds", str(seconds), "--trace", "1"], deadline)
            values = report["trace"]
        else:
            # one process per share of the timed phase, so that ops_per_s
            # averages over processes as well as over the host's phases
            reports, setups = [], []
            for _ in range(PROCESSES[name]):
                args = ["--seconds", str(seconds / PROCESSES[name]), "--trace", "0"]
                started, part = run_child(common + args, deadline)
                shutil.rmtree(work, ignore_errors=True)
                reports.append(part)
                setups.append(part["ready_at"] - started)
            report = {key: [x for r in reports for x in r[key]] for key in ("problems", "round_seconds")}
            for key in ("attempted", "failed"):
                report[key] = sum(r[key] for r in reports)
            values = {
                "ops_per_s": report["attempted"] / sum(report["round_seconds"]),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for problem in report["problems"]:
        sys.stderr.write(f"{name}: {problem}\n")
    result = {
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    details = {"round_seconds": report["round_seconds"], "problems": report["problems"]}
    if not trace:
        details["setup_samples"] = setups
    return result, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args()

    if not (ROOT / "src" / "pseudosplines" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source under {ROOT / 'src'}\n")
        return 2
    names = WORKLOADS if ns.workload == "all" else (ns.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    for name in names:
        try:
            results[name], details = run_workload(name, ns.seed, ns.seconds, ns.trace, deadline)
        except ChildFailed as exc:
            sys.stderr.write(f"error: {name}: {exc}\n")
            return 1
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        path = OUT / "results" / f"{name}-seed{ns.seed}-trace{ns.trace}.json"
        path.write_text(json.dumps({**results[name], **details}, indent=2, sort_keys=True) + "\n")
    for name in names:
        if len(names) > 1:
            print(f"{name}: " + json.dumps(results[name]))
        else:
            print(json.dumps(results[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
