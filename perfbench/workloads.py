"""One workload in one process: set up, warm up, time whole rounds, check outputs.

Run by run.py; prints one JSON object as its last line, which holds the
moment the first timed operation started (run.py turns it into a set-up
time), the operations attempted and failed, and the timed rounds' seconds.

Operations run back to back (a closed loop with one client).  Each round
holds the same operations in a seed-dependent order, and a run always
completes whole rounds.  Output checks run between operations, outside the
timed spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import spans  # noqa: E402
from pseudosplines import cli, frames, serialize  # noqa: E402

FIGURE_Z = "3.2+1i"
TRANSFORM_LENGTH = 1 << 20
TRANSFORM_LEVELS = 5
TRANSFORM_ORDER = ("3.2+1i", "2")
SHIFTED_ORDER = "2,1,0.5"


def quiet_cli(args: list[str]) -> int:
    """cli.main with its console output kept in memory."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(args)


def _order_args(token: str) -> list[str]:
    parts = token.split(",")
    args = ["--z", parts[0], "--ell", parts[1]]
    if len(parts) == 3:
        args += ["--shift", parts[2]]
    return args


class Figures:
    """The three commands scripts/reproduce_figures.py runs for one ell."""

    def __init__(self, rng: np.random.Generator, work: pathlib.Path) -> None:
        self.rng = rng
        self.work = work
        self.first: dict[int, dict[str, str]] = {}

    def setup(self) -> None:
        pass

    def round(self) -> list[int]:
        return [int(ell) for ell in self.rng.permutation(4)]

    def run(self, ell: int) -> list[int]:
        base = ["--z", FIGURE_Z, "--ell", str(ell), "--out", str(self.work / f"ell{ell}")]
        time_args = ["--time-half-width", "8", "--dt", "1/32", "--time-tolerance", "1e-2"]
        return [
            quiet_cli(["filter", *base, "--grid", "1024"]),
            quiet_cli(["cascade", *base, *time_args]),
            quiet_cli(["framelets", *base, "--grid", "8192", "--with-hats", "--psi-window", "8",
                       "--with-time", *time_args]),
        ]

    def check(self, ell: int, codes: list[int]) -> bool:
        out = self.work / f"ell{ell}"
        try:
            oracles.require(codes == [0, 0, 0], f"ell={ell}: exit codes {codes}")
            digests = oracles.file_digests(out)
            oracles.check_figures(out, self.rng)
            oracles.check_same_render(digests, self.first.setdefault(ell, digests), f"ell={ell}")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return False


class Transform:
    """5-level multilevel round trip of one 2^20-sample complex signal."""

    def __init__(self, rng: np.random.Generator, work: pathlib.Path) -> None:
        self.rng = rng
        self.work = work

    def setup(self) -> None:
        n = TRANSFORM_LENGTH
        x = self.rng.standard_normal(n) + 1j * self.rng.standard_normal(n)
        path = self.work / "signal.csv"
        write_signal_csv(path, x)
        code = quiet_cli(["framelets", "--z", TRANSFORM_ORDER[0], "--ell", TRANSFORM_ORDER[1],
                          "--out", str(self.work)])
        oracles.require(code == 0, f"framelets exit {code}")
        # loaded the way `pseudosplines transform` loads its inputs
        self.bank = frames.bank_from_dict(serialize.load_json(self.work / "bank.json"))
        _, values = serialize.read_samples_csv(path)
        self.signal = frames.PeriodicSignal(values)
        oracles.require(np.array_equal(self.signal.samples, x), "signal CSV did not round-trip exactly")
        with open(self.work / "bank.json") as fh:
            self.taps = oracles.bank_taps(json.load(fh))

    def round(self) -> list[int]:
        return [0]

    def run(self, _: int):
        details, approx = frames.analyze_multilevel(self.bank, self.signal, TRANSFORM_LEVELS)
        back = frames.synthesize_multilevel(self.bank, details, approx)
        return details, approx, back.samples

    def check(self, _: int, result) -> bool:
        details, approx, back = result
        oracles.check_transform(self.signal.samples, self.taps, details, approx, back, self.rng)
        return False


class VerifySweep:
    """`verify` then `analyze` for one order of the default sweep plus one shifted order."""

    def __init__(self, rng: np.random.Generator, work: pathlib.Path) -> None:
        self.rng = rng
        self.work = work
        self.orders = [t for t in cli.DEFAULT_SWEEP.split(";") if t] + [SHIFTED_ORDER]

    def setup(self) -> None:
        pass

    def round(self) -> list[tuple[int, int]]:
        """Every order once, each with its own seed for verify's test signals."""
        seeds = self.rng.integers(1 << 31, size=len(self.orders))
        return [(int(i), int(seeds[i])) for i in self.rng.permutation(len(self.orders))]

    def run(self, op: tuple[int, int]) -> list[int]:
        index, seed = op
        args = _order_args(self.orders[index]) + ["--out", str(self.work)]
        return [quiet_cli(["verify", *args, "--seed", str(seed)]), quiet_cli(["analyze", *args])]

    def check(self, op: tuple[int, int], codes: list[int]) -> bool:
        parts = self.orders[op[0]].split(",")
        z = complex(parts[0].replace("i", "j"))
        shift = float(parts[2]) if len(parts) == 3 else 0.0
        reports = []
        for name in ("verify_report.json", "analyze_report.json"):
            with open(self.work / name) as fh:
                reports.append(json.load(fh))
            os.remove(self.work / name)
        return oracles.check_verify(z, int(parts[1]), shift, codes[0], codes[1], *reports)


WORKLOADS = {"figures": Figures, "transform": Transform, "verify_sweep": VerifySweep}


def write_signal_csv(path, x: np.ndarray, chunk: int = 1 << 14) -> None:
    """index,re,im,abs rows; 17 significant digits read back to the same doubles."""
    row = "%d,%.17g,%.17g,%.17g\n"
    with open(path, "w") as fh:
        fh.write("index,re,im,abs\n")
        for start in range(0, len(x), chunk):
            block = x[start : start + chunk]
            cols = np.empty((len(block), 4), dtype=object)
            cols[:, 0] = range(start, start + len(block))
            cols[:, 1] = block.real.tolist()
            cols[:, 2] = block.imag.tolist()
            cols[:, 3] = np.abs(block).tolist()
            fh.write((row * len(block)) % tuple(cols.ravel().tolist()))


def checked(workload, op, result, problems: list[str]) -> bool:
    """Run the output checks of one operation; a failed check is recorded, not raised."""
    try:
        return workload.check(op, result)
    except oracles.CheckFailed as exc:
        problems.append(str(exc))
        sys.stderr.write(f"check failed: {exc}\n")
        return False


def measure(workload, seconds: float, tracer: spans.Tracer | None) -> dict:
    """Time whole rounds until `seconds` of operation time have passed.

    Traced runs alternate traced and untraced rounds, so the tracing
    overhead is measured under the same conditions as the traced figures.
    """
    rounds = {True: [], False: []}
    problems: list[str] = []
    attempted = failed = 0
    traced_ops: list[int] = []
    elapsed = 0.0
    while elapsed < seconds or (tracer is not None and not (rounds[True] and rounds[False])):
        traced = tracer is not None and len(rounds[True]) <= len(rounds[False])
        if traced:
            tracer.install()
        elif tracer is not None:
            tracer.uninstall()
        ops = workload.round()
        spent = 0.0
        for op in ops:
            if traced:
                tracer.begin_op(attempted)
                traced_ops.append(attempted)
            start = time.perf_counter()
            try:
                result = workload.run(op)
            finally:
                spent += time.perf_counter() - start
                if traced:
                    tracer.end_op()
            failed += checked(workload, op, result, problems)
            result = None  # free this operation's output before the next one runs
            attempted += 1
        rounds[traced].append(spent)
        elapsed += spent
    if tracer is not None:
        tracer.uninstall()
    per_round = len(ops)
    return {"attempted": attempted, "failed": int(failed), "rounds": rounds,
            "per_round": per_round, "traced_ops": traced_ops, "problems": problems}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory for the run's files")
    ns = parser.parse_args()

    work = pathlib.Path(ns.work)
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([ns.seed, sorted(WORKLOADS).index(ns.workload)])
    tracer = spans.Tracer() if ns.trace else None
    if tracer is not None:
        tracer.install()
    workload = WORKLOADS[ns.workload](rng, work)
    workload.setup()
    warm = workload.round()[0]
    if tracer is not None:
        tracer.op = spans.WARMUP
    warm_problems: list[str] = []
    checked(workload, warm, workload.run(warm), warm_problems)
    if tracer is not None:
        tracer.uninstall()
    ready_at = time.time()

    result = measure(workload, ns.seconds, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "ready_at": ready_at,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "peak_rss_mb": rss_mb,
        "problems": warm_problems + result["problems"],
        "round_seconds": result["rounds"][False] + result["rounds"][True],
    }
    if tracer is not None:
        plain = statistics.fmean(result["rounds"][False])
        traced = statistics.fmean(result["rounds"][True])
        metrics = tracer.metrics(result["traced_ops"])
        metrics["trace.ops_per_s"] = result["per_round"] / traced
        metrics["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
        out["trace"] = metrics
        tracer.write(ROOT / ".perfbench" / "traces" / f"{ns.workload}-seed{ns.seed}.jsonl.gz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
