"""In-memory timing spans around the package's public functions.

Tracer.install() replaces every module attribute through which the package
reaches one of its public functions (`cli.run_cascade`,
`checks.run_cascade`, `analysis.run_cascade` and `cascade.run_cascade` all
get the same wrapper) and FilterCoefficients.wrapped on its class;
uninstall() puts the originals back.  Each call records one span
(name, start, end, parent span, operation id).  Nothing in the package
changes on disk.

`special` is reached only through cached binomials and is not wrapped; its
time lands in the calling layer's self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "symbol", "cascade", "frames", "analysis", "checks", "serialize")

# build_parser stays inside cli.main's self time, which is what the
# argument-parsing metric measures; format_float is called four times per
# CSV row, and a span per call would cost more than the writer it measures
UNWRAPPED = {"cli.build_parser", "serialize.format_float"}

SETUP = "setup"
WARMUP = "warmup"


def _eval_h0_points(args, kwargs, result):
    return np.size(kwargs["gamma"] if "gamma" in kwargs else args[1])


def _cascade_levels(args, kwargs, result):
    return result[1].levels


def _inversion_terms(args, kwargs, result):
    return len(args[0]) * len(args[2])


def _analyzed_samples(args, kwargs, result):
    return args[1].length


def _written_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# work counted at the span boundary, per call: name -> (count name, function)
COUNTERS = {
    "symbol.eval_H0": ("symbol.eval_H0.points", _eval_h0_points),
    "cascade.run_cascade": ("cascade.run_cascade.levels", _cascade_levels),
    "cascade.fourier_to_time": ("cascade.fourier_to_time.terms", _inversion_terms),
    "frames.analyze": ("frames.analyze.samples", _analyzed_samples),
    "serialize.write_samples_csv": ("serialize.write_samples_csv.bytes", _written_bytes),
}


class Tracer:
    """Records spans while installed; `op` labels the spans of one operation."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.op = SETUP
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if counter is not None:
                self.counts[(self.op, counter[0])] += counter[1](args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module("pseudosplines")]
        modules += [importlib.import_module(f"pseudosplines.{layer}") for layer in LAYERS]
        targets = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    targets[id(obj)] = self._wrap(obj, name)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in targets:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, targets[id(obj)])
        taps = modules[1 + LAYERS.index("frames")].FilterCoefficients
        self._patches.append((taps, "wrapped", taps.wrapped))
        taps.wrapped = self._wrap(taps.wrapped, "frames.FilterCoefficients.wrapped")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def begin_op(self, op: int) -> None:
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append(None)
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        end = time.perf_counter()
        index = self._stack.pop()
        self.spans[index] = ("bench.op", self._op_start, end, -1, self.op)

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: [name, start, end, parent, op]."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self, ops: list[int]) -> dict[str, float]:
        """Per-operation totals over the given operation ids.

        A span's self time is its duration minus its children's durations,
        so the layers' self times plus bench.self (time in the operation
        outside every layer span) add up to the operation's wall time.
        """
        selected = set(ops)
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if op in selected and parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if op not in selected:
                continue
            duration = end - start
            total[name] += duration
            self_time[name] += duration - child_time[index]
            calls[name] += 1
        n = max(len(selected), 1)
        ms = 1e3 / n
        out = {
            "trace.spans_per_op": sum(calls.values()) / n,
            "trace.op_ms": total["bench.op"] * ms,
            "bench.self_ms_per_op": self_time["bench.op"] * ms,
        }
        for layer in LAYERS:
            layer_self = sum(v for k, v in self_time.items() if k.startswith(layer + "."))
            out[f"{layer}.self_ms_per_op"] = layer_self * ms
        for name in ("cli.main", "cascade.run_cascade", "checks.run_frames_checks"):
            out[f"{name}.self_ms_per_op"] = self_time[name] * ms
        for name in ("symbol.eval_H0", "symbol.partition_extrema", "cascade.fourier_to_time",
                     "frames.build_bank", "frames.analyze", "frames.synthesize",
                     "frames.framelet_time", "frames.framelet_hat", "analysis.full_report",
                     "checks.run_symbol_checks", "checks.run_cascade_checks",
                     "serialize.write_samples_csv", "serialize.write_json"):
            out[f"{name}.ms_per_op"] = total[name] * ms
        for key, _ in COUNTERS.values():
            out[f"{key}_per_op"] = sum(v for (op, k), v in self.counts.items() if k == key and op in selected) / n
        out["frames.analyze.calls_per_op"] = calls["frames.analyze"] / n
        transforms = calls["frames.analyze"] + calls["frames.synthesize"]
        out["frames.spectra_per_call"] = (
            calls["frames.FilterCoefficients.wrapped"] / transforms if transforms else 0.0
        )
        out["serialize.read_samples_csv.ms"] = 1e3 * sum(
            end - start for name, start, end, parent, op in self.spans
            if name == "serialize.read_samples_csv" and op == SETUP
        )
        return out
