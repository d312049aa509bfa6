"""CSV and JSON serialization with bit-exact float round-trips.

All floats are written with Python's shortest round-trip repr, so reading a
file back restores the exact double-precision values.  JSON objects are
emitted with sorted keys and fixed separators, making every writer
deterministic byte for byte.

Shapes:
  - sample CSV: header ``gamma,re,im,abs`` (or ``t,...`` for time data),
    one row per sample.
  - symbol JSON: {"order": {"z_re", "z_im", "ell", "u"}, "resolution",
    "values": [[re, im], ...]}.
  - bank JSON: {"order", "resolution", "truncation_eps",
    "coeffs": {"0".."3": {"offset", "values": [[re, im], ...],
    "tail_norm", "aliasing_estimate"}}}.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Sequence

import numpy as np

from .errors import DomainError
from .symbol import PseudoSplineOrder, SampledSymbol

__all__ = [
    "format_float",
    "write_samples_csv",
    "read_samples_csv",
    "order_to_dict",
    "order_from_dict",
    "symbol_to_dict",
    "dump_json",
    "write_json",
    "load_json",
]


def format_float(x: float) -> str:
    """Shortest decimal that round-trips to the same double."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"refusing to serialize non-finite value {x!r}")
    return repr(x)


def _pair(value: complex) -> list[float]:
    value = complex(value)
    return [value.real, value.imag]


CSV_CHUNK_ROWS = 1 << 16


def _require_finite(column: list[float]) -> None:
    if not all(map(math.isfinite, column)):
        bad = next(x for x in column if not math.isfinite(x))
        raise DomainError(f"refusing to serialize non-finite value {bad!r}")


def write_samples_csv(path, axis_name: str, axis: Sequence[float], values) -> None:
    """Header plus one ``axis,re,im,abs`` row per sample, floats as format_float.

    Rows are formatted in bulk, CSV_CHUNK_ROWS rows per write, which bounds
    the text held in memory for million-sample signals.  ``abs`` is Python's
    abs of each complex value: numpy's vectorized abs differs in the last
    digit for some values, which would change the bytes written.
    """
    axis = np.asarray(axis, dtype=float)
    values = np.asarray(values, dtype=complex)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow([axis_name, "re", "im", "abs"])
        for start in range(0, min(len(axis), len(values)), CSV_CHUNK_ROWS):
            stop = start + CSV_CHUNK_ROWS
            block = values[start:stop]
            columns = (axis[start:stop].tolist(), block.real.tolist(), block.imag.tolist())
            for column in columns:
                _require_finite(column)
            try:
                columns += (list(map(abs, block.tolist())),)
            except OverflowError:  # |v| beyond the largest double
                raise DomainError("refusing to serialize non-finite value inf") from None
            fh.write("".join(f"{t!r},{re!r},{im!r},{mag!r}\n" for t, re, im, mag in zip(*columns)))


def read_samples_csv(path) -> tuple[np.ndarray, np.ndarray]:
    axis: list[float] = []
    vals: list[complex] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 3:
            raise DomainError(f"{path}: not a sample CSV (missing header)")
        for row in reader:
            if not row:
                continue
            axis.append(float(row[0]))
            vals.append(complex(float(row[1]), float(row[2])))
    return np.asarray(axis, dtype=float), np.asarray(vals, dtype=complex)


def order_to_dict(order: PseudoSplineOrder) -> dict:
    return {"z_re": order.z.real, "z_im": order.z.imag, "ell": order.ell, "u": order.shift}


def order_from_dict(d: dict) -> PseudoSplineOrder:
    return PseudoSplineOrder(
        complex(float(d["z_re"]), float(d.get("z_im", 0.0))),
        int(d["ell"]),
        float(d.get("u", 0.0)),
    )


def symbol_to_dict(symbol: SampledSymbol) -> dict:
    return {
        "order": order_to_dict(symbol.order),
        "resolution": symbol.grid.resolution,
        "values": [_pair(v) for v in symbol.values],
    }


def dump_json(obj) -> str:
    """Deterministic JSON text (sorted keys, fixed separators, trailing \\n)."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dump_json(obj))


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
