"""CSV and JSON serialization with bit-exact float round-trips.

All floats are written with Python's shortest round-trip repr, so reading a
file back restores the exact double-precision values.  JSON objects are
emitted with sorted keys and fixed separators, making every writer
deterministic byte for byte.

Shapes:
  - sample CSV: header ``gamma,re,im,abs`` (or ``t,...`` for time data),
    one row per sample.
  - bank JSON: {"order": {"z_re", "z_im", "ell", "u"}, "resolution", "truncation_eps",
    "coeffs": {"0".."3": {"offset", "values": [[re, im], ...],
    "tail_norm", "tail_l1"}}}; bank_from_dict ignores any other key
    of a band, such as the "aliasing_estimate" older files carry.
"""

from __future__ import annotations

import json
import math
import warnings
from typing import Sequence

import numpy as np

from .errors import DomainError
from .symbol import PseudoSplineOrder

__all__ = [
    "format_float",
    "write_samples_csv",
    "read_samples_csv",
    "order_to_dict",
    "order_from_dict",
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


CSV_CHUNK_ROWS = 1 << 16


def _require_finite(*columns: np.ndarray) -> None:
    """DomainError naming the first non-finite value, taking the columns in order."""
    for column in columns:
        bad = ~np.isfinite(column)
        if bad.any():
            raise DomainError(f"refusing to serialize non-finite value {float(column[bad.argmax()])!r}")


def write_samples_csv(path, axis_name: str, axis: Sequence[float], values) -> None:
    """Header plus one ``axis,re,im,abs`` row per sample, floats as format_float.

    Rows are formatted in bulk, CSV_CHUNK_ROWS rows per write, which bounds
    the text held in memory for million-sample signals.  ``abs`` is
    ``np.hypot`` of the two parts, the libm ``hypot`` that Python's abs of a
    complex value calls, so the digits are Python's; ``np.abs`` differs in
    the last digit for some values, which would change the bytes written.

    A row at axis value ``a < 0`` whose chunk holds a partner row at ``-a``
    with the same ``re`` and ``im`` bits is written as ``"-"`` plus the
    partner's text, since ``repr(-a) == "-" + repr(a)`` for ``a > 0``; the
    bytes are the same as formatting the row itself.  Partners are looked
    up by one searchsorted, so an increasing axis finds all of them (an even
    series on a symmetric grid formats half its rows) and any other order
    fewer.
    """
    axis = np.asarray(axis, dtype=float)
    values = np.asarray(values, dtype=complex)
    with open(path, "w", newline="") as fh:
        fh.write(f"{axis_name},re,im,abs\n")
        rows = min(len(axis), len(values))
        for start in range(0, rows, CSV_CHUNK_ROWS):
            stop = min(start + CSV_CHUNK_ROWS, rows)
            t, block = axis[start:stop], values[start:stop]
            with np.errstate(over="ignore"):  # |v| beyond the largest double is inf, refused below
                magnitude = np.hypot(block.real, block.imag)
            columns = (t, block.real, block.imag, magnitude)
            _require_finite(*columns)
            partner = np.minimum(np.searchsorted(t, -t), len(t) - 1)
            mirror = (t < 0) & (t[partner] == -t)
            for part in (block.real.view(np.int64), block.imag.view(np.int64)):
                mirror &= part[partner] == part
            keep = ~mirror
            lines = np.empty(len(t), dtype=object)
            kept = (column[keep].tolist() for column in columns)
            lines[keep] = [f"{a!r},{re!r},{im!r},{mag!r}\n" for a, re, im, mag in zip(*kept)]
            lines[mirror] = "-" + lines[partner[mirror]]  # elementwise on an object array
            fh.write("".join(lines))


def read_samples_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Axis and values of a sample CSV; values are set part by part, as re + 1j*im loses -0.0."""
    with open(path, newline="") as fh:
        if len(fh.readline().split(",")) < 3:
            raise DomainError(f"{path}: not a sample CSV (missing header)")
        with warnings.catch_warnings():  # a header-only file reads as no rows
            warnings.simplefilter("ignore", UserWarning)
            try:
                data = np.loadtxt(fh, delimiter=",", usecols=(0, 1, 2), ndmin=2)
            except ValueError as exc:
                raise DomainError(f"{path}: not a sample CSV ({exc})") from None
    vals = np.empty(len(data), dtype=complex)
    vals.real = data[:, 1]
    vals.imag = data[:, 2]
    return data[:, 0].copy(), vals


def order_to_dict(order: PseudoSplineOrder) -> dict:
    return {"z_re": order.z.real, "z_im": order.z.imag, "ell": order.ell, "u": order.shift}


def order_from_dict(d: dict) -> PseudoSplineOrder:
    return PseudoSplineOrder(
        complex(float(d["z_re"]), float(d.get("z_im", 0.0))),
        int(d["ell"]),
        float(d.get("u", 0.0)),
    )


def dump_json(obj) -> str:
    """Deterministic JSON text (sorted keys, fixed separators, trailing \\n)."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dump_json(obj))


def load_json(path) -> dict:
    """The JSON object a file holds; DomainError if it holds invalid JSON or no object."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise DomainError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise DomainError(f"{path} must hold a JSON object")
    return obj
