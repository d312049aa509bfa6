"""Command line interface.

Subcommands: filter, cascade, framelets, transform, verify, analyze, sweep.
All file output is byte-deterministic: floats are written with repr, JSON
keys are sorted, and nothing records timestamps or hostnames.

A --config file holds a JSON object keyed by option dest (time_half_width
for --time-half-width). A flag takes true (its bare option) or false (no
token), any other option a string or number (--opt=value). These tokens go
before the command line's, so each meets its option's type and the command
line wins. Keys that only other commands have are skipped.

Exit codes: 0 success, 1 I/O failure, 2 invalid configuration or order
parameters, 3 verification failure, 4 unattainable tolerance.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import frames
from .analysis import full_report
from .cascade import _cascade_grid, _time_checks, run_cascade, to_time_domain
from .checks import run_all
from .errors import (
    ConditionError,
    ConsistencyError,
    DomainError,
    PseudoSplineError,
    ToleranceError,
    VerificationFailure,
)
from .serialize import (
    dump_json,
    format_float,
    load_json,
    order_to_dict,
    read_samples_csv,
    write_json,
    write_samples_csv,
)
from .symbol import PseudoSplineOrder, TorusGrid, partition_extrema, sample_H0, theta_bound

__all__ = ["main", "build_parser", "DEFAULT_SWEEP"]

DEFAULT_SWEEP = (
    "1,0;1.5,0;2,0;2,1;"
    "3.5,0;3.5,1;3.5,2;3.5,3;"
    "3.2+1i,0;3.2+1i,1;3.2+1i,2;3.2+1i,3;"
    "4.2,0;4.2,1;4.2,2;4.2,3"
)


def _to_complex(value: str) -> complex:
    """Accept 'a+bi' strings, also plain reals."""
    text = value.strip().replace(" ", "")
    if text.endswith("i"):
        text = text[:-1] + "j"
    try:
        return complex(text)
    except ValueError:
        raise DomainError(f"cannot parse complex order {value!r}; expected e.g. 3.2+1i") from None


def _to_step(value: str) -> float:
    """Grid steps are given as fractions like 1/64 (or plain floats)."""
    text = value.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        try:
            step = float(num) / float(den)
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"cannot parse step {value!r}") from None
    else:
        try:
            step = float(text)
        except ValueError:
            raise DomainError(f"cannot parse step {value!r}") from None
    if not step > 0.0:
        raise DomainError(f"step must be positive, got {value!r}")
    return step


def _order_from_args(ns: argparse.Namespace) -> PseudoSplineOrder:
    if ns.z is None:
        raise DomainError("the order parameter z is required (--z or config key 'z')")
    return PseudoSplineOrder(z=_to_complex(ns.z), ell=ns.ell, shift=ns.shift)


def _outdir(ns: argparse.Namespace) -> str:
    out = ns.out or os.environ.get("PSEUDOSPLINES_OUTDIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _emit(path: str) -> None:
    sys.stdout.write(f"wrote {path}\n")


def _write_series(ns, stem: str, axis_name: str, axis, values) -> None:
    """Write one series as <stem>.csv in the output directory."""
    path = os.path.join(_outdir(ns), stem + ".csv")
    write_samples_csv(path, axis_name, axis, values)
    _emit(path)


def _parse_bands(text: str) -> list[int]:
    try:
        bands = sorted({int(tok) for tok in text.split(",") if tok.strip() != ""})
    except ValueError:
        raise DomainError(f"cannot parse band list {text!r}; expected e.g. 0,1,2,3") from None
    if not bands or any(b not in (0, 1, 2, 3) for b in bands):
        raise DomainError(f"band indices must lie in 0..3, got {text!r}")
    return bands


def _parse_orders(text: str) -> list[PseudoSplineOrder]:
    orders = []
    for token in text.split(";"):
        token = token.strip()
        if not token:
            continue
        parts = token.split(",")
        message = f"cannot parse order token {token!r}; expected z,ell or z,ell,u"
        if len(parts) not in (2, 3):
            raise DomainError(message)
        z = _to_complex(parts[0])
        try:
            ell = int(parts[1])
            shift = float(parts[2]) if len(parts) == 3 else 0.0
        except ValueError:
            raise DomainError(message) from None
        orders.append(PseudoSplineOrder(z=z, ell=ell, shift=shift))
    if not orders:
        raise DomainError(f"empty order sweep {text!r}")
    return orders


def _json_value(x: float):
    return x if math.isfinite(x) else repr(x)


def cmd_filter(ns: argparse.Namespace) -> int:
    order = _order_from_args(ns)
    grid = TorusGrid(ns.grid)
    bands = _parse_bands(ns.bands)
    symbols = (sample_H0(order, grid),) if bands == [0] else frames.sample_bank(order, grid)
    for band in bands:
        _write_series(ns, f"filter_h{band}", "gamma", grid.gamma, symbols[band])
    return 0


def cmd_cascade(ns: argparse.Namespace) -> int:
    order = _order_from_args(ns)
    step, dt = _to_step(ns.step), _to_step(ns.dt)
    _time_checks(step, ns.time_half_width, dt, ns.time_tolerance)  # whether or not the time stage runs
    profile, diag = run_cascade(
        order,
        levels=ns.levels,
        window=ns.window,
        step=step,
        sup_tolerance=ns.sup_tolerance,
    )
    _write_series(ns, "cascade_phihat", "gamma", profile.points, profile.values)
    outdir = _outdir(ns)
    diag_path = os.path.join(outdir, "cascade_diagnostics.json")
    write_json(diag_path, diag.to_dict())
    _emit(diag_path)
    sys.stdout.write(f"converged={diag.converged} level={diag.converged_level}\n")
    if ns.time_half_width is not None:
        tp = to_time_domain(profile, half_width=ns.time_half_width, step=dt, tolerance=ns.time_tolerance)
        _write_series(ns, "cascade_phi_time", "t", tp.points, tp.values)
        sys.stdout.write(f"tail_estimate={format_float(tp.tail_estimate)}\n")
    return 0


def cmd_framelets(ns: argparse.Namespace) -> int:
    order = _order_from_args(ns)
    step, dt = _to_step(ns.step), _to_step(ns.dt)
    # every stage's options are checked, whether or not the stage runs
    _cascade_grid(ns.levels, ns.window, step, ns.sup_tolerance)
    _cascade_grid(ns.levels, ns.psi_window / 2.0, step / 2.0)
    _time_checks(step, ns.time_half_width, dt, ns.time_tolerance)
    frames._points_per_unit(dt)
    bank = frames.build_bank(order, TorusGrid(ns.grid), truncation_eps=ns.eps)
    outdir = _outdir(ns)
    bank_path = os.path.join(outdir, "bank.json")
    write_json(bank_path, frames.bank_to_dict(bank))
    _emit(bank_path)
    for band in range(4):
        c = bank.coeffs[band]
        sys.stdout.write(
            f"band {band}: support_radius={c.support_radius} "
            f"tail_norm={format_float(c.tail_norm)}\n"
        )
    if ns.with_hats or ns.with_time:
        cascade = functools.partial(run_cascade, order, levels=ns.levels, sup_tolerance=ns.sup_tolerance)
    if ns.with_hats:
        # phi_hat on the gamma/2 points of the psi_hat grid k * step, |k * step| <= psi_window
        half, _ = cascade(window=ns.psi_window / 2.0, step=step / 2.0)
        for n in (1, 2, 3):
            psi_hat = frames.framelet_hat(half, n)
            _write_series(ns, f"framelet_psihat_n{n}", "gamma", psi_hat.points, psi_hat.values)
    if ns.with_time:
        profile, _ = cascade(window=ns.window, step=step)
        phi = to_time_domain(profile, half_width=ns.time_half_width, step=dt, tolerance=ns.time_tolerance)
        for n in (1, 2, 3):
            psi = frames.framelet_time(bank, phi, n)
            _write_series(ns, f"framelet_psi_n{n}", "t", psi.points, psi.values)
            sys.stdout.write(f"psi_n{n} tail_estimate={format_float(psi.tail_estimate)}\n")
    return 0


def cmd_transform(ns: argparse.Namespace) -> int:
    if ns.bank is None or ns.input is None:
        raise DomainError("transform requires --bank and --input")
    bank = frames.bank_from_dict(load_json(ns.bank))
    _, values = read_samples_csv(ns.input)
    signal = frames.PeriodicSignal(values)
    levels = ns.levels
    details, approx = frames.analyze_multilevel(bank, signal, levels)
    series = {"subband_n0" if levels == 1 else "subband_approx": approx}
    for level, level_details in enumerate(details, start=1):
        for n, sub in enumerate(level_details, start=1):
            series[f"subband_n{n}" if levels == 1 else f"subband_l{level}_n{n}"] = sub
    if ns.roundtrip:
        series["reconstruction"] = frames.synthesize_multilevel(bank, details, approx).samples
    for stem, values in series.items():
        _write_series(ns, stem, "index", np.arange(len(values)), values)
    if ns.roundtrip:
        # relative to the input's norm; a zero input reports the absolute error
        err = float(np.linalg.norm(series["reconstruction"] - signal.samples))
        err /= float(np.linalg.norm(signal.samples)) or 1.0
        sys.stdout.write(f"roundtrip_relative_error={format_float(err)}\n")
    sys.stdout.write(f"input_energy={format_float(signal.energy())}\n")
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    order = _order_from_args(ns)
    try:
        ext = partition_extrema(order, TorusGrid(ns.grid))
    except PseudoSplineError:
        ext = None  # the symbol suite raises it again, as its error entry
    results, frames_resolution = run_all(
        order,
        symbol_resolution=ns.grid,
        frames_resolution=ns.frames_grid,
        levels=ns.levels,
        window=ns.window,
        step=_to_step(ns.step),
        truncation_eps=ns.eps,
        signal_length=ns.signal_length,
        seed=ns.seed,
        extrema=ext,
    )
    partition = None
    if ext is not None:
        theta = theta_bound(order)
        partition = {**ext._asdict(), "theta_bound": theta}
        sys.stdout.write(
            f"partition min={format_float(ext.min)} theta_bound={format_float(theta)} "
            f"max={format_float(ext.max)}\n"
        )
    sys.stdout.write(f"frames_resolution={frames_resolution}\n")
    all_passed = True
    report = {
        "order": order_to_dict(order),
        "partition": partition,
        "frames_resolution": frames_resolution,
        "suites": {},
    }
    for suite in ("symbol", "cascade", "frames"):
        entries = []
        for r in results[suite]:
            status = "PASS" if r.passed else "FAIL"
            all_passed = all_passed and r.passed
            if r.error is not None:
                sys.stdout.write(f"{status} {suite}.{r.name}: {r.error}\n")
            else:
                sys.stdout.write(
                    f"{status} {suite}.{r.name} observed={format_float(r.observed)} "
                    f"limit={format_float(r.limit)}\n"
                )
            d = r.to_dict()
            d["observed"] = _json_value(d["observed"])
            d["margin"] = _json_value(d["margin"])
            entries.append(d)
        report["suites"][suite] = entries
    path = os.path.join(_outdir(ns), "verify_report.json")
    write_json(path, report)
    _emit(path)
    total = sum(len(v) for v in results.values())
    passed = sum(1 for v in results.values() for r in v if r.passed)
    sys.stdout.write(f"{passed}/{total} checks passed\n")
    errors = [r.error for v in results.values() for r in v if r.error is not None]
    if errors:
        raise errors[0]
    return 0 if all_passed else 3


def cmd_analyze(ns: argparse.Namespace) -> int:
    order = _order_from_args(ns)
    report = full_report(
        order,
        with_fits=not ns.no_fits,
        levels=ns.levels,
        window=ns.window,
        step=_to_step(ns.step),
    )
    text = dump_json(report.to_dict())
    path = os.path.join(_outdir(ns), "analyze_report.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    sys.stdout.write(text + "\n")
    _emit(path)
    return 0


def cmd_sweep(ns: argparse.Namespace) -> int:
    """One entry per order; an order that raises gets an `error` entry, and
    the first error is raised once the report is written, as in verify."""
    orders = _parse_orders(ns.orders)
    step = _to_step(ns.step)
    _cascade_grid(ns.levels, ns.window, step)  # shared by every order, so rejected once up front
    entries, errors = [], []
    for order in orders:
        try:
            grid = TorusGrid(ns.grid)
            ext = partition_extrema(order, grid)
            theta = theta_bound(order)
            frames_grid = None if ns.frames_grid is None else TorusGrid(ns.frames_grid)
            bank = frames.build_bank(order, frames_grid, truncation_eps=ns.eps)
            uep_diag, uep_off = frames.uep_errors(bank)
            report = full_report(
                order,
                with_fits=ns.with_fits,
                levels=ns.levels,
                window=ns.window,
                step=step,
            )
        except PseudoSplineError as exc:
            errors.append(exc)
            entries.append({"label": order.label(), "order": order_to_dict(order), "error": str(exc)})
            sys.stdout.write(f"{order.label()}: error: {exc}\n")
            continue
        entries.append(
            {
                "label": order.label(),
                "order": order_to_dict(order),
                "theta": theta,
                "partition_min": ext.min,
                "partition_max": ext.max,
                "uep_diagonal_error": uep_diag,
                "uep_offdiagonal_error": uep_off,
                "max_support_radius": bank.max_support_radius(),
                "frames_resolution": bank.grid.resolution,
                "report": report.to_dict(),
            }
        )
        sys.stdout.write(
            f"{order.label()}: theta={format_float(theta)} "
            f"partition_min={format_float(ext.min)} "
            f"uep={format_float(max(uep_diag, uep_off))}\n"
        )
    path = os.path.join(_outdir(ns), "sweep_report.json")
    write_json(path, {"orders": entries})
    _emit(path)
    if errors:
        raise errors[0]
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, help="JSON object of option values by dest; the command line wins")
    sub.add_argument("--out", default=None, help="output directory (default: $PSEUDOSPLINES_OUTDIR or .)")


def _add_order(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--z", default=None, help="order z, e.g. 2 or 3.5 or 3.2+1i (Re z >= 1)")
    sub.add_argument("--ell", type=int, default=0, help="integer order parameter ell")
    sub.add_argument("--shift", type=float, default=0.0, help="real shift u")


def _add_cascade_opts(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--levels", type=int, default=24)
    sub.add_argument("--window", type=float, default=64.0)
    sub.add_argument("--step", default="1/64", help="frequency grid step, e.g. 1/64")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="pseudosplines",
        description="Pseudo-spline refinement filters, refinable functions, and tight framelets.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subs: dict[str, argparse.ArgumentParser] = {}

    sub = subparsers.add_parser("filter", help="sample the refinement symbols on a grid")
    _add_common(sub)
    _add_order(sub)
    sub.add_argument("--grid", type=int, default=1024, help="grid resolution (power of two)")
    sub.add_argument("--bands", default="0", help="comma list of bands to write, subset of 0,1,2,3")
    subs["filter"] = sub

    sub = subparsers.add_parser("cascade", help="run the Fourier-domain cascade")
    _add_common(sub)
    _add_order(sub)
    _add_cascade_opts(sub)
    sub.add_argument("--sup-tolerance", type=float, default=1e-10)
    sub.add_argument("--time-half-width", type=float, default=None, help="also write phi on [-w, w]")
    sub.add_argument("--dt", default="1/32", help="time grid step")
    sub.add_argument("--time-tolerance", type=float, default=1e-3)
    subs["cascade"] = sub

    sub = subparsers.add_parser("framelets", help="build the framelet filter bank")
    _add_common(sub)
    _add_order(sub)
    _add_cascade_opts(sub)
    sub.add_argument("--sup-tolerance", type=float, default=1e-10)
    sub.add_argument("--grid", type=int, default=8192)
    sub.add_argument("--eps", type=float, default=1e-10)
    sub.add_argument("--with-hats", action="store_true", help="also write psi_hat samples")
    sub.add_argument("--psi-window", type=float, default=8.0)
    sub.add_argument("--with-time", action="store_true", help="also write time-domain psi samples")
    sub.add_argument("--time-half-width", type=float, default=8.0)
    sub.add_argument("--dt", default="1/32", help="time grid step")
    sub.add_argument("--time-tolerance", type=float, default=1e-2)
    subs["framelets"] = sub

    sub = subparsers.add_parser("transform", help="analyze/synthesize a periodic signal")
    _add_common(sub)
    sub.add_argument("--bank", default=None, help="bank.json produced by the framelets command")
    sub.add_argument("--input", default=None, help="signal CSV (index,re,im,abs)")
    sub.add_argument("--levels", type=int, default=1)
    sub.add_argument("--roundtrip", action="store_true", help="also synthesize and report the error")
    subs["transform"] = sub

    sub = subparsers.add_parser("verify", help="run the verification suites")
    _add_common(sub)
    _add_order(sub)
    _add_cascade_opts(sub)
    sub.add_argument("--grid", type=int, default=4096)
    sub.add_argument("--frames-grid", type=int, default=None, help="bank resolution (default: automatic)")
    sub.add_argument("--eps", type=float, default=1e-10)
    sub.add_argument("--signal-length", type=int, default=1024)
    sub.add_argument("--seed", type=int, default=7)
    subs["verify"] = sub

    sub = subparsers.add_parser("analyze", help="compute exponents and fitted diagnostics")
    _add_common(sub)
    _add_order(sub)
    _add_cascade_opts(sub)
    sub.add_argument("--no-fits", action="store_true", help="skip cascade-based fits")
    subs["analyze"] = sub

    sub = subparsers.add_parser("sweep", help="tabulate bounds and reports over many orders")
    _add_common(sub)
    _add_cascade_opts(sub)
    sub.add_argument("--orders", default=DEFAULT_SWEEP, help="semicolon list of z,ell or z,ell,u")
    sub.add_argument("--grid", type=int, default=4096)
    sub.add_argument("--frames-grid", type=int, default=None, help="bank resolution (default: automatic)")
    sub.add_argument("--eps", type=float, default=1e-10)
    sub.add_argument("--with-fits", action="store_true")
    subs["sweep"] = sub

    return parser, subs


@functools.lru_cache(maxsize=1)
def _shared_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subparsers, built once per process; parse_args
    leaves them unchanged, so every call shares them."""
    return build_parser()


def _config_tokens(cfg: dict, subs: dict[str, argparse.ArgumentParser], command: str) -> list[str]:
    """The option tokens that a config object stands for in `command`."""
    unknown = sorted(set(cfg) - {a.dest for sub in subs.values() for a in sub._actions})
    if unknown:
        raise DomainError(f"unknown config keys: {', '.join(unknown)}")
    tokens = []
    for action in subs[command]._actions:
        if action.dest not in cfg:
            continue
        value, option, flag = cfg[action.dest], action.option_strings[-1], action.nargs == 0
        if isinstance(value, bool) != flag or not isinstance(value, (str, int, float)):
            kind = "true or false" if flag else "a string or number"
            raise DomainError(f"config key {action.dest!r} takes {kind}, not {value!r}")
        if not flag:
            tokens.append(f"{option}={value}")
        elif value:
            tokens.append(option)
    return tokens


def _fail(exc: BaseException, code: int) -> int:
    sys.stderr.write(f"error: {exc}\n")
    return code


def main(argv=None) -> int:
    args = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subs = _shared_parser()
    ns = parser.parse_args(args)
    try:
        if ns.config is not None:
            tokens = _config_tokens(load_json(ns.config), subs, ns.command)
            ns = parser.parse_args([args[0], *tokens, *args[1:]])
        # looked up on each call, not stored in the shared parser, so that a
        # command function replaced on this module is the one that runs
        return globals()[f"cmd_{ns.command}"](ns)
    except ToleranceError as exc:
        return _fail(exc, 4)
    except (VerificationFailure, ConsistencyError, ConditionError) as exc:
        return _fail(exc, 3)
    except PseudoSplineError as exc:
        return _fail(exc, 2)
    except OSError as exc:
        return _fail(exc, 1)


if __name__ == "__main__":
    sys.exit(main())
