"""Command-line contract: files, determinism, exit codes, config handling."""

import inspect
import json
import math
import re

import numpy as np
import pytest

from pseudosplines import cli, frames
from pseudosplines.cascade import run_cascade, to_time_domain
from pseudosplines.errors import ConsistencyError
from pseudosplines.serialize import read_samples_csv, write_samples_csv
from pseudosplines.symbol import PseudoSplineOrder, TorusGrid


def run(args, tmp_path, capsys, env=None, monkeypatch=None):
    argv = list(args) + ["--out", str(tmp_path)]
    if monkeypatch is not None:
        monkeypatch.delenv("PSEUDOSPLINES_OUTDIR", raising=False)
        for key, value in (env or {}).items():
            monkeypatch.setenv(key, value)
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------- filter


def test_filter_writes_the_cos_squared_grid(tmp_path, capsys):
    rc, out, _ = run(["filter", "--z", "1", "--ell", "0", "--grid", "4"], tmp_path, capsys)
    assert rc == 0
    lines = (tmp_path / "filter_h0.csv").read_text().splitlines()
    assert lines[0] == "gamma,re,im,abs"
    moduli = [float(line.split(",")[3]) for line in lines[1:]]
    assert moduli == pytest.approx([0.0, 0.5, 1.0, 0.5], abs=1e-15)


def test_filter_rejects_an_out_of_range_order(tmp_path, capsys):
    rc, _, err = run(["filter", "--z", "2", "--ell", "3"], tmp_path, capsys)
    assert rc == 2
    assert "floor(alpha - 1/2) = 1" in err


def test_filter_order_with_overflowing_binomials_is_an_order_error(tmp_path, capsys):
    rc, _, err = run(
        ["filter", "--z", "392.6932320304626-995.4280421620423i", "--ell", "379"],
        tmp_path,
        capsys,
    )
    assert rc == 2
    assert err.startswith("error: binomial C(a, k) overflows double precision for a = ")


def test_filter_emits_requested_bands(tmp_path, capsys):
    rc, _, _ = run(
        ["filter", "--z", "2", "--ell", "1", "--grid", "256", "--bands", "0,1,2,3"],
        tmp_path,
        capsys,
    )
    assert rc == 0
    for n in range(4):
        assert (tmp_path / f"filter_h{n}.csv").exists()


def test_filter_writes_bank_samples_without_truncating(tmp_path, capsys):
    # fractional tails cannot reach eps 1e-10 at |k| <= 64 on this grid, but
    # filter writes symbol samples and extracts no taps
    rc, _, err = run(
        ["filter", "--z", "1.5", "--ell", "1", "--grid", "256", "--bands", "0,1"],
        tmp_path,
        capsys,
    )
    assert rc == 0, err
    order = PseudoSplineOrder(1.5, 1)
    h1 = frames.sample_bank(order, TorusGrid(256))[1]
    assert np.array_equal(read_samples_csv(tmp_path / "filter_h1.csv")[1], h1)


# orders past the partition bound: real and complex extended orders that
# meet the arctan condition, yet |H0(gamma)|^2 + |H0(gamma+1/2)|^2 exceeds 1
NO_FRAME = ["1,1", "1.5,2", "2.5,3", "1+0.2i,1", "1+0.5i,1", "1.5+0.3i,2"]
FRAME = ["2,2", "3,3", "5.5,6", "3.2+1i,3", "4.2,3"]


@pytest.mark.parametrize("token", NO_FRAME)
def test_orders_past_the_partition_bound_have_no_bank(tmp_path, capsys, token):
    (order,) = cli._parse_orders(token)
    for build in (frames.sample_bank, frames.build_bank):
        with pytest.raises(ConsistencyError, match=r"partition .* exceeds 1 for " + re.escape(order.label())):
            build(order, TorusGrid(8192))
    z, ell = token.split(",")
    for command in (["filter", "--bands", "0,1"], ["framelets"]):
        rc, _, err = run([*command, "--z", z, "--ell", ell], tmp_path, capsys)
        assert rc == 3
        assert "exceeds 1 for " + order.label() in err


@pytest.mark.parametrize("token", FRAME)
def test_orders_within_the_partition_bound_build_their_banks(tmp_path, capsys, token):
    (order,) = cli._parse_orders(token)
    symbols = frames.sample_bank(order, TorusGrid(8192))
    bank = frames.build_bank(order, TorusGrid(8192))
    # bands 0 and 2 are cut from these samples, and 1 and 3 derived from them
    for band in (0, 2):
        cut = frames._coeffs_from_samples(band, symbols[band], bank.truncation_eps, "")
        assert cut.offset == bank.coeffs[band].offset
        assert np.array_equal(cut.values, bank.coeffs[band].values)
    assert frames.uep_errors(bank)[1] <= 1e-13
    z, ell = token.split(",")
    rc, _, err = run(["filter", "--bands", "0,1", "--z", z, "--ell", ell], tmp_path, capsys)
    assert rc == 0, err


def test_filter_accepts_complex_orders_in_ascii(tmp_path, capsys):
    rc, _, _ = run(
        ["filter", "--z", "3.2+1i", "--ell", "2", "--grid", "1024"], tmp_path, capsys
    )
    assert rc == 0
    assert len((tmp_path / "filter_h0.csv").read_text().splitlines()) == 1025


# ---------------------------------------------------------------- cascade


def test_cascade_writes_profile_and_diagnostics(tmp_path, capsys):
    rc, out, _ = run(
        ["cascade", "--z", "2", "--ell", "1", "--levels", "20", "--window", "32", "--step", "1/32"],
        tmp_path,
        capsys,
    )
    assert rc == 0
    assert "converged=True" in out
    assert (tmp_path / "cascade_phihat.csv").exists()
    diag = json.loads((tmp_path / "cascade_diagnostics.json").read_text())
    assert diag["converged"] is True


def test_cascade_optional_time_profile(tmp_path, capsys):
    rc, out, _ = run(
        ["cascade", "--z", "2", "--ell", "0", "--window", "128",
         "--time-half-width", "3", "--dt", "1/16"],
        tmp_path,
        capsys,
    )
    assert rc == 0
    assert "tail_estimate=" in out
    assert (tmp_path / "cascade_phi_time.csv").exists()


def test_cascade_past_level_1024_ends_with_an_exit_code(tmp_path, capsys):
    # 2^(m-1) overflows a double past level 1024; the support bound must not
    with pytest.warns(RuntimeWarning, match="did not decrease"):
        rc, out, err = run(
            ["cascade", "--z", "2", "--window", "4", "--step", "1/8", "--levels", "1100",
             "--sup-tolerance", "0"],
            tmp_path,
            capsys,
        )
    assert rc == 0
    assert "converged=False" in out and "Traceback" not in err
    diag = json.loads((tmp_path / "cascade_diagnostics.json").read_text())
    assert diag["levels"] == 1100


def test_cascade_time_window_too_small_is_a_tolerance_error(tmp_path, capsys):
    rc, _, err = run(
        ["cascade", "--z", "1", "--ell", "0", "--time-half-width", "2",
         "--time-tolerance", "1e-3"],
        tmp_path,
        capsys,
    )
    assert rc == 4
    assert "error:" in err


# ---------------------------------------------------------------- verify / analyze / sweep


def test_verify_passes_and_reports_the_partition(tmp_path, capsys):
    rc, out, _ = run(
        ["verify", "--z", "1", "--ell", "0", "--grid", "512", "--frames-grid", "1024",
         "--levels", "18"],
        tmp_path,
        capsys,
    )
    assert rc == 0
    assert "partition min=0.5" in out
    assert "theta_bound=0.5" in out
    assert "FAIL" not in out
    assert "frames_resolution=1024" in out.splitlines()
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["partition"]["min"] == pytest.approx(0.5, abs=1e-12)
    assert report["frames_resolution"] == 1024
    assert {"symbol", "cascade", "frames"} <= set(report["suites"])


def test_verify_exit_code_on_failure(tmp_path, capsys):
    # three cascade levels leave phi_hat far from its limit
    rc, out, _ = run(
        ["verify", "--z", "1", "--ell", "0", "--grid", "256", "--frames-grid", "512",
         "--levels", "3"],
        tmp_path,
        capsys,
    )
    assert rc == 3
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == ["cascade.refinement_residual", "cascade.final_sup_change"]
    assert "13/15 checks passed" in out


def test_verify_writes_its_report_when_a_suite_raises(tmp_path, capsys):
    # (1, 1) has a partition above 1, so building its bank raises
    # ConsistencyError; the symbol and cascade results must still be reported
    rc, out, err = run(["verify", "--z", "1", "--ell", "1"], tmp_path, capsys)
    assert rc == 3
    assert "partition |H0(gamma)|^2 + |H0(gamma+1/2)|^2 exceeds 1 for z=1.0 ell=1" in err
    assert "FAIL frames.error: partition |H0(gamma)|^2" in out
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert len(report["suites"]["symbol"]) == 4
    assert len(report["suites"]["cascade"]) == 5
    (entry,) = report["suites"]["frames"]
    assert entry["name"] == "error" and entry["passed"] is False
    assert "exceeds 1 for z=1.0 ell=1" in entry["error"]


@pytest.mark.parametrize("signals", [0, -1])
def test_verify_has_no_signals_option(tmp_path, capsys, signals):
    # the frames suite reads the exact defect over every signal, so the
    # count of random test signals that --signals set is gone
    (tmp_path / "run.json").write_text(json.dumps({"z": 2, "ell": 1, "signals": signals}))
    rc, _, err = run(["verify", "--config", str(tmp_path / "run.json")], tmp_path, capsys)
    assert rc == 2
    assert "unknown config keys: signals" in err


def test_verify_with_a_negative_seed_reports_a_frames_error(tmp_path, capsys):
    rc, out, err = run(["verify", "--z", "2", "--ell", "1", "--seed", "-1"], tmp_path, capsys)
    assert rc == 2
    assert "the frames suite needs a seed >= 0, got -1" in err
    assert "frames_resolution=None" in out.splitlines()
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["frames_resolution"] is None
    assert len(report["suites"]["symbol"]) == 4 and len(report["suites"]["cascade"]) == 5
    (entry,) = report["suites"]["frames"]
    assert entry["name"] == "error" and entry["passed"] is False


def test_verify_on_a_bad_symbol_grid_reports_a_symbol_error(tmp_path, capsys):
    rc, out, err = run(["verify", "--z", "2", "--ell", "1", "--grid", "100"], tmp_path, capsys)
    assert rc == 2
    assert "grid resolution must be a power of two >= 4, got 100" in err
    assert not any(line.startswith("partition") for line in out.splitlines())
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["partition"] is None
    (entry,) = report["suites"]["symbol"]
    assert entry["name"] == "error" and "got 100" in entry["error"]
    assert len(report["suites"]["cascade"]) == 5 and len(report["suites"]["frames"]) == 6


def test_verify_passes_for_a_shifted_order(tmp_path, capsys):
    rc, out, _ = run(["verify", "--z", "2", "--ell", "1", "--shift", "0.5"], tmp_path, capsys)
    assert rc == 0
    assert "FAIL" not in out
    assert "frames_resolution=1024" in out.splitlines()


def test_verify_sizes_the_bank_up_to_the_cap(tmp_path, capsys):
    # band 0 of (1.044+8.21i, 0) needs a tap radius near 40,000 for eps 1e-10
    rc, out, _ = run(["verify", "--z", "1.044+8.21i", "--ell", "0"], tmp_path, capsys)
    assert rc == 0
    assert "FAIL" not in out
    assert json.loads((tmp_path / "verify_report.json").read_text())["frames_resolution"] == 2**18


def test_verify_past_the_cap_is_a_tolerance_error(tmp_path, capsys):
    rc, out, err = run(["verify", "--z", "1+50i", "--ell", "0"], tmp_path, capsys)
    assert rc == 4
    assert "the automatic bank grid stops at 2^18 = 262144 points" in err
    assert "FAIL frames.error: band 0: discarded-tail norm" in out


@pytest.mark.parametrize("command, z, ell", [("verify", "200", "0"), ("framelets", "200", "0"), ("verify", "150", "30")])
def test_large_real_orders_build_their_banks(tmp_path, capsys, command, z, ell):
    # eta near its zeros keeps full precision at large Re z, so the sigma
    # bands reach the default eps
    rc, out, _ = run([command, "--z", z, "--ell", ell], tmp_path, capsys)
    assert rc == 0
    assert "FAIL" not in out


def test_analyze_reports_known_values(tmp_path, capsys):
    rc, out, _ = run(["analyze", "--z", "2", "--ell", "1"], tmp_path, capsys)
    assert rc == 0
    report = json.loads(out.split("wrote ")[0])
    assert report["approx_order"]["value"] == 4.0
    assert report["kappa"]["value"] == pytest.approx(1.3219, abs=1e-3)
    assert json.loads((tmp_path / "analyze_report.json").read_text()) == report


@pytest.mark.parametrize("z, ell", [("5", "4"), ("6+1i", "5")])
def test_analyze_omits_only_the_zero_order_fit_where_the_zero_is_too_flat(tmp_path, capsys, z, ell):
    rc, out, _ = run(["analyze", "--z", z, "--ell", ell], tmp_path, capsys)
    assert rc == 0
    report = json.loads(out.split("wrote ")[0])
    for name in ("kappa", "holder_s", "approx_order", "fit_decay_exponent", "lowpass_floor_c"):
        assert name in report
    assert "fit_zero_order" not in report


@pytest.mark.parametrize("ell", [0, 1, 2, 3])
def test_analyze_fits_the_complex_reference_family(tmp_path, capsys, ell):
    rc, out, _ = run(["analyze", "--z", "3.2+1i", "--ell", str(ell)], tmp_path, capsys)
    assert rc == 0
    report = json.loads(out.split("wrote ")[0])
    # p(3/4) = sum_k binom(z-1+k, k) (3/4)^k, one term from the previous
    term = p34 = 1.0
    for k in range(1, ell + 1):
        term *= (2.2 + 1.0j + k) / k * 0.75
        p34 += term
    kappa = math.log2(abs(p34))
    assert report["kappa"]["value"] == pytest.approx(kappa, abs=1e-12)
    assert report["approx_order"]["value"] == min(6.4, 2.0 * (ell + 1))
    assert report["fit_zero_order"]["value"] == pytest.approx(2.0 * (ell + 1), abs=0.02)
    assert report["fit_decay_exponent"]["value"] <= -(6.4 - kappa) + 0.2


def test_analyze_off_the_lowpass_condition_reports_the_closed_forms(tmp_path, capsys):
    rc, out, _ = run(["analyze", "--z", "2+3i", "--ell", "1"], tmp_path, capsys)
    assert rc == 0
    report = json.loads(out.split("wrote ")[0])
    assert report["lowpass_ok"]["value"] is False
    for name in ("kappa", "holder_s", "approx_order"):
        assert name in report
    for name in ("fit_decay_exponent", "fit_zero_order", "lowpass_floor_c"):
        assert name not in report


def test_sweep_aggregates_orders(tmp_path, capsys):
    rc, out, _ = run(
        ["sweep", "--orders", "1,0;3.2+1i,2", "--grid", "512", "--frames-grid", "512"],
        tmp_path,
        capsys,
    )
    assert rc == 0
    report = json.loads((tmp_path / "sweep_report.json").read_text())
    assert len(report["orders"]) == 2
    assert report["orders"][0]["theta"] == pytest.approx(0.5)
    for entry in report["orders"]:
        assert entry["uep_diagonal_error"] < 1e-10
        assert entry["frames_resolution"] == 512
    assert out.count("theta=") == 2


def test_sweep_reports_an_order_that_raises_and_keeps_the_others(tmp_path, capsys):
    rc, out, err = run(["sweep", "--orders", "1,0;1+50i,0"], tmp_path, capsys)
    assert rc == 4
    message = err.removeprefix("error: ").rstrip("\n")
    assert message.endswith("the automatic bank grid stops at 2^18 = 262144 points")
    lines = out.splitlines()
    assert lines[0].startswith("z=1.0 ell=0: theta=0.5 ")
    assert lines[1] == f"z=1.0+50.0i ell=0: error: {message}"
    first, failed = json.loads((tmp_path / "sweep_report.json").read_text())["orders"]
    assert failed == {
        "label": "z=1.0+50.0i ell=0",
        "order": {"z_re": 1.0, "z_im": 50.0, "ell": 0, "u": 0.0},
        "error": message,
    }
    rc, _, _ = run(["sweep", "--orders", "1,0"], tmp_path / "alone", capsys)
    assert rc == 0
    assert [first] == json.loads((tmp_path / "alone" / "sweep_report.json").read_text())["orders"]


# ---------------------------------------------------------------- transform


def make_bank_and_signal(tmp_path, capsys, length=256):
    rc, _, _ = run(
        ["framelets", "--z", "1.5", "--ell", "0", "--grid", "1024", "--eps", "1e-8"],
        tmp_path,
        capsys,
    )
    assert rc == 0
    rng = np.random.default_rng(51)
    values = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    write_samples_csv(tmp_path / "signal.csv", "index", np.arange(length), values)
    return tmp_path / "bank.json", tmp_path / "signal.csv"


def test_transform_round_trip(tmp_path, capsys):
    bank, signal = make_bank_and_signal(tmp_path, capsys)
    rc, out, _ = run(
        ["transform", "--bank", str(bank), "--input", str(signal), "--roundtrip"],
        tmp_path,
        capsys,
    )
    assert rc == 0
    err = float(out.split("roundtrip_relative_error=")[1].splitlines()[0])
    assert err < 1e-6
    for n in range(4):
        assert (tmp_path / f"subband_n{n}.csv").exists()
    assert (tmp_path / "reconstruction.csv").exists()


def test_transform_multilevel(tmp_path, capsys):
    bank, signal = make_bank_and_signal(tmp_path, capsys)
    rc, out, _ = run(
        ["transform", "--bank", str(bank), "--input", str(signal),
         "--levels", "3", "--roundtrip"],
        tmp_path,
        capsys,
    )
    assert rc == 0
    err = float(out.split("roundtrip_relative_error=")[1].splitlines()[0])
    assert err < 1e-5
    assert (tmp_path / "subband_approx.csv").exists()
    assert (tmp_path / "subband_l3_n3.csv").exists()


@pytest.mark.filterwarnings("error")
def test_transform_round_trip_of_a_zero_signal_reports_the_absolute_error(tmp_path, capsys):
    # a zero input has no norm to divide by: the error is reported as it is,
    # with no 0/0 warning and no refusal to serialize a NaN
    rc, _, _ = run(["framelets", "--z", "2", "--ell", "1", "--grid", "64"], tmp_path, capsys)
    assert rc == 0
    write_samples_csv(tmp_path / "zero.csv", "index", np.arange(64), np.zeros(64, dtype=complex))
    rc, out, err = run(
        ["transform", "--bank", str(tmp_path / "bank.json"), "--input", str(tmp_path / "zero.csv"), "--roundtrip"],
        tmp_path,
        capsys,
    )
    assert rc == 0, err
    assert "roundtrip_relative_error=0.0\n" in out and "input_energy=0.0\n" in out
    _, values = read_samples_csv(tmp_path / "reconstruction.csv")
    assert not np.any(values)


def test_transform_one_level_of_a_four_sample_signal(tmp_path, capsys):
    bank, signal = make_bank_and_signal(tmp_path, capsys, length=4)
    rc, out, _ = run(
        ["transform", "--bank", str(bank), "--input", str(signal),
         "--levels", "1", "--roundtrip"],
        tmp_path,
        capsys,
    )
    assert rc == 0
    err = float(out.split("roundtrip_relative_error=")[1].splitlines()[0])
    assert err < 1e-6
    assert len((tmp_path / "subband_n0.csv").read_text().splitlines()) == 3


def test_transform_of_a_narrow_bank_takes_short_ffts_and_is_deterministic(tmp_path, capsys):
    # the (2, 1) bank spans 50 offsets (band 2's -24..24 and band 3's 25), so
    # 4096 samples run in blocks of short FFTs instead of wrapping the taps
    rc, _, _ = run(["framelets", "--z", "2", "--ell", "1"], tmp_path, capsys)
    assert rc == 0
    coeffs = json.loads((tmp_path / "bank.json").read_text())["coeffs"].values()
    lo = min(c["offset"] for c in coeffs)
    assert max(c["offset"] + len(c["values"]) for c in coeffs) - lo == 50
    rng = np.random.default_rng(52)
    values = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    write_samples_csv(tmp_path / "signal.csv", "index", np.arange(4096), values)
    outputs = []
    for name in ("a", "b"):
        target = tmp_path / name
        target.mkdir()
        rc = cli.main(
            ["transform", "--bank", str(tmp_path / "bank.json"), "--input",
             str(tmp_path / "signal.csv"), "--levels", "5", "--roundtrip", "--out", str(target)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert float(out.split("roundtrip_relative_error=")[1].splitlines()[0]) <= 1e-8
        outputs.append({p.name: p.read_bytes() for p in sorted(target.glob("*.csv"))})
    assert len(outputs[0]) == 1 + 3 * 5 + 1
    assert outputs[0] == outputs[1]


def test_transform_requires_bank_and_input(tmp_path, capsys):
    rc, _, err = run(["transform"], tmp_path, capsys)
    assert rc == 2
    assert "error:" in err


def test_transform_missing_file_is_an_io_error(tmp_path, capsys):
    rc, _, err = run(
        ["transform", "--bank", str(tmp_path / "nope.json"),
         "--input", str(tmp_path / "nope.csv")],
        tmp_path,
        capsys,
    )
    assert rc == 1


# ---------------------------------------------------------------- determinism and config


def test_reruns_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for target in (a, b):
        rc = cli.main(["analyze", "--z", "1.5", "--ell", "1", "--out", str(target)])
        assert rc == 0
    capsys.readouterr()
    assert (a / "analyze_report.json").read_bytes() == (b / "analyze_report.json").read_bytes()


def test_framelet_outputs_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for target in (a, b):
        rc = cli.main(
            ["framelets", "--z", "3.2+1i", "--ell", "2", "--grid", "1024", "--out", str(target)]
        )
        assert rc == 0
    capsys.readouterr()
    assert (a / "bank.json").read_bytes() == (b / "bank.json").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--format", "json"],
        ["analyze", "--format", "json"],
        ["sweep", "--format", "json"],
        ["transform", "--format", "json"],
        ["verify", "--sup-tolerance", "1e-3"],
        ["analyze", "--sup-tolerance", "1e-3"],
        ["sweep", "--sup-tolerance", "1e-3"],
        ["filter", "--eps", "1e-8"],
        ["filter", "--max-k", "64"],
        ["filter", "--format", "json"],
        ["cascade", "--format", "json"],
        ["framelets", "--format", "json"],
        ["framelets", "--max-k", "64"],
        ["verify", "--tolerance-scale", "1e-20"],
    ],
)
def test_options_that_changed_nothing_are_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv, tmp_path, capsys)
    assert exc.value.code == 2


SUBPARSERS = cli.build_parser()[1]


@pytest.mark.parametrize("name", sorted(SUBPARSERS))
def test_every_option_is_read_by_its_command(name):
    source = inspect.getsource(getattr(cli, f"cmd_{name}"))
    # _write_series calls _outdir, so it is looked up first
    for helper in (cli._write_series, cli._order_from_args, cli._outdir):
        if f"{helper.__name__}(" in source:
            source += inspect.getsource(helper)
    dests = {action.dest for action in SUBPARSERS[name]._actions}
    unread = sorted(d for d in dests - {"help", "command", "config"} if f"ns.{d}" not in source)
    assert unread == []


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"z": "1.5", "ell": 1, "grid": 256}))
    rc, _, _ = run(
        ["filter", "--config", str(config), "--grid", "128"], tmp_path, capsys
    )
    assert rc == 0
    assert len((tmp_path / "filter_h0.csv").read_text().splitlines()) == 129


def test_config_defaults_do_not_leak_into_later_calls(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"z": "1.5", "ell": 1, "grid": 256}))
    plain, configured, after = tmp_path / "plain", tmp_path / "configured", tmp_path / "after"
    assert run(["filter", "--z", "2"], plain, capsys)[0] == 0
    assert run(["filter", "--config", str(config)], configured, capsys)[0] == 0
    assert len((configured / "filter_h0.csv").read_text().splitlines()) == 257
    # the built-in defaults again: no z, ell 0, grid 1024
    rc, _, err = run(["filter"], after, capsys)
    assert rc == 2
    assert "order parameter z is required" in err
    assert run(["filter", "--z", "2"], after, capsys)[0] == 0
    assert (after / "filter_h0.csv").read_bytes() == (plain / "filter_h0.csv").read_bytes()
    assert len((after / "filter_h0.csv").read_text().splitlines()) == 1025


def test_the_shared_parser_dispatches_to_the_module_command_functions(tmp_path, capsys, monkeypatch):
    assert run(["filter", "--z", "2"], tmp_path, capsys)[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_filter", lambda ns: seen.append(ns.z) or 0)
    assert run(["filter", "--z", "3"], tmp_path, capsys)[0] == 0
    assert seen == ["3"]


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"z": "1", "elll": 0}))
    rc, _, err = run(["filter", "--config", str(config)], tmp_path, capsys)
    assert rc == 2
    assert "elll" in err


@pytest.mark.parametrize("option", ["--conf {}", "--con={}"])
def test_an_abbreviated_config_option_reads_the_file(tmp_path, capsys, option):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"grid": 256}))
    assert run(["filter", "--z", "2", *option.format(config).split()], tmp_path, capsys)[0] == 0
    assert len((tmp_path / "filter_h0.csv").read_text().splitlines()) == 257


@pytest.mark.parametrize(
    "command, values, named",
    [
        ("filter", {"z": 2, "ell": 1.9}, "--ell: invalid int value: '1.9'"),
        ("filter", {"z": 2, "grid": 64.9}, "--grid: invalid int value: '64.9'"),
        ("cascade", {"z": 2, "levels": 2.7}, "--levels: invalid int value: '2.7'"),
    ],
)
def test_a_config_value_meets_its_option_type(tmp_path, capsys, command, values, named):
    (tmp_path / "run.json").write_text(json.dumps(values))
    with pytest.raises(SystemExit) as exc:
        run([command, "--config", str(tmp_path / "run.json")], tmp_path, capsys)
    assert exc.value.code == 2
    assert named in capsys.readouterr().err


def _options(values: dict) -> list[str]:
    """The command-line spelling of config values: --opt value, a bare flag for true."""
    argv = []
    for key, value in values.items():
        option = "--" + key.replace("_", "-")
        argv += [option] if value is True else [] if value is False else [option, str(value)]
    return argv


CASCADE = {"levels": 12, "window": 16, "step": "1/32"}
# per command: the config values, then the command-line options that override some of them
PARITY = {
    "filter": ({"z": "3.2+1i", "ell": 2, "shift": -0.5, "grid": 256, "bands": "0,1,2,3"}, {"grid": 64}),
    "cascade": ({"z": "2", "ell": 1, "shift": -0.5, **CASCADE, "time_half_width": 4, "dt": "1/16",
                 "time_tolerance": 1e-2}, {"time_half_width": 2}),
    "framelets": ({"z": "2", "ell": 1, "shift": -0.5, **CASCADE, "grid": 256, "with_hats": True,
                   "eps": 1e-8, "psi_window": 2, "with_time": False}, {"psi_window": 1}),
    "transform": ({"bank": "bank.json", "input": "signal.csv", "levels": 2, "roundtrip": True},
                  {"levels": 1}),
    "verify": ({"z": "2", "ell": 1, "shift": -0.5, **CASCADE, "grid": 256, "signal_length": 64,
                "seed": 5}, {"seed": 3}),
    "analyze": ({"z": "2", "ell": 1, "shift": -0.5, **CASCADE, "no_fits": True}, {"ell": 0}),
    "sweep": ({"orders": "2,1,-0.5;3.2+1i,0", **CASCADE, "grid": 256, "with_fits": False},
              {"orders": "2,1,-0.5"}),
}


@pytest.mark.parametrize("command", sorted(PARITY))
def test_a_config_file_gives_what_the_same_options_give(tmp_path, capsys, command):
    values, override = PARITY[command]
    (tmp_path / "bank.json").write_text(json.dumps(ONE_TAP_BANK))
    write_samples_csv(tmp_path / "signal.csv", "index", np.arange(64), np.cos(np.arange(64)))
    values = {k: str(tmp_path / v) if k in ("bank", "input") else v for k, v in values.items()}
    (tmp_path / "run.json").write_text(json.dumps(values))
    outputs = []
    for name, argv in [
        ("flags", _options({**values, **override})),
        ("config", ["--config", str(tmp_path / "run.json"), *_options(override)]),
    ]:
        rc, out, err = run([command, *argv], tmp_path / name, capsys)
        assert rc == 0, err
        files = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
        outputs.append((out.replace(str(tmp_path / name), "<out>"), files))
    assert outputs[0][1] and outputs[0] == outputs[1]


def test_environment_variable_sets_the_output_directory(tmp_path, capsys, monkeypatch):
    outdir = tmp_path / "from_env"
    outdir.mkdir()
    monkeypatch.setenv("PSEUDOSPLINES_OUTDIR", str(outdir))
    rc = cli.main(["filter", "--z", "1", "--ell", "0", "--grid", "64"])
    capsys.readouterr()
    assert rc == 0
    assert (outdir / "filter_h0.csv").exists()


def test_missing_order_is_a_config_error(tmp_path, capsys):
    rc, _, err = run(["cascade"], tmp_path, capsys)
    assert rc == 2
    assert "error:" in err


def test_series_files_hold_the_samples_the_library_builds(tmp_path, capsys):
    order = PseudoSplineOrder(3.2 + 1.0j, 2)
    args = ["--z", "3.2+1i", "--ell", "2"]
    assert run(["filter", *args, "--grid", "1024", "--bands", "0,1"], tmp_path, capsys)[0] == 0
    assert run(["cascade", *args, "--time-half-width", "4"], tmp_path, capsys)[0] == 0
    rc, out, _ = run(["framelets", *args, "--grid", "1024", "--with-hats", "--psi-window", "2",
                      "--with-time", "--time-half-width", "4"], tmp_path, capsys)
    assert rc == 0

    bank = frames.build_bank(order, TorusGrid(1024))
    symbols = frames.sample_bank(order, bank.grid)
    profile, _ = run_cascade(order)
    phi = to_time_domain(profile, half_width=4.0, step=1 / 32)
    expected = {
        "filter_h0": (bank.grid.gamma, symbols[0]),
        "filter_h1": (bank.grid.gamma, symbols[1]),
        "cascade_phihat": (profile.points, profile.values),
        "cascade_phi_time": (phi.points, phi.values),
    }
    half, _ = run_cascade(order, window=1.0, step=1 / 128)
    for n in (1, 2, 3):
        psi_hat = frames.framelet_hat(half, n)
        assert np.array_equal(psi_hat.points, (np.arange(257) - 128) / 64)
        expected[f"framelet_psihat_n{n}"] = (psi_hat.points, psi_hat.values)
        psi = frames.framelet_time(bank, phi, n)
        expected[f"framelet_psi_n{n}"] = (psi.points, psi.values)
        assert f"psi_n{n} tail_estimate={psi.tail_estimate!r}\n" in out
    for stem, (axis, values) in expected.items():
        got_axis, got = read_samples_csv(tmp_path / f"{stem}.csv")
        assert np.array_equal(got_axis, axis) and np.array_equal(got, values), stem
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".csv"] * 10 + [".json"] * 2


def test_hats_alone_run_one_cascade_on_the_half_points(tmp_path, capsys, monkeypatch):
    calls = []

    def recording(order, **kwargs):
        calls.append(kwargs)
        return run_cascade(order, **kwargs)

    monkeypatch.setattr(cli, "run_cascade", recording)
    rc, _, err = run(["framelets", "--z", "1", "--grid", "64", "--with-hats", "--psi-window", "2",
                      "--levels", "12", "--sup-tolerance", "1e-9"], tmp_path, capsys)
    assert rc == 0, err
    assert calls == [{"levels": 12, "sup_tolerance": 1e-9, "window": 1.0, "step": 1 / 128}]


def test_framelets_tail_that_cannot_reach_eps_is_a_tolerance_error(tmp_path, capsys):
    rc, _, err = run(["framelets", "--z", "1.5", "--ell", "0", "--grid", "256"], tmp_path, capsys)
    assert rc == 4
    assert "band 0: discarded-tail norm" in err and "at |k| <= 64 exceeds truncation eps" in err


ONE_TAP_BANK = {
    "order": {"z_re": 1.0, "ell": 0},
    "resolution": 64,
    "truncation_eps": 1e-10,
    "coeffs": {
        str(n): {"offset": 0, "values": [[1.0, 0.0]], "tail_norm": 0.0, "tail_l1": 0.0, "aliasing_estimate": 0.0}
        for n in range(4)
    },
}
TRANSFORM = ["transform", "--bank", "bank.json", "--input", "signal.csv"]


@pytest.mark.parametrize(
    "argv, files, named",
    [
        (["sweep", "--orders", "2,x"], {}, "'2,x'"),
        (["sweep", "--orders", "2,1,abc"], {}, "'2,1,abc'"),
        (["sweep", "--orders", "2,1.5"], {}, "'2,1.5'"),
        (TRANSFORM, {"bank.json": json.dumps(ONE_TAP_BANK),
                     "signal.csv": "index,re,im,abs\n0,1,0,1\n1,abc,0,1\n"}, "signal.csv"),
        (TRANSFORM, {"bank.json": "{not json"}, "bank.json"),
        (TRANSFORM, {"bank.json": "[1, 2]"}, "bank.json"),
        (TRANSFORM, {"bank.json": json.dumps({"order": ONE_TAP_BANK["order"]})}, "'coeffs'"),
        (TRANSFORM, {"bank.json": json.dumps({k: v for k, v in ONE_TAP_BANK.items() if k != "order"})},
         "'order'"),
        (TRANSFORM, {"bank.json": json.dumps({**ONE_TAP_BANK, "coeffs": []})}, "malformed bank JSON"),
        (TRANSFORM, {"bank.json": json.dumps({**ONE_TAP_BANK, "coeffs": {
            n: {**c, "values": [[1.0]]} for n, c in ONE_TAP_BANK["coeffs"].items()}})}, "malformed bank JSON"),
        (TRANSFORM, {"bank.json": json.dumps({**ONE_TAP_BANK, "coeffs": {
            n: {k: v for k, v in c.items() if k != "tail_l1"} for n, c in ONE_TAP_BANK["coeffs"].items()}})},
         "'tail_l1'"),
        (["filter", "--config", "run.json"], {"run.json": '{"z": true}'}, "True"),
        (["filter", "--config", "run.json"], {"run.json": '{"z": 2, "ell": true}'}, "'ell' takes a string"),
        (["analyze", "--config", "run.json"], {"run.json": '{"z": 2, "no_fits": "false"}'},
         "'no_fits' takes true or false, not 'false'"),
        (["filter", "--config", "run.json"], {"run.json": '{"z": [3.2, 1]}'}, "'z' takes a string"),
        (["verify", "--config", "run.json"], {"run.json": '{"z": 2, "frames_grid": null}'},
         "'frames_grid' takes a string or number, not None"),
        (["cascade", "--z", "2", "--window", "nan"], {}, "nan"),
        (["cascade", "--z", "2", "--window", "inf"], {}, "inf"),
        (["cascade", "--z", "2", "--time-half-width", "nan"], {}, "nan"),
        (["cascade", "--z", "2", "--time-half-width", "inf"], {}, "inf"),
        (["cascade", "--z", "2", "--sup-tolerance", "nan"], {}, "sup_tolerance must be finite and >= 0, got nan"),
        (["cascade", "--z", "2", "--sup-tolerance", "-1"], {}, "sup_tolerance must be finite and >= 0, got -1.0"),
        (["cascade", "--z", "2", "--time-half-width", "4", "--time-tolerance", "nan"], {},
         "tolerance must be finite and >= 0, got nan"),
        (["framelets", "--z", "1", "--grid", "64", "--with-hats", "--psi-window", "nan"], {}, "nan"),
        (["framelets", "--z", "1", "--grid", "64", "--with-hats", "--psi-window", "2.001"], {},
         "window must be an integer multiple of step"),
        (["framelets", "--z", "1", "--grid", "64", "--eps", "nan"], {}, "eps must be finite and >= 0, got nan"),
        (["framelets", "--z", "1", "--grid", "64", "--eps", "-1"], {}, "eps must be finite and >= 0, got -1.0"),
        # cascade options are rejected where no cascade runs
        (["analyze", "--z", "2", "--no-fits", "--levels", "0"], {}, "levels must be an integer >= 1, got 0"),
        (["analyze", "--z", "2", "--no-fits", "--window", "nan"], {}, "nan"),
        (["analyze", "--z", "2", "--no-fits", "--window", "1.1", "--step", "1/3"], {},
         "window must be an integer multiple of step"),
        (["sweep", "--orders", "2,0", "--window", "-3"], {}, "-3.0"),
        (["sweep", "--orders", "2,0", "--levels", "-1"], {}, "levels must be an integer >= 1, got -1"),
        (["framelets", "--z", "1", "--grid", "64", "--levels", "0"], {}, "levels must be an integer >= 1, got 0"),
        (["framelets", "--z", "1", "--grid", "64", "--step", "inf"], {}, "inf"),
        # so are time-domain, psi_hat and tolerance options where their stage does not run
        (["cascade", "--z", "2", "--dt", "0.03"], {},
         "1/(frequency step * time step) must be an integer"),
        (["cascade", "--z", "2", "--time-tolerance", "nan"], {}, "tolerance must be finite and >= 0, got nan"),
        (["framelets", "--z", "2", "--grid", "64", "--time-half-width", "nan"], {}, "nan"),
        (["framelets", "--z", "2", "--grid", "64", "--dt", "0.03"], {},
         "1/(frequency step * time step) must be an integer"),
        (["framelets", "--z", "2", "--grid", "64", "--sup-tolerance", "nan"], {},
         "sup_tolerance must be finite and >= 0, got nan"),
        (["framelets", "--z", "2", "--grid", "64", "--psi-window", "nan"], {}, "nan"),
    ],
    ids=["z-ell-token", "shift-token", "fractional-ell", "csv-row", "invalid-json",
         "json-list", "bank-without-coeffs", "bank-without-order", "coeffs-list", "one-part-value",
         "bank-without-tail-l1",
         "boolean-z", "boolean-ell", "string-flag", "list-z", "null-frames-grid",
         "nan-window", "inf-window", "nan-time-half-width", "inf-time-half-width", "nan-sup-tolerance",
         "negative-sup-tolerance", "nan-time-tolerance", "nan-psi-window", "psi-window-off-step",
         "nan-eps", "negative-eps", "unused-levels", "unused-nan-window", "unused-window-off-step",
         "sweep-negative-window", "sweep-negative-levels", "framelets-unused-levels", "framelets-inf-step",
         "cascade-unused-dt", "cascade-unused-nan-time-tolerance", "framelets-unused-nan-time-half-width",
         "framelets-unused-dt", "framelets-unused-nan-sup-tolerance", "framelets-unused-nan-psi-window"],
)
def test_malformed_input_exits_2_naming_it(tmp_path, capsys, argv, files, named):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a.endswith((".json", ".csv")) else a for a in argv]
    rc, _, err = run(argv, tmp_path, capsys)
    assert rc == 2
    assert err.startswith("error: ") and named in err and "Traceback" not in err
