"""Each output check of the benchmark accepts the program's real output and
rejects a deliberately corrupted copy of it.

    python3 -m pytest perfbench/tests
"""

import json
import pathlib
import shutil

import numpy as np
import pytest

import oracles
import spans
import workloads
from pseudosplines import cli, frames, serialize


@pytest.fixture(scope="module")
def render(tmp_path_factory):
    """One figures operation (ell = 1) rendered by the program."""
    work = tmp_path_factory.mktemp("figures")
    codes = workloads.Figures(np.random.default_rng(0), work).run(1)
    assert codes == [0, 0, 0]
    return work / "ell1"


@pytest.fixture
def copy(render, tmp_path):
    out = tmp_path / "ell1"
    shutil.copytree(render, out)
    return out


def _edit_rows(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(lines[0] + "".join(edit(line) for line in lines[1:]))


def _shift_re(delta, where=lambda axis: True):
    def edit(line):
        cols = line.rstrip("\n").split(",")
        if where(float(cols[0])):
            cols[1] = repr(float(cols[1]) + delta)
        return ",".join(cols) + "\n"
    return edit


def test_figures_accepts_program_output(render):
    oracles.check_figures(render, np.random.default_rng(1))
    digests = oracles.file_digests(render)
    oracles.check_same_render(digests, dict(digests), "ell=1")


def test_figures_rejects_perturbed_tap(copy):
    bank = json.loads((copy / "bank.json").read_text())
    bank["coeffs"]["2"]["values"][3][0] += 1e-6
    (copy / "bank.json").write_text(json.dumps(bank))
    with pytest.raises(oracles.CheckFailed, match="UEP"):
        oracles.check_figures(copy, np.random.default_rng(1))


def test_figures_rejects_phihat_off_one_at_zero(copy):
    _edit_rows(copy / "cascade_phihat.csv", _shift_re(1e-12, lambda g: g == 0.0))
    with pytest.raises(oracles.CheckFailed, match="phi_hat"):
        oracles.check_figures(copy, np.random.default_rng(1))


def test_figures_rejects_phi_not_the_inverse_of_phihat(copy):
    _edit_rows(copy / "cascade_phi_time.csv", _shift_re(1e-7))
    with pytest.raises(oracles.CheckFailed, match="trapezoid"):
        oracles.check_figures(copy, np.random.default_rng(1))


def test_figures_rejects_broken_partition_of_unity(copy):
    _edit_rows(copy / "cascade_phi_time.csv", _shift_re(0.1, lambda t: t == 0.5))
    with pytest.raises(oracles.CheckFailed):
        oracles.check_figures(copy, np.random.default_rng(1))


def test_figures_rejects_psihat_nonzero_at_zero(copy):
    _edit_rows(copy / "framelet_psihat_n2.csv", _shift_re(1e-9, lambda g: g == 0.0))
    with pytest.raises(oracles.CheckFailed, match="psi_hat_2"):
        oracles.check_figures(copy, np.random.default_rng(1))


def test_figures_rejects_psi_with_nonzero_integral(copy):
    _edit_rows(copy / "framelet_psi_n3.csv", _shift_re(1e-3))
    with pytest.raises(oracles.CheckFailed, match="psi_3"):
        oracles.check_figures(copy, np.random.default_rng(1))


def test_render_identity_rejects_flipped_byte(render, copy):
    first = oracles.file_digests(render)
    path = copy / "framelet_psi_n1.csv"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(oracles.CheckFailed, match="framelet_psi_n1.csv"):
        oracles.check_same_render(oracles.file_digests(copy), first, "ell=1")


def test_render_rejects_missing_file(copy):
    (copy / "bank.json").unlink()
    with pytest.raises(oracles.CheckFailed, match="figure files"):
        oracles.file_digests(copy)


@pytest.fixture(scope="module")
def transformed(tmp_path_factory):
    work = tmp_path_factory.mktemp("transform")
    assert workloads.quiet_cli(["framelets", "--z", "3.2+1i", "--ell", "2", "--out", str(work)]) == 0
    bank = frames.bank_from_dict(serialize.load_json(work / "bank.json"))
    taps = oracles.bank_taps(json.loads((work / "bank.json").read_text()))
    rng = np.random.default_rng(3)
    x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    details, approx = frames.analyze_multilevel(bank, frames.PeriodicSignal(x), 3)
    back = frames.synthesize_multilevel(bank, details, approx).samples
    return x, taps, details, approx, back


def _transform_copy(transformed):
    x, taps, details, approx, back = transformed
    return x, taps, [[s.copy() for s in level] for level in details], approx.copy(), back.copy()


def test_transform_accepts_program_output(transformed):
    oracles.check_transform(*transformed, np.random.default_rng(4))


def test_transform_rejects_wrong_subband_sample(transformed):
    x, taps, details, approx, back = _transform_copy(transformed)
    # the first index the check draws for band 1 with this seed
    m = np.random.default_rng(4).choice(len(details[0][0]), size=3, replace=False)[0]
    details[0][0][m] += 1e-7
    with pytest.raises(oracles.CheckFailed, match="direct correlation"):
        oracles.check_transform(x, taps, details, approx, back, np.random.default_rng(4))


def test_transform_rejects_lost_energy(transformed):
    x, taps, details, approx, back = _transform_copy(transformed)
    approx *= 1.0 + 1e-6
    with pytest.raises(oracles.CheckFailed, match="energies"):
        oracles.check_transform(x, taps, details, approx, back, np.random.default_rng(4))


def test_transform_rejects_bad_reconstruction(transformed):
    x, taps, details, approx, back = _transform_copy(transformed)
    back[17] += 1e-6
    with pytest.raises(oracles.CheckFailed, match="round-trip"):
        oracles.check_transform(x, taps, details, approx, back, np.random.default_rng(4))


def _reports(tmp_path, token):
    args = workloads._order_args(token) + ["--out", str(tmp_path)]
    codes = [workloads.quiet_cli(["verify", *args]), workloads.quiet_cli(["analyze", *args])]
    reports = [json.loads((tmp_path / name).read_text())
               for name in ("verify_report.json", "analyze_report.json")]
    return codes, reports


def test_theta_matches_closed_form_for_b_splines():
    # ell = 0: theta = 2^{1 - 2z}, e.g. 1/8 for the cubic B-spline (z = 2)
    assert oracles.theta(2.0 + 0j, 0) == pytest.approx(0.125, rel=1e-14)
    assert oracles.holder(2.0, 0) == pytest.approx(3.0, rel=1e-14)


def test_verify_accepts_program_output(tmp_path):
    codes, reports = _reports(tmp_path, "2,1")
    assert oracles.check_verify(2 + 0j, 1, 0.0, *codes, *reports) is False


def test_verify_counts_the_kept_shifted_failure(tmp_path):
    codes, reports = _reports(tmp_path, workloads.SHIFTED_ORDER)
    assert oracles.check_verify(2 + 0j, 1, 0.5, *codes, *reports) is True


def test_verify_rejects_a_failing_check(tmp_path):
    codes, (vrep, arep) = _reports(tmp_path, "3.2+1i,2")
    vrep["suites"]["frames"][0]["passed"] = False
    with pytest.raises(oracles.CheckFailed, match="frames.uep_diagonal"):
        oracles.check_verify(3.2 + 1j, 2, 0.0, *codes, vrep, arep)


def test_verify_rejects_an_extra_shifted_failure(tmp_path):
    codes, (vrep, arep) = _reports(tmp_path, workloads.SHIFTED_ORDER)
    vrep["suites"]["symbol"][0]["passed"] = False
    with pytest.raises(oracles.CheckFailed):
        oracles.check_verify(2 + 0j, 1, 0.5, *codes, vrep, arep)


def test_verify_rejects_wrong_theta(tmp_path):
    codes, (vrep, arep) = _reports(tmp_path, "3.5,2")
    arep["theta"]["value"] *= 1.0 + 1e-8
    with pytest.raises(oracles.CheckFailed, match="theta"):
        oracles.check_verify(3.5 + 0j, 2, 0.0, *codes, vrep, arep)


def test_verify_rejects_wrong_holder_exponent(tmp_path):
    codes, (vrep, arep) = _reports(tmp_path, "4.2,1")
    arep["holder_s"]["value"] += 1e-6
    with pytest.raises(oracles.CheckFailed, match="holder_s"):
        oracles.check_verify(4.2 + 0j, 1, 0.0, *codes, vrep, arep)


def test_verify_rejects_far_zero_order_fit(tmp_path):
    codes, (vrep, arep) = _reports(tmp_path, "1.5,0")
    arep["fit_zero_order"]["value"] = 2.5
    with pytest.raises(oracles.CheckFailed, match="zero order"):
        oracles.check_verify(1.5 + 0j, 0, 0.0, *codes, vrep, arep)


def test_verify_rejects_nonzero_exit(tmp_path):
    codes, reports = _reports(tmp_path, "2,0")
    with pytest.raises(oracles.CheckFailed, match="exit"):
        oracles.check_verify(2 + 0j, 0, 0.0, 3, codes[1], *reports)


def test_tracer_wraps_every_alias_and_restores_them(tmp_path):
    original = cli.run_cascade
    tracer = spans.Tracer()
    tracer.install()
    try:
        from pseudosplines import analysis, cascade, checks
        assert cli.run_cascade is checks.run_cascade is analysis.run_cascade is cascade.run_cascade
        assert cli.run_cascade is not original
        tracer.begin_op(0)
        assert cli.main(["verify", "--z", "2", "--ell", "1", "--out", str(tmp_path)]) == 0
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert cli.run_cascade is original
    m = tracer.metrics([0])
    layers = sum(m[f"{layer}.self_ms_per_op"] for layer in spans.LAYERS)
    assert layers + m["bench.self_ms_per_op"] == pytest.approx(m["trace.op_ms"], rel=1e-9)
    assert m["frames.analyze.calls_per_op"] == 50
    assert m["frames.spectra_per_call"] == 4
    assert m["cascade.run_cascade.levels_per_op"] > 0


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    traced = set(spans.Tracer().metrics([])) | {"trace.ops_per_s", "trace.overhead_pct"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    assert [m["name"] for m in spec["end_to_end"]] == ["ops_per_s", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
