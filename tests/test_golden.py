"""Golden-output gates: checked-in references for the figures and cascade runs.

The reference in data/golden_figures.json holds the sha256 of every JSON and
frequency-domain CSV file of scripts/reproduce_figures.py, and every
STRIDE-th row of the 16 time-domain CSV files with their row counts.  The
former must match exactly; sampled time-domain values may move by at most
1e-13 relative to the file's largest sampled magnitude, the rounding the
speedup contract allows.

The reference in data/golden_cascade.json holds the sha256 of every file
written by the CASCADE_RUNS commands: the `cascade` command for a real, a
large-ell and a shifted order (the figures only run z = 3.2+1i), the default
`sweep --with-fits`, whose report holds 16 cascade-based fits, `analyze`
for (5, 4), whose zero is too flat for the zero-order fit, and `filter
--bands 0,1,2,3` for (3.2+1i, 2) and the shifted (2, 1, u=0.5), as the
figures write band 0 only.  They must match exactly.

A change that moves a value past these limits regenerates the references with
    PYTHONPATH=src python tests/test_golden.py
and says so in CHANGES.md.  The run prints each digest key that moved and,
for each time-domain file that moved, its largest sampled change as a share
of the file's largest sampled value.  It rewrites only the digests that
changed and the samples of the time-domain files that moved past RTOL, so on
unchanged code it leaves both references as they are.
"""

import hashlib
import json
import pathlib
import runpy
import sys

import numpy as np

from pseudosplines import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "reproduce_figures.py"
DATA = pathlib.Path(__file__).resolve().parent / "data"
REFERENCE = DATA / "golden_figures.json"
CASCADE_REFERENCE = DATA / "golden_cascade.json"
STRIDE = 16
RTOL = 1e-13
TIME_DOMAIN = {"cascade_phi_time.csv", "framelet_psi_n1.csv", "framelet_psi_n2.csv", "framelet_psi_n3.csv"}
CASCADE_RUNS = {
    "cascade_1.5_0": ["cascade", "--z", "1.5", "--ell", "0"],
    "cascade_4.2_3": ["cascade", "--z", "4.2", "--ell", "3"],
    "cascade_2_1_u0.5": ["cascade", "--z", "2", "--ell", "1", "--shift", "0.5"],
    "sweep_with_fits": ["sweep", "--with-fits"],
    "analyze_5_4": ["analyze", "--z", "5", "--ell", "4"],
    "filter_3.2+1i_2_bands": ["filter", "--z", "3.2+1i", "--ell", "2", "--bands", "0,1,2,3"],
    "filter_2_1_u0.5_bands": ["filter", "--z", "2", "--ell", "1", "--shift", "0.5", "--bands", "0,1,2,3"],
}


def reproduce(outdir: pathlib.Path) -> None:
    argv = sys.argv
    sys.argv = [str(SCRIPT), "--outdir", str(outdir)]
    try:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    except SystemExit as exc:
        assert not exc.code, f"reproduce_figures exited {exc.code}"
    finally:
        sys.argv = argv


def summarize(outdir: pathlib.Path) -> dict:
    digests, samples = {}, {}
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        key = path.relative_to(outdir).as_posix()
        if path.name in TIME_DOMAIN:
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            samples[key] = {"rows": len(rows), "sample": rows[::STRIDE].tolist()}
        else:
            digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"stride": STRIDE, "sha256": digests, "time_domain": samples}


def cascade_digests(outdir: pathlib.Path) -> dict:
    for name, args in CASCADE_RUNS.items():
        code = cli.main([*args, "--out", str(outdir / name)])
        assert code == 0, f"{name} exited {code}"
    return {
        path.relative_to(outdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(p for p in outdir.rglob("*") if p.is_file())
    }


def test_reproduce_figures_matches_the_golden_reference(tmp_path, capsys):
    reference = json.loads(REFERENCE.read_text())
    reproduce(tmp_path)
    capsys.readouterr()
    got = summarize(tmp_path)
    assert reference["stride"] == STRIDE
    assert got["sha256"] == reference["sha256"]
    assert sorted(got["time_domain"]) == sorted(reference["time_domain"])
    for key, ref in reference["time_domain"].items():
        new = got["time_domain"][key]
        assert new["rows"] == ref["rows"], key
        expected, actual = np.array(ref["sample"]), np.array(new["sample"])
        np.testing.assert_array_equal(actual[:, 0], expected[:, 0], err_msg=key)
        scale = float(np.max(np.abs(expected[:, 1:])))
        np.testing.assert_allclose(actual[:, 1:], expected[:, 1:], rtol=0.0, atol=RTOL * scale, err_msg=key)


def test_cascade_runs_match_the_golden_reference(tmp_path, capsys):
    reference = json.loads(CASCADE_REFERENCE.read_text())
    got = cascade_digests(tmp_path)
    capsys.readouterr()
    assert got == reference["sha256"]


def refreshed(old: dict, new: dict) -> dict:
    """The reference to write over `old`: `new`, except that a time-domain
    file whose sample moved by no more than RTOL keeps its old sample, so
    that rounding noise rewrites nothing.  Prints what moved, as the module
    docstring says."""
    for key in sorted(old["sha256"].keys() | new["sha256"].keys()):
        if old["sha256"].get(key) != new["sha256"].get(key):
            print(f"moved: {key}")
    if "time_domain" not in new:
        return new
    previous, samples = old.get("time_domain", {}), {}
    for key in sorted(previous.keys() | new["time_domain"].keys()):
        ref, got = previous.get(key), new["time_domain"].get(key)
        if ref is None or got is None or ref["rows"] != got["rows"]:
            print(f"moved: {key} (rows {ref and ref['rows']} -> {got and got['rows']})")
        elif ref["sample"] != got["sample"]:
            expected, actual = np.array(ref["sample"]), np.array(got["sample"])
            scale = float(np.max(np.abs(expected[:, 1:])))
            change = float(np.max(np.abs(actual - expected)))
            past = change > RTOL * scale or not np.array_equal(actual[:, 0], expected[:, 0])
            print(f"moved: {key} by {change / scale:.2e} of its largest sampled value"
                  + (" (past RTOL, rewritten)" if past else " (within RTOL, kept)"))
            if not past:
                got = ref
        if got is not None:
            samples[key] = got
    return {**new, "time_domain": samples}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        reproduce(pathlib.Path(tmp) / "figures")
        summary = summarize(pathlib.Path(tmp) / "figures")
        cascade = {"sha256": cascade_digests(pathlib.Path(tmp) / "cascade")}
    DATA.mkdir(exist_ok=True)
    for path, obj in ((REFERENCE, summary), (CASCADE_REFERENCE, cascade)):
        if path.exists():
            obj = refreshed(json.loads(path.read_text()), obj)
        path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
