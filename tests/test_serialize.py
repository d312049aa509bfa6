"""Round-trip fidelity of the CSV/JSON writers and float formatting."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pseudosplines import cli
from pseudosplines.cascade import run_cascade
from pseudosplines.errors import DomainError
from pseudosplines.serialize import (
    CSV_CHUNK_ROWS,
    dump_json,
    format_float,
    load_json,
    order_from_dict,
    order_to_dict,
    read_samples_csv,
    write_json,
    write_samples_csv,
)
from pseudosplines.symbol import PseudoSplineOrder, TorusGrid, sample_H0


@settings(deadline=None, max_examples=300)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips_exactly(x):
    assert float(format_float(x)) == x


def test_format_float_is_compact():
    assert format_float(0.5) == "0.5"
    assert format_float(1.0) == "1.0"
    assert format_float(-0.0) == "-0.0"


def test_samples_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(31)
    axis = np.linspace(-0.5, 0.5, 64, endpoint=False)
    values = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    path = tmp_path / "samples.csv"
    write_samples_csv(path, "gamma", axis, values)
    axis2, values2 = read_samples_csv(path)
    assert np.array_equal(axis, axis2)
    assert np.array_equal(values, values2)


def test_samples_csv_header_and_column_order(tmp_path):
    path = tmp_path / "one.csv"
    write_samples_csv(path, "t", [0.25], [1.0 - 2.0j])
    lines = path.read_text().splitlines()
    assert lines[0] == "t,re,im,abs"
    assert lines[1].split(",") == ["0.25", "1.0", "-2.0", format_float(abs(1.0 - 2.0j))]


def test_samples_csv_matches_per_row_format_float(tmp_path):
    # more rows than one bulk write holds, so two chunks are joined
    n = CSV_CHUNK_ROWS + 500
    rng = np.random.default_rng(8)
    extremes = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300, -1e308])
    values = np.concatenate(
        [
            (extremes[:, None] + 1j * extremes[None, :]).ravel(),
            rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
            + 1j * rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
        ]
    )
    axis = np.arange(len(values)) / 64 - 0.5
    path = tmp_path / "bulk.csv"
    write_samples_csv(path, "gamma", axis, values)
    assert path.read_text() == per_row_text(axis, values)


def per_row_text(axis, values) -> str:
    """The sample CSV text formatted row by row with format_float."""
    rows = [
        ",".join(format_float(x) for x in (t, complex(v).real, complex(v).imag, abs(v)))
        for t, v in zip(axis, values)
    ]
    return "gamma,re,im,abs\n" + "".join(row + "\n" for row in rows)


def complex_from_parts(re, im) -> np.ndarray:
    """Complex values with exactly these parts; re + 1j*im loses -0.0."""
    values = np.empty(len(re), dtype=complex)
    values.real, values.imag = re, im
    return values


def even_series(half_rows: int, seed: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Axis k/64 for |k| <= half_rows and values with v(-a) == v(a) bit for bit."""
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((2, half_rows + 1)) * 10.0 ** rng.integers(-300, 300, (2, half_rows + 1))
    half = complex_from_parts(*parts)
    return np.arange(-half_rows, half_rows + 1) / 64, np.concatenate([half[:0:-1], half])


def strided_even_series() -> tuple[np.ndarray, np.ndarray]:
    axis, values = even_series(200)
    interleaved = np.empty(2 * len(values), dtype=complex)
    interleaved[::2], interleaved[1::2] = values, -values
    return axis, interleaved[::2]


def odd_series() -> tuple[np.ndarray, np.ndarray]:
    axis, values = even_series(200)
    return axis, np.where(axis < 0, -values, values)


def shuffled_even_series() -> tuple[np.ndarray, np.ndarray]:
    axis, values = even_series(200)
    order = np.random.default_rng(9).permutation(len(axis))
    return axis[order], values[order]


MIRROR_CASES = {
    # the first chunk ends at k = CSV_CHUNK_ROWS // 4 - 1, so pairs with a
    # larger |k| have their partner in the next chunk
    "even_across_chunks": lambda: even_series(3 * CSV_CHUNK_ROWS // 4),
    "signed_zeros": lambda: (
        np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]),
        complex_from_parts([0.0, 1.0, -0.0, 0.0, 1.0, 0.0], [-0.0, 0.0, 0.0, 0.0, -0.0, 0.0]),
    ),
    "odd": odd_series,
    "reversed": lambda: tuple(column[::-1] for column in even_series(200)),
    "shuffled": shuffled_even_series,
    "zero_axis": lambda: (np.array([-0.5, -0.0, 0.0, 0.5]), np.full(4, 0.25 - 0.0j)),
    "strided": strided_even_series,
}


@pytest.mark.parametrize("case", MIRROR_CASES)
def test_mirrored_rows_match_per_row_format_float(tmp_path, case):
    axis, values = MIRROR_CASES[case]()
    path = tmp_path / "mirror.csv"
    write_samples_csv(path, "gamma", axis, values)
    assert path.read_text() == per_row_text(axis, values)


def bits(values: np.ndarray) -> list[int]:
    return np.concatenate([values.real, values.imag]).view(np.int64).tolist()


@pytest.mark.parametrize(
    "z, ell",
    [("3.2+1i", 0), ("3.2+1i", 1), ("3.2+1i", 2), ("3.2+1i", 3), ("1.044+8.21i", 0), ("4.2", 2)],
)
def test_figure_series_are_even_bit_for_bit(tmp_path, capsys, z, ell):
    # write_samples_csv formats half the rows of an even series; the output
    # does not depend on this, so only this test shows the evenness is lost
    order = PseudoSplineOrder(complex(z.replace("i", "j")), ell)
    profile, _ = run_cascade(order)
    assert bits(profile.values) == bits(profile.values[::-1])
    assert profile.points.tolist() == (-profile.points[::-1]).tolist()
    grid = TorusGrid(1024)
    rows = sample_H0(order, grid)[1:]
    assert bits(rows) == bits(rows[::-1])
    assert grid.gamma[1:].tolist() == (-grid.gamma[:0:-1]).tolist()

    assert cli.main(["cascade", "--z", z, "--ell", str(ell), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "cascade_phihat.csv").read_text().splitlines()[1:]
    by_axis = {line.split(",", 1)[0]: line for line in lines}
    negative = [line for line in lines if line.startswith("-")]
    assert len(negative) == len(lines) // 2
    assert all(by_axis[line.split(",", 1)[0][1:]] == line[1:] for line in negative)


@pytest.mark.parametrize("bad", [math.inf, math.nan, complex(0.0, -math.inf), 1.7e308 + 1.7e308j])
def test_samples_csv_refuses_non_finite_values(tmp_path, bad):
    with pytest.raises(DomainError, match="non-finite"):
        write_samples_csv(tmp_path / "bad.csv", "t", [0.0, 1.0], [1.0, bad])


@pytest.mark.parametrize(
    "axis, values, named",
    [
        ([0.0, math.inf], [math.nan, 1.0], "inf"),  # the axis column comes first
        ([0.0, 1.0], [complex(1.0, math.nan), complex(-math.inf, 0.0)], "-inf"),  # then re, then im
        ([0.0, 1.0], [complex(0.0, -math.inf), 1e308 + 1e308j], "-inf"),  # im before abs
    ],
)
def test_samples_csv_names_the_first_non_finite_value_in_column_order(tmp_path, axis, values, named):
    with pytest.raises(DomainError, match=f"^refusing to serialize non-finite value {named}$"):
        write_samples_csv(tmp_path / "bad.csv", "t", axis, values)


@settings(deadline=None, max_examples=200)
@given(st.complex_numbers(allow_nan=False, allow_infinity=False))
@example(complex(1.7e308, 1.7e308))  # |v| overflows
@example(complex(1e308, 1e308))  # |v| is finite
@example(complex(5e-324, -0.0))
def test_samples_csv_abs_column_is_pythons_abs(tmp_path_factory, v):
    path = tmp_path_factory.mktemp("csv") / "abs.csv"
    try:
        want = abs(v)
    except OverflowError:
        with pytest.raises(DomainError, match="^refusing to serialize non-finite value inf$"):
            write_samples_csv(path, "t", [0.0], [v])
        return
    write_samples_csv(path, "t", [0.0], [v])
    assert path.read_text().splitlines()[1].split(",")[3] == repr(want)


def test_read_samples_csv_rejects_headerless_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(DomainError):
        read_samples_csv(path)


@pytest.mark.parametrize("text", ["\n0.0,1.0,2.0,2.2\n", "t,re\n0.0,1.0\n"])
def test_read_samples_csv_rejects_a_blank_or_short_header(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DomainError, match="missing header"):
        read_samples_csv(path)


def test_read_samples_csv_reads_a_one_row_file(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("index,re,im,abs\n3.0,-1.5,0.25,1.5\n")
    axis, values = read_samples_csv(path)
    assert axis.shape == (1,) and values.shape == (1,)
    assert axis[0] == 3.0 and values[0] == complex(-1.5, 0.25)


def test_read_samples_csv_reads_a_header_only_file_as_no_rows(tmp_path, recwarn):
    path = tmp_path / "empty.csv"
    path.write_text("index,re,im,abs\n")
    axis, values = read_samples_csv(path)
    assert axis.shape == (0,) and values.shape == (0,) and values.dtype == complex
    assert len(recwarn) == 0


def test_read_samples_csv_skips_blank_lines_and_keeps_signs_and_extremes(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text(
        "index,re,im,abs\n"
        "\n"
        "0.0,-0.0,0.0,0.0\n"
        "\n"
        "1.0,1e300,-1e-300,1e300\n"
        "2.0,-1e300,1e-300,1e300\n"
        "\n"
    )
    axis, values = read_samples_csv(path)
    assert axis.tolist() == [0.0, 1.0, 2.0]
    parts = [(v.real, v.imag) for v in values.tolist()]
    assert parts == [(-0.0, 0.0), (1e300, -1e-300), (-1e300, 1e-300)]
    assert math.copysign(1.0, parts[0][0]) == -1.0
    assert math.copysign(1.0, parts[0][1]) == 1.0


@settings(deadline=None, max_examples=50)
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(allow_nan=False, allow_infinity=False)), min_size=1, max_size=20))
@example([(1.8941775056029057e300, 1.7976931348623157e308)])  # np.abs rounds |v| to finite, hypot overflows
def test_read_samples_csv_restores_written_values_bit_for_bit(tmp_path_factory, pairs):
    values = np.array([complex(re, im) for re, im in pairs])
    with np.errstate(over="ignore"):  # the writer's |v|, which it refuses past the largest double
        finite = np.isfinite(np.hypot(values.real, values.imag))
    values = values[finite] if finite.any() else np.array([0j])
    path = tmp_path_factory.mktemp("csv") / "values.csv"
    write_samples_csv(path, "index", np.arange(len(values)), values)
    _, back = read_samples_csv(path)
    assert back.view(np.int64).tolist() == values.view(np.int64).tolist()


def test_json_round_trip_preserves_structure(tmp_path):
    obj = {"b": [1.5, [0.25, -0.75]], "a": {"nested": 2}}
    path = tmp_path / "obj.json"
    write_json(path, obj)
    assert load_json(path) == obj


def test_json_output_is_sorted_and_stable():
    text = dump_json({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')
    assert dump_json({"b": 1, "a": 2}) == text
    assert json.loads(text) == {"a": 2, "b": 1}


@pytest.mark.parametrize(
    "order",
    [
        PseudoSplineOrder(1.0, 0),
        PseudoSplineOrder(3.2 + 1.0j, 3),
        PseudoSplineOrder(1.5, 1, shift=0.5),
    ],
)
def test_order_dict_round_trip(order):
    d = order_to_dict(order)
    back = order_from_dict(json.loads(json.dumps(d)))
    assert back == order


def test_format_float_handles_extremes():
    for x in (5e-324, 1.7976931348623157e308, math.pi, 1e-30):
        assert float(format_float(x)) == x
