import io
import math
import re
import warnings

import numpy as np
import pytest

import charfred as cf
from charfred.gridfield import (CSV_HEADER, GridDomainError, csv_text,
                                from_csv, shift_diff_norm, to_csv)


def linear_field(grid, coeffs=((1.0, 2.0, 3.0),)):
    X = grid.xs()[:, None, None]
    Y = grid.ys()[None, :, None]
    T = grid.ts()[None, None, :]
    vals = np.stack([a * X + b * Y + c * T + 0 * (X + Y + T)
                     for a, b, c in coeffs])
    return cf.GridFunction(grid, vals)


def test_grid_validation():
    with pytest.raises(ValueError):
        cf.Grid(nx=3, ny=4, nt=4)
    with pytest.raises(ValueError):
        cf.Grid(nx=4, ny=4, nt=4, period_y=0.0)
    g = cf.Grid(nx=4, ny=5, nt=6, period_y=2.0)
    assert g.node_count == 5 * 5 * 6
    np.testing.assert_allclose(g.xs(), [0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(g.ys(), np.arange(5) * 2.0 / 5)


def test_gridfunction_shape_and_finiteness():
    g = cf.Grid(nx=4, ny=4, nt=4)
    with pytest.raises(ValueError):
        cf.GridFunction(g, np.zeros((2, 4, 4, 4)))
    bad = np.zeros((1, 5, 4, 4))
    bad[0, 0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        cf.GridFunction(g, bad)
    f = cf.zeros(g, 2)
    assert f.m == 2
    assert not f.values.flags.writeable


def test_gridfunction_takes_a_float64_array_and_copies_any_other():
    g = cf.Grid(nx=4, ny=4, nt=4)
    # a C-contiguous float64 array is the field's values, made read-only
    a = np.zeros((1, 5, 4, 4))
    f = cf.GridFunction(g, a)
    assert f.values is a
    assert not a.flags.writeable
    # an int array, or a strided float64 view, is copied; the caller's
    # array stays writable and a write to it leaves the field alone
    for b in (np.zeros((1, 5, 4, 4), dtype=np.int64),
              np.zeros((1, 5, 4, 8))[..., ::2]):
        f = cf.GridFunction(g, b)
        assert f.values is not b and f.values.dtype == np.float64
        assert b.flags.writeable and not f.values.flags.writeable
        b[0, 2, 2, 2] = 1
        assert f.values[0, 2, 2, 2] == 0.0


def test_sample_matches_direct_evaluation():
    g = cf.Grid(nx=4, ny=8, nt=8)
    f = cf.sample((cf.parse("sin(2*pi*y)*cos(2*pi*t)"),), g)
    expect = (np.sin(2 * np.pi * g.ys())[None, :, None]
              * np.cos(2 * np.pi * g.ts())[None, None, :]
              * np.ones((5, 1, 1)))
    np.testing.assert_allclose(f.values[0], expect, atol=1e-15)


def test_sample_names_failing_node():
    g = cf.Grid(nx=4, ny=4, nt=4)
    with pytest.raises(cf.EvalError) as err:
        cf.sample((cf.parse("1/(x - 1/2)"),), g)
    assert str(err.value) == \
        "component 0 at node (2,0,0): division by zero in '1/(x - 1/2)'"


def test_interpolation_is_exact_on_nodes_and_linear_fields():
    g = cf.Grid(nx=8, ny=8, nt=8)
    f = linear_field(g)
    # on nodes
    got = cf.interpolate(f, 0.5, 0.25, 0.125)
    np.testing.assert_allclose(got, [0.5 + 2 * 0.25 + 3 * 0.125], rtol=1e-14)
    # strictly inside a cell: trilinear reproduces multilinear functions
    got = cf.interpolate(f, 0.4375, 0.19, 0.07)
    np.testing.assert_allclose(got, [0.4375 + 2 * 0.19 + 3 * 0.07],
                               rtol=1e-13)


def test_interpolation_wraps_periodically():
    g = cf.Grid(nx=4, ny=8, nt=8)
    vals = np.zeros((1, 5, 8, 8))
    vals[0] = np.sin(2 * np.pi * g.ys())[None, :, None]
    f = cf.GridFunction(g, vals)
    a = cf.interpolate(f, 0.5, 0.0, 0.0)
    b = cf.interpolate(f, 0.5, 1.0, 0.0)  # y = Y wraps to 0
    np.testing.assert_allclose(a, b, atol=1e-15)
    c = cf.interpolate(f, 0.5, 1.0 + 0.125, 0.9999999999999)
    np.testing.assert_allclose(c, cf.interpolate(f, 0.5, 0.125, 0.0),
                               atol=1e-12)


def test_interpolation_rejects_x_outside_slab():
    g = cf.Grid(nx=4, ny=4, nt=4)
    f = cf.zeros(g, 1)
    with pytest.raises(GridDomainError):
        cf.interpolate(f, 1.001, 0.0, 0.0)
    with pytest.raises(GridDomainError):
        cf.interpolate(f, -0.001, 0.0, 0.0)
    # within the snap slack both faces are fine
    cf.interpolate(f, 1.0 + 1e-13, 0.0, 0.0)
    cf.interpolate(f, -1e-13, 0.0, 0.0)


@pytest.mark.parametrize("axis, bad", [("x", math.nan), ("y", math.nan),
                                       ("y", math.inf), ("t", -math.inf)])
def test_interpolate_many_rejects_non_finite_coordinates(axis, bad):
    f = linear_field(cf.Grid(nx=4, ny=4, nt=4))
    points = {"x": np.array([0.5, bad, 0.25]) if axis == "x" else 0.5,
              "y": np.array([0.5, bad, math.nan]) if axis == "y" else 0.5,
              "t": np.array([0.5, bad, math.inf]) if axis == "t" else 0.5}
    with pytest.raises(GridDomainError, match=re.escape(f"{axis} = {bad!r}")):
        cf.interpolate_many(f, points["x"], points["y"], points["t"])


def test_interpolate_many_shapes():
    g = cf.Grid(nx=4, ny=4, nt=4)
    f = linear_field(g, coeffs=((1, 0, 0), (0, 1, 0)))
    pts = np.linspace(0, 1, 7)
    out = cf.interpolate_many(f, pts, 0.0 * pts, 0.0 * pts)
    assert out.shape == (2, 7)
    np.testing.assert_allclose(out[0], pts, atol=1e-14)


def test_norms():
    g = cf.Grid(nx=4, ny=4, nt=4)
    vals = np.zeros((2, 5, 4, 4))
    vals[0, 1, 2, 3] = -7.0
    vals[1, 0, 0, 0] = 3.0
    f = cf.GridFunction(g, vals)
    assert cf.sup_norm(f) == 7.0
    assert cf.sum_sup_norm(f) == 10.0


def test_shift_diff_norm_on_node_multiples_matches_roll():
    g = cf.Grid(nx=4, ny=8, nt=8)
    rng = np.random.default_rng(5)
    f = cf.GridFunction(g, rng.standard_normal((2, 5, 8, 8)))
    sd = shift_diff_norm(f, 2 * g.period_y / 8)
    expect = np.abs(np.roll(f.values, -2, axis=2) - f.values).max()
    assert isinstance(sd, float)
    assert sd == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_shift_diff_norm_rejects_non_finite_shifts(bad):
    f = linear_field(cf.Grid(nx=4, ny=4, nt=4))
    message = f"y shift = {bad!r} is not finite"
    with pytest.raises(GridDomainError, match=re.escape(message)):
        shift_diff_norm(f, bad)


def test_csv_round_trip():
    g = cf.Grid(nx=4, ny=4, nt=4)
    rng = np.random.default_rng(11)
    f = cf.GridFunction(g, rng.standard_normal((2, 5, 4, 4)))
    text = csv_text(f)
    assert text.splitlines()[0] == CSV_HEADER
    back = from_csv(io.StringIO(text), g)
    np.testing.assert_array_equal(back.values, f.values)


def test_csv_row_order_is_lexicographic():
    g = cf.Grid(nx=4, ny=4, nt=4)
    f = cf.zeros(g, 2)
    lines = csv_text(f).splitlines()
    first = lines[1].split(",")
    assert first[:4] == ["0", "0", "0", "0"]
    second = lines[2].split(",")
    assert second[:4] == ["0", "0", "0", "1"]
    assert len(lines) == 1 + 2 * 5 * 4 * 4


def test_csv_file_round_trip(tmp_path):
    g = cf.Grid(nx=4, ny=4, nt=4)
    f = cf.GridFunction(g, np.arange(80, dtype=float).reshape(1, 5, 4, 4))
    path = tmp_path / "field.csv"
    to_csv(f, str(path))
    back = from_csv(str(path), g)
    np.testing.assert_array_equal(back.values, f.values)


def test_from_csv_rejects_wrong_sizes():
    g = cf.Grid(nx=4, ny=4, nt=4)
    f = cf.zeros(g, 1)
    text = csv_text(f)
    small = cf.Grid(nx=4, ny=4, nt=5)
    with pytest.raises(ValueError):
        from_csv(io.StringIO(text), small)
    truncated = "\n".join(text.splitlines()[:-3]) + "\n"
    with pytest.raises(ValueError):
        from_csv(io.StringIO(truncated), g)


@pytest.mark.parametrize("row", ["0,0,0", "0,0,0,0,0,0,0,0,0"])
def test_from_csv_names_the_header_on_a_wrong_field_count(row):
    g = cf.Grid(nx=4, ny=4, nt=4)
    with pytest.raises(ValueError, match=re.escape(CSV_HEADER)):
        from_csv(io.StringIO(f"{CSV_HEADER}\n{row}\n"), g)


def test_from_csv_reads_a_header_only_file_as_no_components():
    g = cf.Grid(nx=4, ny=4, nt=4)
    text = csv_text(cf.zeros(g, 0))
    assert text == CSV_HEADER + "\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = from_csv(io.StringIO(text), g)
    assert back.values.shape == (0, 5, 4, 4)


def _relabel(text, column, old, new):
    """CSV text with index column `column` set to `new` where it was `old`."""
    lines = text.splitlines()
    for k in range(1, len(lines)):
        cells = lines[k].split(",")
        if cells[column] == str(old):
            cells[column] = new
            lines[k] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("column", [0, 1, 2, 3])
def test_from_csv_rejects_negative_and_fractional_indices(column):
    # -1 would wrap onto the last node of its axis and 1.5 truncate onto
    # node 1; either way the file would read back as if nothing were wrong
    g = cf.Grid(nx=4, ny=4, nt=4)
    text = csv_text(cf.zeros(g, 2))
    last = (1, g.nx, g.ny - 1, g.nt - 1)[column]
    for old, new in ((last, "-1"), (1, "1.5")):
        with pytest.raises(ValueError, match="node indices out of range"):
            from_csv(io.StringIO(_relabel(text, column, old, new)), g)


def test_field_arithmetic():
    g = cf.Grid(nx=4, ny=4, nt=4)
    rng = np.random.default_rng(2)
    a = cf.GridFunction(g, rng.standard_normal((1, 5, 4, 4)))
    b = cf.GridFunction(g, rng.standard_normal((1, 5, 4, 4)))
    np.testing.assert_array_equal((a + b).values, a.values + b.values)
    np.testing.assert_array_equal((a - b).values, a.values - b.values)
    np.testing.assert_array_equal((2.0 * a).values, 2.0 * a.values)
