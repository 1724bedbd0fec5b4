"""Property tests of grid-field interpolation and the CSV writer.

Each property compares against an in-test oracle bit for bit: the
eight-corner fancy-index trilinear interpolation, full-field reads
sliced to one component, and a per-row f-string CSV writer.
"""
import io
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import charfred as cf
from charfred import fredholm
from charfred.gridfield import (CSV_HEADER, _periodic_index, _x_index,
                                csv_text, from_csv)
from conftest import coupled_spec

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


def oracle_interpolate(gf, x, y, t):
    """Trilinear interpolation over all eight corners, fully broadcast."""
    g = gf.grid
    x, y, t = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float),
                                  np.asarray(t, float))
    ix0, ix1, fx = _x_index(x, g.nx)
    iy0, iy1, fy = _periodic_index(y, g.ny, g.period_y)
    it0, it1, ft = _periodic_index(t, g.nt, g.period_t)
    v = gf.values
    out = np.zeros((gf.m,) + x.shape)
    for ix, wx in ((ix0, 1.0 - fx), (ix1, fx)):
        for iy, wy in ((iy0, 1.0 - fy), (iy1, fy)):
            w2 = wx * wy
            for it, wt in ((it0, 1.0 - ft), (it1, ft)):
                out += v[:, ix, iy, it] * (w2 * wt)
    return out


def oracle_csv(gf):
    """One f-string per row, every column formatted on every row."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    g = gf.grid
    xs, ys, ts = g.xs().tolist(), g.ys().tolist(), g.ts().tolist()
    vals = gf.values.tolist()
    for c in range(gf.m):
        for ix in range(g.nx + 1):
            for iy in range(g.ny):
                row = vals[c][ix][iy]
                for it in range(g.nt):
                    buf.write(f"{c},{ix},{iy},{it},{xs[ix]!r},{ys[iy]!r},"
                              f"{ts[it]!r},{row[it]!r}\n")
    return buf.getvalue()


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def fields(draw, m=None):
    grid = cf.Grid(nx=draw(st.integers(4, 8)), ny=draw(st.integers(4, 9)),
                   nt=draw(st.integers(4, 9)),
                   period_y=draw(st.sampled_from((1.0, 0.5, 2.0))),
                   period_t=draw(st.sampled_from((1.0, 0.3, 3.0))))
    m = m or draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.standard_normal((m, grid.nx + 1, grid.ny, grid.nt))
    return cf.GridFunction(grid, values), rng


# coordinate kinds per axis: on nodes (including the x ends and y, t
# beyond one period), exactly at x = 0 or 1, or anywhere
KINDS = st.sampled_from(("nodes", "ends", "random"))
# shapes per axis: scattered (all (p,)), separable ((a,1,1), (1,b,1),
# (1,1,c)), broadcast-only with scalars mixed in
LAYOUTS = st.sampled_from(("scattered", "separable", "broadcast"))


def axis_points(rng, kind, n, period, size, periodic):
    if kind == "random":
        lo, hi = (-3.0 * period, 3.0 * period) if periodic else (0.0, 1.0)
        return rng.uniform(lo, hi, size)
    if kind == "ends":
        ends = (-period, 0.0, period, 2 * period) if periodic else (0.0, 1.0)
        return rng.choice(ends, size)
    lo, hi = (-3 * n, 3 * n) if periodic else (0, n)
    return rng.integers(lo, hi + 1, size) * period / n


@st.composite
def points(draw, grid, rng):
    layout = draw(LAYOUTS)
    axes = ((grid.nx, 1.0, False), (grid.ny, grid.period_y, True),
            (grid.nt, grid.period_t, True))
    kinds = [draw(KINDS) for _ in axes]
    if layout == "scattered":
        p = draw(st.integers(1, 40))
        shapes = [(p,)] * 3
    elif layout == "separable":
        shapes = [tuple(draw(st.integers(1, 6)) if d == k else 1
                        for d in range(3)) for k in range(3)]
    else:
        shapes = [draw(st.sampled_from(((), (1,), (3, 1), (1, 4), (2, 4))))
                  for _ in axes]
    out = []
    for (n, period, periodic), kind, shape in zip(axes, kinds, shapes):
        size = int(np.prod(shape, dtype=int))
        vals = axis_points(rng, kind, n, period, size, periodic)
        out.append(float(vals[0]) if shape == () else vals.reshape(shape))
    return out


@st.composite
def interpolation_cases(draw):
    gf, rng = draw(fields())
    return gf, draw(points(gf.grid, rng))


@PROPERTY
@given(interpolation_cases())
def test_interpolate_many_matches_eight_corner_oracle(case):
    gf, (x, y, t) = case
    assert same_bits(cf.interpolate_many(gf, x, y, t),
                     oracle_interpolate(gf, x, y, t))


@PROPERTY
@given(interpolation_cases())
def test_single_component_reads_are_full_reads_sliced(case):
    gf, (x, y, t) = case
    full = cf.interpolate_many(gf, x, y, t)
    for c in range(gf.m):
        part = cf.GridFunction(gf.grid, gf.values[c:c + 1])
        assert same_bits(cf.interpolate_many(part, x, y, t)[0], full[c])


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(fields(m=3), st.integers(1, 4))
def test_fused_reads_one_component_as_a_sliced_full_read(field, count):
    f, rng = field
    probes = np.column_stack([rng.uniform(0.0, 1.0, count),
                              rng.uniform(-1.0, 2.0, count),
                              rng.uniform(-1.0, 2.0, count)])
    spec = coupled_spec()
    real = cf.interpolate_many
    seen = []

    def full_read_sliced(gf, X, Y, T):
        # locate the component from the view's offset into f.values
        assert gf.m == 1
        c = (gf.values.ctypes.data - f.values.ctypes.data) \
            // f.values[0].nbytes
        seen.append(c)
        return real(f, X, Y, T)[c:c + 1]

    got = fredholm.apply_k_cubed_fused(spec, f, probes)
    with mock.patch.object(fredholm, "interpolate_many", full_read_sliced):
        expect = fredholm.apply_k_cubed_fused(spec, f, probes)
    # the cyclic coupling reaches every component of f within K^3
    assert set(seen) == {0, 1, 2}
    assert same_bits(got, expect)


SPECIAL = np.array([0.0, -0.0, 5e-324, -1e300, 1.0 / 3.0, 123456.789])


@PROPERTY
@given(fields(), st.integers(-300, 300))
def test_csv_matches_per_row_writer_and_round_trips(field, exponent):
    gf, rng = field
    values = gf.values * 10.0 ** exponent
    flat = values.reshape(-1)
    picks = rng.integers(0, flat.size, SPECIAL.size)
    flat[picks] = SPECIAL
    gf = cf.GridFunction(gf.grid, values)
    text = csv_text(gf)
    # compared as lines: pytest's diff of two long strings is quadratic
    assert text.splitlines(True) == oracle_csv(gf).splitlines(True)
    back = from_csv(io.StringIO(text), gf.grid)
    assert same_bits(back.values, gf.values)
