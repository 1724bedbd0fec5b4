"""Property tests of grid-field interpolation and the CSV writer.

Each property compares against an in-test oracle bit for bit: the
fancy-index trilinear interpolation by nested two-point blends (with its
own snapping and index arithmetic, so the kernel is not compared with
itself), the field's values at its nodes, full-field reads sliced to one
component, and a per-row f-string CSV writer. The plain eight-corner
sum, the kernel's former formula, bounds its rounding. The fused K^3
route in probe blocks is compared with per-probe evaluation, and the
y-shift modulus with the difference read through interpolate_many.
"""
import io
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import charfred as cf
from charfred import characteristics, fredholm
from charfred.gridfield import _SNAP, CSV_HEADER, csv_text, from_csv
from conftest import coupled_spec

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


def oracle_snap(u):
    nearest = np.rint(u)
    return np.where(np.abs(u - nearest) < _SNAP, nearest, u)


def oracle_split_index(u):
    u = oracle_snap(np.asarray(u, dtype=float))
    base = np.floor(u)
    return base.astype(np.int64), u - base


def oracle_periodic_index(pos, n, period):
    base, frac = oracle_split_index(np.asarray(pos, dtype=float) * n / period)
    i0 = base % n
    i1 = (i0 + 1) % n
    return i0, i1, frac


def oracle_x_index(pos, nx):
    u = np.asarray(pos, dtype=float) * nx
    u = np.clip(oracle_snap(u), 0.0, float(nx))
    base = np.minimum(np.floor(u), nx - 1)
    frac = u - base
    i0 = base.astype(np.int64)
    return i0, i0 + 1, frac


def oracle_corners(gf, x, y, t):
    """Both corner indices and the fraction of each axis, fully
    broadcast."""
    g = gf.grid
    x, y, t = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float),
                                  np.asarray(t, float))
    return (oracle_x_index(x, g.nx),
            oracle_periodic_index(y, g.ny, g.period_y),
            oracle_periodic_index(t, g.nt, g.period_t))


def oracle_interpolate(gf, x, y, t):
    """Trilinear interpolation by nested two-point blends a (1 - f) + b f:
    the t pairs of the eight corners, then the y pairs, then x."""
    (ix0, ix1, fx), (iy0, iy1, fy), (it0, it1, ft) = \
        oracle_corners(gf, x, y, t)
    v = gf.values

    def blend(a, b, frac):
        return a * (1.0 - frac) + b * frac

    return blend(*(blend(*(blend(v[:, ix, iy, it0], v[:, ix, iy, it1], ft)
                           for iy in (iy0, iy1)), fy)
                   for ix in (ix0, ix1)), fx)


def oracle_eight_corner_sum(gf, x, y, t):
    """Trilinear interpolation as the sum of the eight corners, each
    weighted by (wx wy) wt."""
    (ix0, ix1, fx), (iy0, iy1, fy), (it0, it1, ft) = \
        oracle_corners(gf, x, y, t)
    v = gf.values
    out = np.zeros((gf.m,) + fx.shape)
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
# beyond one period), exactly at x = 0 or 1, anywhere, in the last cell
# (y and t up to just below a period, where the upper corner wraps to
# node 0; x up to x = 1 and within its slack), within a few _SNAP of a
# node on either side of the snap, or far: y and t several periods away,
# or 1e16 to 1e18 (up to 4e18 index units, where int64 indices still
# hold)
KIND_NAMES = ("nodes", "ends", "random", "last", "near", "far")
KINDS = st.sampled_from(KIND_NAMES)
# shapes per axis: scattered (all (p,)), separable ((a,1,1), (1,b,1),
# (1,1,c)), broadcast-only with scalars mixed in, or zero-size
LAYOUTS = st.sampled_from(("scattered", "separable", "broadcast", "empty"))


def axis_points(rng, kind, n, period, size, periodic):
    if kind == "random" or (kind == "far" and not periodic):
        lo, hi = (-3.0 * period, 3.0 * period) if periodic else (0.0, 1.0)
        return rng.uniform(lo, hi, size)
    if kind == "ends":
        ends = (-period, 0.0, period, 2 * period) if periodic else (0.0, 1.0)
        return rng.choice(ends, size)
    if kind == "last":
        if not periodic:
            edge = (1.0, np.nextafter(1.0, 0.0), 1.0 - 1e-10, 1.0 + 1e-13)
            inner = (n - 1 + rng.uniform(0.0, 1.0, size)) / n
            return np.where(rng.random(size) < 0.5, rng.choice(edge, size),
                            inner)
        k = rng.integers(-3, 4, size)
        below = np.nextafter((k + 1) * period, -np.inf)
        inner = (n - 1 + rng.uniform(0.0, 1.0, size)) * period / n + k * period
        return np.where(rng.random(size) < 0.5, below, inner)
    if kind == "near":
        lo, hi = (-3 * n, 3 * n) if periodic else (0, n)
        gap = rng.choice((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0), size) * _SNAP
        pos = (rng.integers(lo, hi + 1, size) + gap) * period / n
        return pos if periodic else np.clip(pos, 0.0, 1.0)
    if kind == "far":
        sign = rng.choice((-1.0, 1.0), size)
        periods = sign * rng.integers(5, 1000, size) * period \
            + rng.uniform(0.0, period, size)
        huge = sign * np.minimum(10.0 ** rng.uniform(16.0, 18.0, size),
                                 4e18 * period / n)
        return np.where(rng.random(size) < 0.5, periods, huge)
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
    elif layout == "broadcast":
        shapes = [draw(st.sampled_from(((), (1,), (3, 1), (1, 4), (3, 4))))
                  for _ in axes]
    else:
        shapes = [draw(st.sampled_from(((), (0,), (1,), (2, 0), (2, 1))))
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


@pytest.mark.parametrize("axis", range(3))
@pytest.mark.parametrize("kind", KIND_NAMES)
@pytest.mark.parametrize("periods", [(1.0, 1.0), (0.5, 3.0)])
def test_every_point_kind_matches_eight_corner_oracle(axis, kind, periods):
    # each kind on one axis, the other two anywhere, on three components
    grid = cf.Grid(nx=5, ny=7, nt=4, period_y=periods[0],
                   period_t=periods[1])
    rng = np.random.default_rng(axis * 100 + KIND_NAMES.index(kind))
    gf = cf.GridFunction(grid, rng.standard_normal((3, 6, 7, 4)))
    axes = ((grid.nx, 1.0, False), (grid.ny, grid.period_y, True),
            (grid.nt, grid.period_t, True))
    x, y, t = (axis_points(rng, kind if d == axis else "random", n, period,
                           200, periodic)
               for d, (n, period, periodic) in enumerate(axes))
    assert same_bits(cf.interpolate_many(gf, x, y, t),
                     oracle_interpolate(gf, x, y, t))


@PROPERTY
@given(interpolation_cases())
def test_interpolate_many_is_within_four_ulps_of_sup_of_the_corner_sum(case):
    # both are sums of convex weights, rounded in another order
    gf, (x, y, t) = case
    gap = np.abs(cf.interpolate_many(gf, x, y, t)
                 - oracle_eight_corner_sum(gf, x, y, t))
    assert gap.max(initial=0.0) <= 4 * 2.0 ** -52 * np.abs(gf.values).max()


@pytest.mark.parametrize("layout", ["scattered", "separable"])
@pytest.mark.parametrize("periods", [(1.0, 1.0), (0.5, 3.0)])
def test_every_node_reads_back_its_value_bit_for_bit(layout, periods):
    # x from face 0 to face 1; y and t one period either way
    grid = cf.Grid(nx=5, ny=7, nt=4, period_y=periods[0],
                   period_t=periods[1])
    rng = np.random.default_rng(5)
    full = cf.GridFunction(grid, rng.standard_normal((3, 6, 7, 4)))
    views = [full] + [cf.GridFunction(grid, full.values[c:c + 1])
                      for c in range(3)]
    xs = grid.xs()
    for k in (-1, 0, 1):
        ys = grid.ys() + k * grid.period_y
        ts = grid.ts() + k * grid.period_t
        if layout == "separable":
            points = (xs[:, None, None], ys[None, :, None], ts[None, None])
        else:
            points = [a.ravel() for a in np.meshgrid(xs, ys, ts,
                                                     indexing="ij")]
        for gf in views:
            got = cf.interpolate_many(gf, *points)
            assert same_bits(got.reshape(gf.values.shape), gf.values)


@pytest.mark.parametrize("scale", [2.0 ** 62, 2.0 ** 63, 1e19, 1e300])
def test_indices_past_int64_reduce_as_the_oracle_does(scale):
    # y and t are floored into int64 and reduced mod n by a floor
    # division. From 2^63 index units on the cast overflows (numpy warns)
    # and gives the same int64 to both; the reduction must still agree
    # with the oracle's remainder there, at either sign
    grid = cf.Grid(nx=4, ny=7, nt=5)
    rng = np.random.default_rng(11)
    gf = cf.GridFunction(grid, rng.standard_normal((2, 5, 7, 5)))
    index = scale * np.array([-1.0, 1.0, -1.0, 1.0])
    x = np.array([0.0, 0.5, 1.0, 0.25])
    y = index * grid.period_y / grid.ny
    t = index[::-1] * grid.period_t / grid.nt
    with np.errstate(invalid="ignore"):
        got = cf.interpolate_many(gf, x, y, t)
        want = oracle_interpolate(gf, x, y, t)
    assert same_bits(got, want)


@PROPERTY
@given(interpolation_cases())
def test_single_component_reads_are_full_reads_sliced(case):
    gf, (x, y, t) = case
    full = cf.interpolate_many(gf, x, y, t)
    for c in range(gf.m):
        part = cf.GridFunction(gf.grid, gf.values[c:c + 1])
        assert same_bits(cf.interpolate_many(part, x, y, t)[0], full[c])


# y shifts, in nodes: on a node, between nodes, within a few _SNAP of a
# node (either side of the snap), anywhere, or 1e16 to 4e18 nodes away;
# k reaches three periods either way
SHIFT_KINDS = st.sampled_from(("node", "between", "near-node", "random",
                               "far"))


@st.composite
def shift_cases(draw):
    gf, _ = draw(fields())
    g = gf.grid
    k = draw(st.integers(-3 * g.ny, 3 * g.ny))
    kind = draw(SHIFT_KINDS)
    if kind == "node":
        nodes = k
    elif kind == "between":
        nodes = k + draw(st.floats(0.001, 0.999))
    elif kind == "near-node":
        nodes = k + draw(st.sampled_from((-2.0, -0.5, 0.5, 2.0))) * _SNAP
    elif kind == "far":
        nodes = draw(st.sampled_from((-1.0, 1.0))) \
            * min(10.0 ** draw(st.floats(16.0, 18.0)), 4e18)
    else:
        nodes = draw(st.floats(-3.0 * g.ny, 3.0 * g.ny))
    return gf, nodes * g.period_y / g.ny


@PROPERTY
@given(shift_cases())
def test_shift_diff_norm_is_the_interpolated_difference(case):
    gf, hy = case
    g = gf.grid
    shifted = cf.interpolate_many(gf, g.xs()[:, None, None],
                                  (g.ys() + hy)[None, :, None],
                                  g.ts()[None, None, :])
    assert cf.shift_diff_norm(gf, hy) == np.max(np.abs(shifted - gf.values))


def coupled_spec_on(grid):
    """coupled_spec with the grid's periods, which a transport requires."""
    return replace(coupled_spec(), period_y=grid.period_y,
                   period_t=grid.period_t)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(fields(m=3), st.integers(1, 4))
def test_fused_reads_one_component_as_a_sliced_full_read(field, count):
    f, rng = field
    probes = np.column_stack([rng.uniform(0.0, 1.0, count),
                              rng.uniform(-1.0, 2.0, count),
                              rng.uniform(-1.0, 2.0, count)])
    spec = coupled_spec_on(f.grid)
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


BLOCK = fredholm.FUSED_BLOCK
# probes whose innermost nodes fill one pass of _transport_at_points
PASS = characteristics.FUSED_PASS_NODES // (
    characteristics.FUSED_PANELS * characteristics.FUSED_NODES) ** 3


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(fields(m=3), st.sampled_from((0, 1, PASS + 1, BLOCK, BLOCK + 1,
                                     4 * BLOCK + 1)))
def test_fused_blocks_match_per_probe_evaluation(field, count):
    f, rng = field
    probes = np.column_stack([rng.uniform(0.0, 1.0, count),
                              rng.uniform(-1.0, 2.0, count),
                              rng.uniform(-1.0, 2.0, count)])
    spec = coupled_spec_on(f.grid)
    got = fredholm.apply_k_cubed_fused(spec, f, probes)
    assert got.shape == (3, count)
    if count == 0:
        return
    alone = np.column_stack([fredholm.apply_k_cubed_fused(spec, f, p[None])
                             for p in probes])
    tol = 1e-15 * np.abs(alone).max()
    assert np.abs(got - alone).max() <= tol
    # block composition changes with the order, the columns follow it
    order = rng.permutation(count)
    shuffled = fredholm.apply_k_cubed_fused(spec, f, probes[order])
    assert np.abs(shuffled - got[:, order]).max() <= tol


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
