"""Uniform space-period-period grids and vector-valued node fields.

The x axis carries both endpoints (nodes i/nx, i = 0..nx); the y and t
axes are periodic and store one period half-open (nodes j*Y/ny,
j = 0..ny-1). Off-node values come from trilinear interpolation with
periodic wrap in y and t.
"""
from __future__ import annotations

import io
import itertools
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral
from typing import Sequence

import numpy as np

from .expressions import Expression, EvalError, evaluate_on

# positions this close to a node (in index units) are snapped onto it,
# so interpolation reproduces stored node values exactly
_SNAP = 1e-9

_X_SLACK = 1e-12


class GridDomainError(ValueError):
    """Raised when an x coordinate leaves [0, 1] by more than the slack,
    or any coordinate is NaN or infinite."""


class NonFiniteError(ValueError):
    """Raised when a field would hold an infinite or NaN value."""


@dataclass(frozen=True)
class Grid:
    nx: int
    ny: int
    nt: int
    period_y: float = 1.0
    period_t: float = 1.0

    def __post_init__(self):
        for name in ("nx", "ny", "nt"):
            size = getattr(self, name)
            # a float size would pass here and fail at the first allocation
            if isinstance(size, bool) or not isinstance(size, Integral):
                raise ValueError(f"{name} must be an integer, got {size!r}")
            if size < 4:
                raise ValueError(f"{name} must be at least 4")
        if not (0 < self.period_y < np.inf and 0 < self.period_t < np.inf):
            raise ValueError("periods must be positive and finite")

    def xs(self) -> np.ndarray:
        return np.arange(self.nx + 1) / self.nx

    def ys(self) -> np.ndarray:
        return np.arange(self.ny) * self.period_y / self.ny

    def ts(self) -> np.ndarray:
        return np.arange(self.nt) * self.period_t / self.nt

    @property
    def node_count(self) -> int:
        return (self.nx + 1) * self.ny * self.nt


@dataclass(frozen=True)
class GridFunction:
    """Finite vector field sampled on grid nodes, shape (m, nx+1, ny, nt).

    The field takes its values without a copy where it can: a
    C-contiguous float64 array becomes values itself and is made
    read-only; any other input is copied, and the caller's array stays
    writable. The flag guards only the array passed in. A view of it
    taken before the field was built stays writable and writes through
    to values, but not to the padded copy that interpolate_many keeps
    (_padded), so reads made after such a write disagree with values.
    Pass an array that no other view shares.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        g = self.grid
        v = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if v.ndim != 4 or v.shape[1:] != (g.nx + 1, g.ny, g.nt):
            raise ValueError(f"values shape {v.shape} does not match grid")
        if not np.all(np.isfinite(v)):
            raise NonFiniteError("field values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @cached_property
    def _padded(self) -> np.ndarray:
        """The values on (m, nx+1, ny+1, nt+1), flattened: the y = 0 and
        t = 0 planes repeated at the far ends, so that every upper corner
        along y or t is its lower corner plus a fixed stride, with no wrap.

        interpolate_many reads it. The values are read-only, so it is
        built at the first read and kept: the fused K^3 route reads each
        component some 50 times per call.
        """
        g = self.grid
        v = self.values
        pad = np.empty((self.m, g.nx + 1, g.ny + 1, g.nt + 1))
        pad[:, :, :g.ny, :g.nt] = v
        pad[:, :, :g.ny, g.nt] = v[:, :, :, 0]
        pad[:, :, g.ny] = pad[:, :, 0]
        pad.flags.writeable = False
        return pad.reshape(-1)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "GridFunction":
        return GridFunction(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


def zeros(grid: Grid, m: int) -> GridFunction:
    return GridFunction(grid, np.zeros((m, grid.nx + 1, grid.ny, grid.nt)))


def sample(exprs: Sequence[Expression], grid: Grid) -> GridFunction:
    """Evaluate expressions on every node; m = len(exprs)."""
    out = np.empty((len(exprs), grid.nx + 1, grid.ny, grid.nt))
    for c, e in enumerate(exprs):
        out[c] = evaluate_at_nodes(e, grid, f"component {c}")
    return GridFunction(grid, out)


def evaluate_at_nodes(e: Expression, grid: Grid, label: str):
    """e on the grid's nodes, broadcast from (nx+1, 1, 1), (1, ny, 1) and
    (1, 1, nt) axes; an EvalError names label and the first failing node."""
    try:
        return evaluate_on(e, grid.xs()[:, None, None],
                           grid.ys()[None, :, None], grid.ts()[None, None, :])
    except EvalError:
        _locate_eval_error(e, grid, label)
        raise


def _locate_eval_error(e, grid, label):
    # rerun pointwise to name the first failing node
    for ix, x in enumerate(grid.xs()):
        for iy, y in enumerate(grid.ys()):
            for it, t in enumerate(grid.ts()):
                try:
                    evaluate_on(e, x, y, t)
                except EvalError as err:
                    raise EvalError(f"{label} at node ({ix},{iy},{it}): "
                                    f"{err.reason}", err.node) from err


def _snap(u: np.ndarray) -> None:
    """Move index positions within _SNAP of a node onto it, in place."""
    nearest = np.rint(u)
    gap = np.subtract(u, nearest)
    np.abs(gap, out=gap)
    near = gap < _SNAP
    if near.any():
        np.copyto(u, nearest, where=near)


def _split_index(u) -> tuple[np.ndarray, np.ndarray]:
    """Integer part and fraction of index positions, snapped onto nodes.

    A float array u is overwritten with the fractions, so callers pass
    a temporary of their own.
    """
    u = np.asarray(u, dtype=float)
    _snap(u)
    base = np.floor(u)
    u -= base
    return base.astype(np.int64), u


def _require_finite(name: str, a: np.ndarray) -> None:
    finite = np.isfinite(a)
    if not finite.all():
        bad = a[~finite].flat[0]
        raise GridDomainError(f"{name} = {float(bad)!r} is not finite")


def _periodic_index(pos: np.ndarray, n: int, period: float, stride: int):
    """Flat offsets of the lower corners, in [0, n) times stride, and the
    fractions."""
    u = pos * n
    if period != 1.0:
        u /= period
    base, frac = _split_index(u)
    # base mod n as base - n (base // n): numpy divides int64 by a scalar
    # several times faster than it takes the remainder, and the two agree
    # on every int64, since the arithmetic wraps mod 2^64 and the
    # remainder lies in [0, n)
    wraps = base // n
    wraps *= -n
    base += wraps
    if stride != 1:
        base *= stride
    return base, frac


def _x_index(pos: np.ndarray, nx: int, stride: int):
    """Flat offsets of the lower corners, in [0, nx) times stride, and the
    fractions."""
    u = pos * nx
    if not u.size:
        return u.astype(np.int64), u
    lo, hi = float(u.min()), float(u.max())
    # written so that NaN fails it too
    if not (lo >= -_X_SLACK * nx and hi <= nx * (1 + _X_SLACK)):
        inside = (u >= -_X_SLACK * nx) & (u <= nx * (1 + _X_SLACK))
        bad = pos[~inside].flat[0]
        raise GridDomainError(f"x = {float(bad)!r} outside [0, 1]")
    if lo < 0.0 or hi > nx:
        np.clip(u, 0.0, float(nx), out=u)
    base, frac = _split_index(u)
    # the face x = 1 is the top of the last cell, not a cell of its own.
    # Only a position within _SNAP of nx lands on it, and nx - u is exact
    # there, so the largest position decides whether any point does
    if nx - min(hi, nx) < _SNAP:
        top = base == nx
        base[top] = nx - 1
        frac[top] = 1.0
    base *= stride
    return base, frac


def interpolate_many(gf: GridFunction, x, y, t) -> np.ndarray:
    """Trilinear interpolation at arrays of points; returns (m, *shape).

    x, y and t broadcast against each other but are indexed as given, so
    grid-shaped inputs like (nx+1, 1, 1), (1, ny, 1), (1, 1, nt) cost one
    index computation per axis level. The field is read through
    GridFunction._padded, where a point's eight corners sit at fixed
    offsets from one base offset: each corner is one gather from the
    padded values shifted by its offset. The corners are blended in
    place by nested two-point steps a (1 - f) + b f: four along t, two
    along y, one along x. A step is exact at f = 0 and f = 1, so a read
    on a node returns the node's value, and a point whose x and t sit on
    nodes gets shift_diff_norm's y blend bit for bit. Coordinates must be
    finite and x within [0, 1] up to a slack of 1e-12; anything else
    raises GridDomainError.
    """
    g = gf.grid
    x, y, t = (np.asarray(a, dtype=float) for a in (x, y, t))
    shape = np.broadcast_shapes(x.shape, y.shape, t.shape)
    # the index work runs in place, on arrays rather than numpy scalars
    x, y, t = np.atleast_1d(x, y, t)
    _require_finite("y", y)
    _require_finite("t", t)
    # offsets into one component of the padded values:
    # ix * (ny+1) (nt+1) + iy * (nt+1) + it
    sy = g.nt + 1
    sx = (g.ny + 1) * sy
    ix, fx = _x_index(x, g.nx, sx)
    iy, fy = _periodic_index(y, g.ny, g.period_y, sy)
    it, ft = _periodic_index(t, g.nt, g.period_t, 1)
    base = ix + iy + it
    if gf.m > 1:
        # and one more offset per component, into the whole flat array
        comps = np.arange(gf.m).reshape((-1,) + (1,) * base.ndim)
        base = base + (g.nx + 1) * sx * comps
    flat = gf._padded
    # each axis's lower corner at offset 0 and its upper one at its
    # stride: blend the t pairs, then the y pairs, then the x pair
    gx, gy, gt = 1.0 - fx, 1.0 - fy, 1.0 - ft
    planes = []
    for ox in (0, sx):
        lines = [_blend(np.take(flat[ox + oy:], base),
                        np.take(flat[ox + oy + 1:], base), gt, ft)
                 for oy in (0, sy)]
        planes.append(_blend(*lines, gy, fy))
    return _blend(*planes, gx, fx).reshape((gf.m,) + shape)


def _blend(lo: np.ndarray, hi: np.ndarray, wlo, whi) -> np.ndarray:
    """lo wlo + hi whi, written over lo: with weights (1 - f, f) it is
    exactly lo at f = 0 and hi at f = 1."""
    lo *= wlo
    hi *= whi
    lo += hi
    return lo


def interpolate(gf: GridFunction, x: float, y: float, t: float) -> np.ndarray:
    """Value of the field at one point, as a length-m vector."""
    return interpolate_many(gf, np.asarray(x, float), y, t).reshape(gf.m)


def sup_norm(gf: GridFunction) -> float:
    """Max of |values| over all components and nodes."""
    return float(np.max(np.abs(gf.values))) if gf.values.size else 0.0


def sum_sup_norm(gf: GridFunction) -> float:
    """Sum over components of the per-component node maximum."""
    return float(np.sum(np.max(np.abs(gf.values), axis=(1, 2, 3))))


def shift_diff_norm(gf: GridFunction, hy: float) -> float:
    """sup |u(x, y + hy, t) - u(x, y, t)| over all nodes.

    A NaN or infinite hy raises GridDomainError.
    """
    _require_finite("y shift", np.asarray(hy, dtype=float))
    g = gf.grid
    # x and t stay on their nodes, where interpolate_many's t and x steps
    # return their lower corner exactly, so its y step, the same _blend of
    # two y planes, gives its values bit for bit
    lower, frac = _periodic_index(g.ys() + hy, g.ny, g.period_y, 1)
    diff = np.take(gf.values, lower, axis=2)
    if np.any(frac):
        w = frac[:, None]
        _blend(diff, np.take(gf.values, lower + 1, axis=2, mode="wrap"),
               1.0 - w, w)
    diff -= gf.values
    np.abs(diff, out=diff)
    return float(diff.max())


CSV_HEADER = "component,ix,iy,it,x,y,t,value"


@contextmanager
def text_target(target, mode: str = "w"):
    """A text stream: target itself, or the file at a path (a str, bytes
    or os.PathLike) opened in mode "w" (newlines written untranslated) or
    "r"."""
    if isinstance(target, (str, bytes, os.PathLike)):
        with open(target, mode, encoding="utf-8",
                  newline="" if mode == "w" else None) as fh:
            yield fh
    else:
        yield target


def to_csv(gf: GridFunction, target) -> None:
    """Write the field as CSV rows in (component, ix, iy, it) order.

    Every number is written as its repr, so from_csv reads the values
    back bit for bit. The rows are assembled and written one (c, ix)
    block at a time, so the text of the whole field is never held.
    """
    g = gf.grid
    n = g.ny * g.nt
    x_cols = [f"{x!r}," for x in g.xs().tolist()]
    t_cols = [f"{t!r}," for t in g.ts().tolist()]
    # a row is six pieces: "c,ix,", "iy,it,", "x,", "y,t,", the value and
    # "\n". The (y, t) pieces are formatted once per plane node and the
    # rest once per block, so repr of the value is the only per-row work
    pieces = [""] * (6 * n)
    pieces[1::6] = [f"{iy},{it}," for iy in range(g.ny) for it in range(g.nt)]
    pieces[3::6] = [f"{y!r},{t}" for y in g.ys().tolist() for t in t_cols]
    pieces[5::6] = ["\n"] * n
    with text_target(target) as fh:
        fh.write(CSV_HEADER + "\n")
        for c in range(gf.m):
            for ix in range(g.nx + 1):
                pieces[0::6] = [f"{c},{ix},"] * n
                pieces[2::6] = [x_cols[ix]] * n
                pieces[4::6] = map(repr, gf.values[c, ix].reshape(-1).tolist())
                fh.write("".join(pieces))


def from_csv(source, grid: Grid) -> GridFunction:
    """Rebuild a field from to_csv output (inverse up to float repr)."""
    width = CSV_HEADER.count(",") + 1
    with text_target(source, "r") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        # loadtxt warns on an empty input, so the header-only file of a
        # 0-component field is read without it
        lines = (line for line in fh if line.strip())
        first = next(lines, None)
        try:
            rows = (np.empty((0, width)) if first is None else np.loadtxt(
                itertools.chain([first], lines), delimiter=",", ndmin=2))
            if rows.shape[1] != width:
                raise ValueError(f"found {rows.shape[1]} fields")
        except ValueError as exc:
            raise ValueError(f"every row must hold the {width} numbers "
                             f"{CSV_HEADER!r}: {exc}") from None
    # a negative index would wrap and a fractional one would truncate. The
    # rows of component c follow those of c whole components, so a c not
    # below rows / node_count (an infinite one too) is out of range
    index = rows[:, :4]
    bounds = (rows.shape[0] / grid.node_count, grid.nx + 1, grid.ny, grid.nt)
    if (np.any(index != np.floor(index)) or np.any(index < 0)
            or np.any(index >= bounds)):
        raise ValueError("node indices out of range for this grid")
    m = int(rows[:, 0].max()) + 1 if rows.size else 0
    expected = m * grid.node_count
    if rows.shape[0] != expected:
        raise ValueError(f"expected {expected} rows for {m} components on "
                         f"this grid, found {rows.shape[0]}")
    values = np.empty((m, grid.nx + 1, grid.ny, grid.nt))
    seen = np.zeros(values.shape, dtype=bool)
    comp, ix, iy, it = index.astype(int).T
    values[comp, ix, iy, it] = rows[:, 7]
    seen[comp, ix, iy, it] = True
    if not seen.all():
        raise ValueError("duplicate rows leave some grid nodes unset")
    return GridFunction(grid, values)


def csv_text(gf: GridFunction) -> str:
    buf = io.StringIO()
    to_csv(gf, buf)
    return buf.getvalue()
