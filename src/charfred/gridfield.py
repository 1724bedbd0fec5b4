"""Uniform space-period-period grids and vector-valued node fields.

The x axis carries both endpoints (nodes i/nx, i = 0..nx); the y and t
axes are periodic and store one period half-open (nodes j*Y/ny,
j = 0..ny-1). Off-node values come from trilinear interpolation with
periodic wrap in y and t.
"""
from __future__ import annotations

import io
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .expressions import Expression, EvalError, evaluate_on

# positions this close to a node (in index units) are snapped onto it,
# so interpolation reproduces stored node values exactly
_SNAP = 1e-9

_X_SLACK = 1e-12


class GridDomainError(ValueError):
    """Raised when an x coordinate leaves [0, 1] by more than the slack."""


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
            if getattr(self, name) < 4:
                raise ValueError(f"{name} must be at least 4")
        if self.period_y <= 0 or self.period_t <= 0:
            raise ValueError("periods must be positive")

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
    """Finite vector field sampled on grid nodes, shape (m, nx+1, ny, nt)."""

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

    def __add__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "GridFunction":
        return GridFunction(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


class ShiftDiff(NamedTuple):
    value: float
    skipped: int


def zeros(grid: Grid, m: int) -> GridFunction:
    return GridFunction(grid, np.zeros((m, grid.nx + 1, grid.ny, grid.nt)))


def sample(exprs: Sequence[Expression], grid: Grid) -> GridFunction:
    """Evaluate expressions on every node; m = len(exprs)."""
    X = grid.xs()[:, None, None]
    Y = grid.ys()[None, :, None]
    T = grid.ts()[None, None, :]
    out = np.empty((len(exprs), grid.nx + 1, grid.ny, grid.nt))
    for c, e in enumerate(exprs):
        try:
            out[c] = evaluate_on(e, X, Y, T)
        except EvalError:
            _locate_eval_error(e, grid, c)
            raise
    return GridFunction(grid, out)


def _locate_eval_error(e, grid, comp):
    # rerun pointwise to name the first failing node
    for ix, x in enumerate(grid.xs()):
        for iy, y in enumerate(grid.ys()):
            for it, t in enumerate(grid.ts()):
                try:
                    evaluate_on(e, x, y, t)
                except EvalError as err:
                    raise EvalError(
                        f"component {comp} at node ({ix},{iy},{it}): {err}",
                        err.node) from err


def _snap(u: np.ndarray) -> np.ndarray:
    nearest = np.rint(u)
    return np.where(np.abs(u - nearest) < _SNAP, nearest, u)


def _split_index(u) -> tuple[np.ndarray, np.ndarray]:
    """Integer part and fraction of index positions, snapped onto nodes."""
    u = _snap(np.asarray(u, dtype=float))
    base = np.floor(u)
    return base.astype(np.int64), u - base


def _periodic_index(pos: np.ndarray, n: int, period: float):
    base, frac = _split_index(np.asarray(pos, dtype=float) * n / period)
    i0 = base % n
    i1 = (i0 + 1) % n
    return i0, i1, frac


def _x_index(pos: np.ndarray, nx: int):
    u = np.asarray(pos, dtype=float) * nx
    if np.any(u < -_X_SLACK * nx) or np.any(u > nx * (1 + _X_SLACK)):
        bad = np.asarray(pos, dtype=float)
        off = bad[(bad < -_X_SLACK) | (bad > 1 + _X_SLACK)]
        raise GridDomainError(f"x = {float(off.flat[0])!r} outside [0, 1]")
    u = np.clip(_snap(u), 0.0, float(nx))
    base = np.minimum(np.floor(u), nx - 1)
    frac = u - base
    i0 = base.astype(np.int64)
    return i0, i0 + 1, frac


def _corners(i0, i1, frac):
    """(index, weight) pairs of one axis.

    When every point sits on a node the upper corner has weight exactly
    zero and is left out: its terms would add only signed zeros.
    """
    if not np.any(frac):
        return ((i0, 1.0 - frac),)
    return ((i0, 1.0 - frac), (i1, frac))


def interpolate_many(gf: GridFunction, x, y, t) -> np.ndarray:
    """Trilinear interpolation at arrays of points; returns (m, *shape).

    x, y and t broadcast against each other but are indexed as given, so
    grid-shaped inputs like (nx+1, 1, 1), (1, ny, 1), (1, 1, nt) cost one
    index computation per axis level. Each corner is one flat gather.
    """
    g = gf.grid
    x, y, t = (np.asarray(a, dtype=float) for a in (x, y, t))
    shape = np.broadcast_shapes(x.shape, y.shape, t.shape)
    ix0, ix1, fx = _x_index(x, g.nx)
    iy0, iy1, fy = _periodic_index(y, g.ny, g.period_y)
    it0, it1, ft = _periodic_index(t, g.nt, g.period_t)
    # flat offsets into the (m, nodes) view: ix * ny * nt + iy * nt + it
    sx, sy = g.ny * g.nt, g.nt
    flat = gf.values.reshape(gf.m, -1)
    out = np.zeros((gf.m,) + shape)
    for ix, wx in _corners(ix0 * sx, ix1 * sx, fx):
        for iy, wy in _corners(iy0 * sy, iy1 * sy, fy):
            w2 = wx * wy
            ixy = ix + iy
            for it, wt in _corners(it0, it1, ft):
                out += np.take(flat, ixy + it, axis=1) * (w2 * wt)
    return out


def interpolate(gf: GridFunction, x: float, y: float, t: float) -> np.ndarray:
    """Value of the field at one point, as a length-m vector."""
    return interpolate_many(gf, np.asarray(x, float), y, t).reshape(gf.m)


def sup_norm(gf: GridFunction) -> float:
    """Max of |values| over all components and nodes."""
    return float(np.max(np.abs(gf.values))) if gf.values.size else 0.0


def sum_sup_norm(gf: GridFunction) -> float:
    """Sum over components of the per-component node maximum."""
    return float(np.sum(np.max(np.abs(gf.values), axis=(1, 2, 3))))


def shift_diff_norm(gf: GridFunction, shift) -> ShiftDiff:
    """sup |u(p + shift) - u(p)| over nodes p with x + hx still in [0, 1].

    Nodes whose shifted x leaves the slab are skipped and counted; the
    count is (number of excluded x levels) * ny * nt.
    """
    hx, hy, ht = (float(s) for s in shift)
    g = gf.grid
    xs = gf.grid.xs()
    keep = (xs + hx >= -_X_SLACK) & (xs + hx <= 1.0 + _X_SLACK)
    skipped = int(np.sum(~keep)) * g.ny * g.nt
    if not np.any(keep):
        return ShiftDiff(0.0, skipped)
    X = (xs[keep] + hx)[:, None, None]
    Y = (gf.grid.ys() + hy)[None, :, None]
    T = (gf.grid.ts() + ht)[None, None, :]
    shifted = interpolate_many(gf, X, Y, T)
    diff = shifted - gf.values[:, keep]
    return ShiftDiff(float(np.max(np.abs(diff))), skipped)


CSV_HEADER = "component,ix,iy,it,x,y,t,value"


@contextmanager
def text_target(target):
    """A text stream to write to: target itself, or the file at a path."""
    if isinstance(target, (str, bytes)):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield target


def to_csv(gf: GridFunction, target) -> None:
    """Write the field as CSV rows in (component, ix, iy, it) order."""
    g = gf.grid
    # every column but the value is formatted once per axis node
    x_cols = [f"{x!r}," for x in g.xs().tolist()]
    y_cols = [f"{y!r}," for y in g.ys().tolist()]
    t_cols = [f"{t!r}," for t in g.ts().tolist()]
    it_cols = [f"{it}," for it in range(g.nt)]
    vals = gf.values.tolist()
    with text_target(target) as fh:
        fh.write(CSV_HEADER + "\n")
        for c in range(gf.m):
            for ix in range(g.nx + 1):
                rows = []
                for iy, line in enumerate(vals[c][ix]):
                    lead = f"{c},{ix},{iy},"
                    xy = x_cols[ix] + y_cols[iy]
                    rows += [f"{lead}{i}{xy}{t}{v!r}\n"
                             for i, t, v in zip(it_cols, t_cols, line)]
                fh.write("".join(rows))


def from_csv(source, grid: Grid) -> GridFunction:
    """Rebuild a field from to_csv output (inverse up to float repr)."""
    close = False
    if isinstance(source, (str, bytes)):
        fh = open(source, "r", encoding="utf-8")
        close = True
    else:
        fh = source
    try:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    finally:
        if close:
            fh.close()
    m = int(rows[:, 0].max()) + 1 if rows.size else 0
    expected = m * (grid.nx + 1) * grid.ny * grid.nt
    if rows.shape[0] != expected:
        raise ValueError(f"expected {expected} rows for {m} components on "
                         f"this grid, found {rows.shape[0]}")
    values = np.empty((m, grid.nx + 1, grid.ny, grid.nt))
    seen = np.zeros(values.shape, dtype=bool)
    comp = rows[:, 0].astype(int)
    ix = rows[:, 1].astype(int)
    iy = rows[:, 2].astype(int)
    it = rows[:, 3].astype(int)
    if (ix.max(initial=0) > grid.nx or iy.max(initial=0) >= grid.ny
            or it.max(initial=0) >= grid.nt):
        raise ValueError("node indices out of range for this grid")
    values[comp, ix, iy, it] = rows[:, 7]
    seen[comp, ix, iy, it] = True
    if not seen.all():
        raise ValueError("duplicate rows leave some grid nodes unset")
    return GridFunction(grid, values)


def csv_text(gf: GridFunction) -> str:
    buf = io.StringIO()
    to_csv(gf, buf)
    return buf.getvalue()
