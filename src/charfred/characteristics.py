"""Transport operators along characteristic lines.

Row i of the system reads, along its characteristic line
xi -> (xi, y + beta_i (xi - x), t + alpha_i (xi - x)),

    d/dxi [ (A u)_i ] + gamma_i (A u)_i = f_i,

so with w = A u each row is an independent scalar first-order equation.
Rows 1..k integrate from the inflow face x = 0, rows k+1..n from x = 1;
the sign of the second family follows from the equation and its end
condition (w vanishes at x = 1, so w(x) = -int_x^1 ...).

On the grid every row is one spectral kernel (Greengard, SIAM J. Numer.
Anal., 1991): composite Simpson on the half-cell subdivision
xi_q = q/(2 nx) of the line, the field read by linear interpolation,
which acts on each (y, t) Fourier mode as a diagonal multiplier. A
constant gamma c is the weight e^{c (xi - x)} inside the kernel. A
variable gamma enters through its integrating factor: with Gamma the
signed integral of gamma from the inflow face to each node along the
node's line, the row is e^{-Gamma} R_0 e^{Gamma}, R_0 the kernel with
c = 0. On a grid of at most DENSE_DFT_NODES nodes per component the
modes come from one dense DFT matrix product over the whole (y, t)
plane, and one x operator per mode sums over x; larger grids take
rfft2, a loop over the x offsets and irfft2. A row whose slopes are
both 0 stays on its (y, t) node: its multipliers are the same for every
mode, so on any grid it is one real x operator with no transform.

Gamma, closed-form right-hand sides and the fused K^3 route integrate
along a line by Gauss-Legendre panels instead (_gl_panels), reading
their integrands exactly at the panel nodes (_transport_at_points).

Both engines read one TransportPlan per spec and grid. Its build makes
every check of the spec and holds each row's line and gamma; the grid
kernel's operators (each row's multipliers and e^Gamma, the dense DFT,
the coupling's node values) are built once, at the first grid transport
or coupling product, so the panel route builds none of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .expressions import (EvalError, constant_value, evaluate,
                          evaluate_on, is_literal_zero)
from .gridfield import (Grid, GridFunction, evaluate_at_nodes,
                        interpolate_many, sup_norm)
from .gridfield import _split_index  # shared node snapping
from .system import DET_FLOOR, FORWARD, MIRRORED, SystemSpec

_DEFAULT_STEP_EPS = 1e-12
# grids of at most this many nodes per component, (nx+1) ny nt, transport
# constant-gamma rows by the dense DFT. Per row and call (2-core Xeon,
# numpy 2.4, one BLAS thread), FFT route -> dense DFT for 1 and 8 fields:
# (nx, ny, nt) = (6, 7, 7) 63 -> 14 and 159 -> 60 us; (12, 13, 13)
# 129 -> 91 and 955 -> 829 us; about even at (13, 14, 14), (24, 13, 13)
# and (48, 7, 7); (16, 17, 17) 226 -> 274 and 2249 -> 2383 us. The x
# operators' work grows as nx^2, so the count covers nx as well as the
# plane
DENSE_DFT_NODES = 13 ** 3
# Gauss-Legendre panels per line integral, and nodes per panel, of
# _gl_panels
FUSED_PANELS = 2
FUSED_NODES = 8
# line nodes per pass of _transport_at_points: the innermost read of two
# fused K^3 probes (fredholm.FUSED_BLOCK)
FUSED_PASS_NODES = 2 * (FUSED_PANELS * FUSED_NODES) ** 3
# log of the largest float: the widest range of a row's Gamma over the
# nodes, within which the ratios e^{Gamma(P) - Gamma(Q)} of the
# integrating factor stay finite, and the largest exponent of a kernel
# weight e^{c (xi - x)}
GAMMA_SPREAD_LIMIT = math.log(np.finfo(float).max)


class SingularBlockError(ValueError):
    """A coefficient block is numerically singular."""


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """What every transport solve and coupling product on one grid shares.

    spec and grid are the system and grid the plan was built for. The
    stack level takes a plan, which is its whole context, and the field
    level builds its own. solve_transport and apply_k also take one, so
    that apply_k_power runs every power on one plan; they refuse a plan
    built for another spec object or another grid (resolve). Build one
    per solve and pass it down.

    build checks the spec against the grid: the spec's periods must
    equal the grid's, each block must be invertible (SingularBlockError),
    the orientation must be forward or mirrored, and every nonzero b
    entry must lie in the cyclic pattern, since the one-group blocks of K
    multiply only the entries that the pattern admits, and
    coupling_pattern() reads any orientation but mirrored as forward. A
    constant gamma whose kernel weight e^{c (xi - x)} overflows on a line
    of length 1 is refused (_check_kernel_constant). blocks holds
    (rows, inverse) for the three diagonal blocks, rows a slice of
    components; entries holds the (i, j) of each nonzero entry b[i][j];
    rows holds (forward, beta, alpha, gamma, c) per component, forward
    meaning inflow at x = 0 and c = constant_value(gamma) (None when
    gamma reads x, y or t). These are all that the Gauss panel route
    (_transport_at_points) reads.

    The grid operators are built once, at the first grid transport or
    coupling product that reads them. coupling holds (i, j, node values)
    for each of the entries. dft is (F, weight) of _plane_dft on a grid
    of at most DENSE_DFT_NODES nodes per component, None on larger
    grids. ops holds (multipliers, factor) per row: multipliers what
    _integrate_spectral_row applies for the constant c, or for a varying
    gamma for the constant part that _integrating_factor splits off: for
    a row whose slopes are both exactly 0, the real (nx+1, nx+1) x
    operator of _zero_slope_operator on any grid; otherwise the (H, E)
    pair of _spectral_multipliers, or with a dft the x operator L built
    from it (_x_operator). factor is the e^Gamma of _integrating_factor
    for a varying gamma, whose refusals surface when ops is built, and
    None for a constant one.
    """

    spec: SystemSpec = field(repr=False)
    grid: Grid = field(repr=False)
    blocks: tuple
    entries: tuple
    rows: tuple

    @classmethod
    def resolve(cls, spec: SystemSpec, grid: Grid,
                plan: "TransportPlan | None") -> "TransportPlan":
        """plan, checked to be built for this spec object and grid, or a
        new plan when it is None."""
        if plan is None:
            return cls.build(spec, grid)
        if plan.spec is not spec or plan.grid != grid:
            raise ValueError("the plan was built for another spec or grid")
        return plan

    @classmethod
    def build(cls, spec: SystemSpec, grid: Grid) -> "TransportPlan":
        for name in ("period_y", "period_t"):
            ours, theirs = getattr(spec, name), getattr(grid, name)
            if ours != theirs:
                raise ValueError(f"the spec's {name} = {ours!r} differs "
                                 f"from the grid's {theirs!r}")
        blocks = []
        for name, (sl, a) in zip(("a1", "a2", "a3"), spec.blocks()):
            det = float(np.linalg.det(a))
            if abs(det) <= DET_FLOOR:
                raise SingularBlockError(f"|det {name}| = {abs(det):.3e}")
            inv = np.linalg.inv(a)
            scale = max(1.0, abs(det)) * max(1.0, float(np.abs(a).max()))
            gap = abs(det) * np.abs(a @ inv - np.eye(a.shape[0])).max()
            if gap > 1e-12 * scale:
                raise SingularBlockError(f"inverse identity failed for {name}")
            blocks.append((sl, inv))
        if spec.orientation not in (FORWARD, MIRRORED):
            raise ValueError(f"unknown orientation {spec.orientation!r}")
        entries = tuple((i, j) for i in range(spec.n) for j in range(spec.n)
                        if not is_literal_zero(spec.b[i][j]))
        for i, j in entries:
            if not spec.cell_allowed(i, j):
                raise ValueError(f"b[{i + 1}][{j + 1}] lies outside the "
                                 f"{spec.orientation} coupling pattern")
        rows = []
        for i, gam in enumerate(spec.gamma):
            forward = i < spec.k
            c = constant_value(gam)
            if c is not None:
                _check_kernel_constant(c, forward, f"gamma[{i + 1}]")
            rows.append((forward, float(spec.beta[i]), float(spec.alpha[i]),
                         gam, c))
        return cls(spec, grid, tuple(blocks), entries, tuple(rows))

    @cached_property
    def coupling(self) -> tuple:
        return tuple((i, j, evaluate_at_nodes(self.spec.b[i][j], self.grid,
                                              f"b[{i + 1}][{j + 1}]"))
                     for i, j in self.entries)

    @cached_property
    def dft(self):
        return (_plane_dft(self.grid)
                if self.grid.node_count <= DENSE_DFT_NODES else None)

    @cached_property
    def ops(self) -> tuple:
        grid, ops = self.grid, []
        for i, (forward, beta, alpha, gam, c) in enumerate(self.rows):
            factor = None
            if c is None:
                c, factor = _integrating_factor(grid, forward, beta, alpha,
                                                gam, f"gamma[{i + 1}]")
            if beta == alpha == 0.0:
                mult = _zero_slope_operator(grid, forward, c)
            else:
                mult = _spectral_multipliers(grid, forward, beta, alpha, c)
                if self.dft is not None:
                    mult = _x_operator(*mult, forward, self.dft[1])
            ops.append((mult, factor))
        return tuple(ops)


def _check_kernel_constant(c: float, forward: bool, label: str) -> None:
    """Refuse a kernel constant c whose weight e^{c (xi - x)} overflows.

    xi - x runs over [-1, 0] on a forward row and [0, 1] on a backward
    one, so the weight reaches e^{-c} or e^{c}: beyond
    GAMMA_SPREAD_LIMIT it is no longer finite. The ValueError names label.
    """
    reach = -c if forward else c
    if reach > GAMMA_SPREAD_LIMIT:
        raise ValueError(f"{label}: its constant part {c:.4g} weighs the "
                         f"line integrals by up to e^{reach:.4g}, more than "
                         f"the e^{GAMMA_SPREAD_LIMIT:.2f} within which the "
                         f"weight stays finite")


def default_step(spec: SystemSpec, grid: Grid) -> float:
    """Directional-difference step small against every grid spacing."""
    mb = float(np.abs(spec.beta).max(initial=0.0))
    ma = float(np.abs(spec.alpha).max(initial=0.0))
    return min(1.0 / (4 * grid.nx),
               grid.period_y / (4 * grid.ny * mb + _DEFAULT_STEP_EPS),
               grid.period_t / (4 * grid.nt * ma + _DEFAULT_STEP_EPS))


def _gl_panels(x0, X, tau, omega):
    """Gauss nodes and signed weights for int from x0 to X, per point:
    x0 + (X - x0) tau and (X - x0) omega, one broadcast each, with tau
    and omega the panel rule on [0, 1] of _fused_rule."""
    length = X - x0
    shape = (tau.size,) + (1,) * X.ndim
    return x0 + length * tau.reshape(shape), length * omega.reshape(shape)


@cache
def _fused_rule():
    """The line rule of _gl_panels: FUSED_PANELS Gauss panels of
    FUSED_NODES nodes on [0, 1], as nodes tau and weights omega, with the
    Gauss weights glw on [-1, 1] and the integration matrix S for
    _gamma_integrals. Formed once, as read-only arrays."""
    glx, glw = np.polynomial.legendre.leggauss(FUSED_NODES)
    tau = (((2 * np.arange(FUSED_PANELS) + 1)[:, None] + glx)
           / (2 * FUSED_PANELS)).reshape(-1)
    omega = np.tile(glw / (2 * FUSED_PANELS), FUSED_PANELS)
    rule = tau, omega, glw, _gl_integration_matrix(glx, glw)
    for a in rule:
        a.flags.writeable = False
    return rule


def _gl_integration_matrix(glx, glw):
    """S[k, j] = int_{-1}^{glx[k]} l_j, with l_j the Lagrange basis at the
    Gauss nodes glx.

    S applied to samples of g at glx integrates g's interpolant from -1
    to each node, exactly when g is a polynomial of degree below glx.size.
    """
    leg = np.polynomial.legendre
    q = glx.size
    # l_j = w_j sum_n (n + 1/2) P_n(x_j) P_n, since the rule integrates
    # every product P_n P_m with n, m < q exactly
    coef = leg.legvander(glx, q - 1).T * glw * (np.arange(q) + 0.5)[:, None]
    return leg.legvander(glx, q) @ leg.legint(coef, lbnd=-1)


def _gamma_integrals(gam, x0, X, xi, Yl, Tl, glw, S):
    """int_X^xi gamma along each line, at the panel nodes (xi, Yl, Tl) of
    _gl_panels(x0, X, ...), from gamma read at those nodes alone.

    S (_gl_integration_matrix) integrates each panel from its start to
    its nodes, and the whole panels from there to X are subtracted; every
    panel has the signed half-length (X - x0) / (2 FUSED_PANELS). The
    result integrates gamma's degree FUSED_NODES - 1 interpolant on each
    panel exactly.
    """
    gv = evaluate_on(gam, xi, Yl, Tl).reshape(FUSED_PANELS, glw.size, X.size)
    whole = glw @ gv
    beyond = np.cumsum(whole[::-1], axis=0)[::-1]
    G = S @ gv
    G -= beyond[:, None]
    G *= (X.reshape(-1) - x0) / (2 * FUSED_PANELS)
    return G.reshape(xi.shape)


def _integrating_factor(grid: Grid, forward: bool, beta: float, alpha: float,
                        gam, label: str):
    """(c, e^Gamma) for a row with a varying gamma: the kernel's constant
    c and the integrating factor of the rest, gamma - c, at the nodes.

    c is the midpoint of the range of gamma's samples, so the kernel's
    exact weights e^{c (xi - x)} carry a large constant part of gamma and
    the factor, which the kernel reads by linear interpolation, only the
    variation about it. Gamma(X, Y, T) is the signed integral of gamma - c
    from the inflow face x0 to X along the node's line, sum wts gamma(xi)
    over the panel nodes (xi, wts) of _gl_panels(x0, X, ...), built one x
    level at a time, less c (X - x0). Its shape keeps only the axes that
    the line points gamma reads vary along: (nx+1, ny, 1) for a gamma of
    y on lines of any slope, (nx+1, 1, 1) for a gamma of x. Gamma less
    the midpoint of its range is exponentiated; the row's two factors
    cancel the shift. gamma failing to evaluate at a panel node, a range
    of Gamma wider than GAMMA_SPREAD_LIMIT, and a c whose kernel weight
    overflows (_check_kernel_constant) raise ValueError naming label.
    """
    tau, omega, _, _ = _fused_rule()
    x0 = 0.0 if forward else 1.0
    ys, ts = grid.ys()[:, None], grid.ts()[None, :]
    levels, samples = [], []
    for ix, X in enumerate(grid.xs()):
        xi, wts = _gl_panels(x0, X, tau, omega)
        xi = xi[:, None, None]
        try:
            gv = evaluate(gam, xi, ys + beta * (xi - X), ts + alpha * (xi - X))
        except EvalError as err:
            raise ValueError(f"{label} at a panel node of x level {ix}: "
                             f"{err.reason}") from err
        # x^0 reads x but evaluates to a scalar
        gv = np.broadcast_to(gv, np.broadcast_shapes(np.shape(gv), xi.shape))
        samples += (gv.min(), gv.max())
        levels.append(np.tensordot(wts, gv, 1))
    c = 0.5 * (float(min(samples)) + float(max(samples)))
    G = np.stack(levels)
    G -= c * (grid.xs() - x0).reshape(-1, 1, 1)
    lo, hi = float(G.min()), float(G.max())
    # written so that NaN fails it too
    if not hi - lo <= GAMMA_SPREAD_LIMIT:
        raise ValueError(f"{label}: its integral along the lines, less "
                         f"its constant part, spans {hi - lo:.4g} over the "
                         f"grid, more than the {GAMMA_SPREAD_LIMIT:.2f} "
                         f"within which e^Gamma stays finite")
    _check_kernel_constant(c, forward, label)
    G -= 0.5 * (lo + hi)
    return c, np.exp(G, out=G)


def _line_shifts(grid: Grid, beta: float, alpha: float, forward: bool):
    """Offsets d_m of the half-cell points m = 0..2 nx from a target, their
    Simpson weights s_m = (1, 4, 2, 4, ..., 2) h2 / 3 (halved where m is
    the endpoint of the target's line), negated for a backward row, whose
    w is minus the integral, and the whole (j) and fractional (f) y and t
    index shifts they cause."""
    h2 = 1.0 / (2 * grid.nx)
    d = (-h2 if forward else h2) * np.arange(2 * grid.nx + 1)
    simpson = np.full(2 * grid.nx + 1, 2.0)
    simpson[1::2] = 4.0
    simpson[0] = 1.0
    jy, fy = (a.tolist()
              for a in _split_index(beta * d * grid.ny / grid.period_y))
    jt, ft = (a.tolist()
              for a in _split_index(alpha * d * grid.nt / grid.period_t))
    return d, (h2 if forward else -h2) / 3.0 * simpson, jy, fy, jt, ft


def _shift_multipliers(j, f, n: int, modes: int) -> np.ndarray:
    """Fourier multipliers of two-point reads along a periodic axis.

    Reading a period-n axis at index + j + f, (1 - f) a[i + j] +
    f a[i + j + 1], multiplies mode k by e^{2 pi i k j / n} ((1 - f) +
    f e^{2 pi i k / n}); one row per offset, one column per mode k < modes.
    """
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    k = np.arange(modes)
    j = np.asarray(j)[:, None]
    f = np.asarray(f)[:, None]
    return roots[(k * j) % n] * ((1.0 - f) + f * roots[k])


def _spectral_multipliers(grid: Grid, forward: bool, beta: float,
                          alpha: float, c: float):
    """(H, E) of _integrate_spectral_row for a row with constant gamma c.

    The row sums, over the half-cell offsets d_m from a target toward the
    inflow face, Simpson weight s_m = 1, 4, 2, 4, ... times e^{c d_m}
    times the field at the line point, read by a two-point blend along y
    and t (_shift_multipliers). Offset m so acts on each (y, t) Fourier
    mode as the multiplier G_m. A half-cell layer is read as the mean of
    the two whole levels beside it, so the offsets pair into the whole-cell
    Toeplitz multiplier H_o = G_2o + (G_2o-1 + G_2o+1) / 2 and the
    inflow-face endpoint multiplier E_ix = (G_2ix-1 + G_2ix) / 2, which
    carries the halved Simpson weight of the endpoint. A backward row's
    weights are negated (_line_shifts), so its pair is (-H, -E) and no
    route negates it again.
    """
    d, s, jy, fy, jt, ft = _line_shifts(grid, beta, alpha, forward)
    return _pair_offsets(
        (s * np.exp(c * d))[:, None, None]
        * _shift_multipliers(jy, fy, grid.ny, grid.ny)[:, :, None]
        * _shift_multipliers(jt, ft, grid.nt, grid.nt // 2 + 1)[:, None, :])


def _pair_offsets(G: np.ndarray):
    """(H, E) from the multipliers G_m of the half-cell offsets m = 0..2 nx
    (first axis): H_o = G_2o + (G_2o-1 + G_2o+1) / 2 for o < nx and
    E_ix = (G_2ix-1 + G_2ix) / 2 for ix = 1..nx."""
    H = G[0:-1:2] + 0.5 * G[1::2]
    H[1:] += 0.5 * G[1:-2:2]
    return H, 0.5 * (G[1::2] + G[2::2])


def _zero_slope_operator(grid: Grid, forward: bool, c: float) -> np.ndarray:
    """The real (nx+1, nx+1) x operator of a row whose slopes are both 0.

    The row's line stays on its (y, t) node, so every two-point blend of
    _spectral_multipliers reads the node itself and each G_m is the one
    real number s_m e^{c d_m} for every mode: H and E are the same for
    all modes, and the row is one triangle over x (_x_triangle) acting on
    each (y, t) node alike, with no transform of the plane.
    """
    d, s, *_ = _line_shifts(grid, 0.0, 0.0, forward)
    return _x_triangle(*_pair_offsets(s * np.exp(c * d)), forward)


def _plane_dft(grid: Grid):
    """(F, weight): the real matrix of rfft2 over the (y, t) plane, and
    the weight of each mode in its inverse.

    A plane flattened to its N = ny nt nodes times F is its P = ny
    (nt // 2 + 1) modes, mode (ky, kt) at ky (nt // 2 + 1) + kt, as
    interleaved real and imaginary parts. Modes scaled by weight and
    multiplied by F's transpose give back the real plane as irfft2 does:
    the real part of the inverse sum, in which mode kt stands for kt and
    nt - kt (weight 2 / N) but for kt = 0 and, for an even nt, kt = nt / 2
    (weight 1 / N). Phases are reduced mod N in integers before the one
    table of N-th roots is read.
    """
    ny, nt = grid.ny, grid.nt
    n, modes = ny * nt, nt // 2 + 1
    iy, it = np.divmod(np.arange(n), nt)
    ky, kt = np.divmod(np.arange(ny * modes), modes)
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    e = roots[(np.outer(iy, ky) * nt + np.outer(it, kt) * ny) % n]
    F = np.empty((n, 2 * e.shape[1]))
    F[:, 0::2] = e.real
    F[:, 1::2] = -e.imag
    return F, np.where((kt == 0) | (2 * kt == nt), 1.0, 2.0) / n


def _x_triangle(H: np.ndarray, E: np.ndarray, forward: bool) -> np.ndarray:
    """The lower triangle on the x levels that the FFT route sums per mode:
    H_o at (ix, ix - o) for o < ix, E_ix at (ix, 0) and zero in row 0,
    over any trailing mode axes of H and E. A backward row's triangle is
    reversed along both x axes. The result is C-contiguous and owns its
    data."""
    nx = H.shape[0]
    L = np.zeros((nx + 1, nx + 1) + H.shape[1:], dtype=H.dtype)
    i, j = np.tril_indices(nx)
    L[i + 1, j + 1] = H[i - j]
    L[1:, 0] = E
    return L if forward else L[::-1, ::-1].copy()


def _x_operator(H: np.ndarray, E: np.ndarray, forward: bool,
                weight: np.ndarray) -> np.ndarray:
    """The (nx+1, nx+1, P) x operator L of the dense route for one row:
    per flattened (y, t) mode, the triangle of _x_triangle times the
    weight of the mode in F's inverse (_plane_dft)."""
    nx = H.shape[0]
    L = _x_triangle(H.reshape(nx, -1), E.reshape(nx, -1), forward)
    L *= weight
    return L


def _integrate_spectral_row(plan: TransportPlan, forward: bool, mult,
                            comp: np.ndarray, out: np.ndarray) -> None:
    """One row's line integrals: comp is the row's (B, nx+1, ny, nt)
    field and out receives w for it.

    With v the row's x levels in the frame where the inflow face is level
    0 (x reversed for backward rows), per (y, t) Fourier mode

        w[ix] = sum_{o < ix} H_o v[ix - o] + E_ix v[0].

    mult is the row's multipliers in plan.ops, in one of three forms.
    For a row whose slopes are both 0 it is the real (nx+1, nx+1) x
    operator of _zero_slope_operator, already in the grid's x order, and
    one matmul over the x axis of the (B, nx+1, ny nt) view applies it.
    Otherwise, on a plan with a dft (F, weight) it is the x operator L of
    _x_operator: the modes of the whole (B, nx+1) stack of planes are one
    matrix product with F, L acts on each mode by one einsum, and F's
    transpose brings the planes back. The matmul and the einsum each sum
    over x in the same order for every batch item, so each item is the
    same bit for bit whatever B is. Otherwise mult is (H, E): one rfft2
    of the row, a loop over the offsets o and one irfft2.
    """
    lead = comp.shape[:2] + (-1,)
    if isinstance(mult, np.ndarray) and mult.ndim == 2:
        out[...] = (mult @ comp.reshape(lead)).reshape(out.shape)
        return
    if plan.dft is not None:
        vhat = (comp.reshape(lead) @ plan.dft[0]).view(complex)
        acc = np.einsum("ijq,bjq->biq", mult, vhat)
        out[...] = (acc.view(float) @ plan.dft[0].T).reshape(out.shape)
        return
    H, E = mult
    nx, ny, nt = plan.grid.nx, plan.grid.ny, plan.grid.nt
    vhat = np.fft.rfft2(comp if forward else comp[:, ::-1], axes=(2, 3))
    acc = np.zeros_like(vhat)
    for o in range(nx):
        acc[:, o + 1:] += H[o] * vhat[:, 1:nx + 1 - o]
    acc[:, 1:] += E * vhat[:, :1]
    w = np.fft.irfft2(acc, s=(ny, nt), axes=(2, 3))
    out[...] = w if forward else w[:, ::-1]


def _row_integrals(plan: TransportPlan, stack: np.ndarray,
                   rows: slice = slice(None)) -> np.ndarray:
    """Each row's line integrals of its own component, before the blocks.

    stack holds the plan's rows `rows` (all of them by default), and so
    does the result. Row i of the result depends on row i of stack alone,
    and every row is integrated by _integrate_spectral_row, a row with a
    varying gamma between its factor e^Gamma and that factor's inverse.
    Every weight (Simpson weights, exp factors, integrating factors,
    two-point blends, the midpoint reads) is nonnegative but a backward
    row's Simpson weights, which are nonpositive, so for a nonnegative
    stack each row has the sign of its direction: >= 0 forward, <= 0
    backward.
    """
    w = np.zeros_like(stack)
    for i, (row, (mult, factor)) in enumerate(zip(plan.rows[rows],
                                                  plan.ops[rows])):
        comp = stack[:, i] if factor is None else stack[:, i] * factor
        _integrate_spectral_row(plan, row[0], mult, comp, w[:, i])
        if factor is not None:
            w[:, i] /= factor
    return w


def _apply_blocks(plan: TransportPlan, g: int, w: np.ndarray) -> np.ndarray:
    """u = A_g^{-1} w, then group g's inflow face zeroed; in place on the
    (B, |g|, nx+1, ny, nt) stack w of group g's rows, which is returned."""
    sl, inv = plan.blocks[g]
    w[...] = np.einsum("ij,bj...->bi...", inv, w)
    w[:, :, 0 if sl.start < plan.spec.k else plan.grid.nx] = 0.0
    return w


def solve_transport_group(plan: TransportPlan, g: int,
                          held: np.ndarray) -> np.ndarray:
    """The explicit inverse on row group g alone: the line integrals of
    its rows, its one block inverse and its one inflow face.

    held is the (B, |g|, nx+1, ny, nt) stack of group g's rows, and so is
    the result. The transport inverse keeps each group on itself, so this
    is the group-g part of solve_transport_stack bit for bit.
    """
    return _apply_blocks(plan, g, _row_integrals(plan, held, plan.blocks[g][0]))


def solve_transport_stack(plan: TransportPlan,
                          stack: np.ndarray) -> np.ndarray:
    """Batched explicit inverse on the plan's grid; stack is
    (B, n, nx+1, ny, nt). Every row is integrated, then each group's
    block step applied in place, as solve_transport_group does for one
    group.
    """
    w = _row_integrals(plan, stack)
    for g, (sl, _) in enumerate(plan.blocks):
        _apply_blocks(plan, g, w[:, sl])
    return w


def solve_transport(spec: SystemSpec, f: GridFunction,
                    plan: TransportPlan | None = None,
                    rhs_exprs=None) -> GridFunction:
    """Solve the uncoupled system row by row along characteristics.

    Returns u with (A u)_i the integrated right-hand side of row i and
    the inflow rows zeroed exactly on their faces. It builds its own
    plan unless given one, as apply_k gives it, which must be built for
    spec and f.grid (TransportPlan.resolve).

    With rhs_exprs given, closed forms of f's rows, u is read at the nodes
    by _transport_at_points instead, each row's integrand evaluated
    exactly at its Gauss panel nodes; f gives the grid alone then.
    """
    plan = TransportPlan.resolve(spec, f.grid, plan)
    grid = f.grid
    if rhs_exprs is None:
        out = solve_transport_stack(plan, f.values[None])
        return GridFunction(grid, out[0])
    X, Y, T = np.meshgrid(grid.xs(), grid.ys(), grid.ts(), indexing="ij")

    def read(X, Y, T, rows):
        return {i: evaluate_on(rhs_exprs[i], X, Y, T) for i in rows}

    u = _transport_at_points(plan, read, X, Y, T, range(spec.n))
    return GridFunction(grid, np.stack([u[i] for i in range(spec.n)]))


def _transport_at_points(plan: TransportPlan, inner, X, Y, T, rows):
    """Requested components of (C^{-1} h) at scattered points.

    The plan's blocks and rows are read, and none of its grid operators.
    inner(X, Y, T, rows) returns the needed components of h as a dict.
    The points are flattened and integrated in passes of at most
    FUSED_PASS_NODES line nodes, so a nested chain holds one pass of its
    innermost level at a time. Only the blocks
    with requested rows are integrated, row by row, then through the
    block inverse. A row's weights are formed before h is read; a
    variable gamma is read once per panel node and integrated through S
    (_gl_integration_matrix). The line rule is _fused_rule(). An integral
    above GAMMA_SPREAD_LIMIT raises ValueError naming the gamma.
    """
    shape = np.shape(X)
    X, Y, T = (np.reshape(a, -1) for a in (X, Y, T))
    wanted = set(rows)
    u = {i: np.empty(X.size) for i in wanted}
    step = max(1, FUSED_PASS_NODES // (FUSED_PANELS * FUSED_NODES))
    for start in range(0, X.size, step):
        part = slice(start, start + step)
        for i, v in _transport_pass(plan, inner, X[part], Y[part], T[part],
                                    wanted):
            u[i][part] = v
    return {i: v.reshape(shape) for i, v in u.items()}


def _transport_pass(plan: TransportPlan, inner, X, Y, T, wanted):
    """(i, values) of _transport_at_points for one pass of flat points."""
    tau, omega, glw, S = _fused_rule()
    for sl, inv in plan.blocks:
        block = range(sl.start, sl.stop)
        if not wanted.intersection(block):
            continue
        w = []
        for i in block:
            forward, beta, alpha, gam, c = plan.rows[i]
            x0 = 0.0 if forward else 1.0
            xi, ew = _gl_panels(x0, X, tau, omega)
            d = xi - X
            Yl = Y + beta * d
            Tl = T + alpha * d
            if c is None:
                G = _gamma_integrals(gam, x0, X, xi, Yl, Tl, glw, S)
                reach = float(G.max(initial=-np.inf))
                if reach > GAMMA_SPREAD_LIMIT:
                    raise ValueError(
                        f"gamma[{i + 1}]: its integral along the lines "
                        f"reaches {reach:.4g} at a panel node, more than the "
                        f"{GAMMA_SPREAD_LIMIT:.2f} within which e^Gamma "
                        f"stays finite")
                ew *= np.exp(G, out=G)
                del G
            elif c != 0.0:
                ew *= np.exp(c * d)
            del d
            w.append(np.einsum("q...,q...->...", ew,
                               inner(xi, Yl, Tl, (i,))[i]))
        ub = np.einsum("ij,j...->i...", inv, np.stack(w))
        for pos, i in enumerate(block):
            if i in wanted:
                yield i, ub[pos]


def apply_transport(spec: SystemSpec, u: GridFunction) -> GridFunction:
    """Forward operator: directional differences plus the gamma term.

    Central differences of step default_step along each row's line
    direction, one sided on the faces x = 0 and x = 1.
    """
    grid = u.grid
    s = default_step(spec, grid)
    nx = grid.nx
    X, Y, T = np.meshgrid(grid.xs(), grid.ys(), grid.ts(), indexing="ij")
    A = spec.full_matrix()
    Au = np.einsum("ij,j...->i...", A, u.values)
    out = np.empty_like(u.values)
    for i in range(spec.n):
        beta = float(spec.beta[i])
        alpha = float(spec.alpha[i])
        plus = interpolate_many(u, X[:nx] + s, Y[:nx] + beta * s,
                                T[:nx] + alpha * s)
        minus = interpolate_many(u, X[1:] - s, Y[1:] - beta * s,
                                 T[1:] - alpha * s)
        dd = np.empty_like(u.values)
        dd[:, 1:nx] = (plus[:, 1:] - minus[:, :nx - 1]) / (2 * s)
        dd[:, 0] = (plus[:, 0] - u.values[:, 0]) / s
        dd[:, nx] = (u.values[:, nx] - minus[:, nx - 1]) / s
        gam = spec.gamma[i]
        if is_literal_zero(gam):
            gterm = 0.0
        else:
            gterm = evaluate_on(gam, X, Y, T) * Au[i]
        out[i] = np.einsum("j,j...->...", A[i], dd) + gterm
    return GridFunction(grid, out)


def apply_coupling_stack(plan: TransportPlan, stack: np.ndarray) -> np.ndarray:
    out = np.zeros_like(stack)
    for i, j, vals in plan.coupling:
        out[:, i] += vals * stack[:, j]
    return out


def apply_coupling(spec: SystemSpec, u: GridFunction) -> GridFunction:
    """Multiply pointwise by the coupling matrix b, through a plan of its
    own."""
    plan = TransportPlan.build(spec, u.grid)
    out = apply_coupling_stack(plan, u.values[None])
    return GridFunction(u.grid, out[0])


def residual_sup(spec: SystemSpec, u: GridFunction, f: GridFunction) -> float:
    """sup norm of (transport + coupling) u - f on the nodes."""
    lhs = apply_transport(spec, u) + apply_coupling(spec, u)
    return sup_norm(lhs - f)
