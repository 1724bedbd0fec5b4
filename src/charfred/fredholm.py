"""The second-kind operator K (coupling of the transport solution).

Writing the coupled system as (C + D) u = f with C the transport part
and D the pointwise coupling, the substitution w = C u turns it into
(I + K) w = f with K = D C^{-1}. Both solvers work on w and map back
through one more transport solve. Powers of K smooth: the coupling
pattern cycles support through the three row groups, and after three
applications every term has crossed transversal characteristic pairs.

scipy is imported inside the functions that use it, so importing the
package loads none of it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .characteristics import (TransportPlan, _apply_blocks, _row_integrals,
                              apply_coupling, apply_coupling_stack,
                              solve_transport, solve_transport_stack)
from .expressions import evaluate_on
from .gridfield import (Grid, GridDomainError, GridFunction, NonFiniteError,
                        _require_finite, interpolate_many, sup_norm,
                        sum_sup_norm)
from .system import SystemSpec

DISCRETE_UNKNOWN_CAP = 20_000
KERNEL_SV_RTOL = 1e-8
# an update norm this many times the smallest one so far means divergence
DIVERGENCE_GROWTH = 1e6
# restarted GMRES on I + K: relative residual target, Krylov vectors kept
# between restarts, and the iterations spent before it counts as stalled
GMRES_RTOL = 1e-13
GMRES_RESTART = 50
GMRES_MAX_ITER = 200
# impulse columns per transport call in assemble_dense
ASSEMBLY_BATCH = 256
# Gauss-Legendre panels per line integral, and nodes per panel, of the
# fused K^3 route
FUSED_PANELS = 2
FUSED_NODES = 8
# probes per block of the fused K^3 route. The largest temporaries are
# the innermost level's arrays of (FUSED_PANELS * FUSED_NODES)^3 points
# per probe, 256 KiB each at 8 probes; tracemalloc puts a block's peak at
# 7.0 MiB on a 33-node grid. In a sweep on a 2-core Xeon, 100 probes took
# about as long in blocks of 4 or 8 and 1.5 times as long in blocks of
# 16 or 32. At 8 every block of a longer call holds 4 probes or more,
# and such blocks give results bit-identical to one unblocked call
FUSED_BLOCK = 8


class NonConvergence(RuntimeError):
    """An iteration failed to converge within its budget.

    last_diff is the update norm of the last Neumann sweep, or the
    relative residual of a stalled GMRES solve; measure names which, in
    the message. diverged is True when the Neumann iteration was stopped
    for growing (or overflowing) rather than for running out of
    iterations.
    """

    def __init__(self, iterations: int, last_diff: float,
                 diverged: bool = False, measure: str = "last update"):
        self.iterations = iterations
        self.last_diff = last_diff
        self.diverged = diverged
        super().__init__(f"no convergence after {iterations} iterations "
                         f"({measure} {last_diff:.3e})")


def apply_k(spec: SystemSpec, f: GridFunction,
            plan: TransportPlan | None = None) -> GridFunction:
    """One application: coupling of the transport solution of f."""
    if plan is None:
        plan = TransportPlan.build(spec, f.grid)
    return apply_coupling(spec, solve_transport(spec, f, plan), plan)


def apply_k_power(spec: SystemSpec, f: GridFunction,
                  power: int) -> GridFunction:
    """K^power f with node resampling between applications."""
    if power < 1:
        raise ValueError("power must be a positive integer")
    plan = TransportPlan.build(spec, f.grid)
    out = f
    for _ in range(power):
        out = apply_k(spec, out, plan)
    return out


def _gl_panels(x0, X, glx, glw, panels):
    """Gauss nodes and signed weights for int from x0 to X, per point."""
    length = X - x0
    q = glx.size
    shape = (panels * q,) + X.shape
    xi = np.empty(shape)
    wts = np.empty(shape)
    for p in range(panels):
        a = x0 + (p / panels) * length
        half = length / (2 * panels)
        mid = a + half
        sl = slice(p * q, (p + 1) * q)
        xi[sl] = mid[None] + half[None] * glx.reshape((q,) + (1,) * X.ndim)
        wts[sl] = half[None] * glw.reshape((q,) + (1,) * X.ndim)
    return xi, wts


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


def _transport_at_points(plan, inner, X, Y, T, glx, glw, S, rows):
    """Requested components of (C^{-1} h) at scattered points.

    inner(X, Y, T, rows) returns the needed components of h as a dict.
    Only the blocks containing requested rows are integrated, which keeps
    the nested chain linear in the coupling width. A variable gamma is
    read once per panel node, where h is read, and its line integral
    from X to each node comes from those samples through the
    integration matrix S (_gl_integration_matrix).
    """
    wanted = set(rows)
    w = {}
    for sl, _, _ in plan.blocks:
        block = range(sl.start, sl.stop)
        if not wanted.intersection(block):
            continue
        for i in block:
            forward, beta, alpha, gam, c, _ = plan.rows[i]
            x0 = 0.0 if forward else 1.0
            xi, wts = _gl_panels(x0, X, glx, glw, FUSED_PANELS)
            d = xi - X[None]
            Yl = Y[None] + beta * d
            Tl = T[None] + alpha * d
            hv = inner(xi, Yl, Tl, (i,))[i]
            if c == 0.0:
                ew = wts
            elif c is not None:
                ew = wts * np.exp(c * d)
            else:
                ew = wts * np.exp(_gamma_integrals(gam, x0, X, xi, Yl, Tl,
                                                   glw, S))
            w[i] = np.einsum("q...,q...->...", ew, hv)
    u = {}
    for sl, adj, det in plan.blocks:
        block = range(sl.start, sl.stop)
        if not wanted.intersection(block):
            continue
        wb = np.stack([w[i] for i in block])
        ub = np.einsum("ij,j...->i...", adj, wb) / det
        for pos, i in enumerate(block):
            if i in wanted:
                u[i] = ub[pos]
    return u


def _coupling_at_points(spec, plan, X, Y, T, values: dict, rows):
    out = {i: np.zeros(np.shape(X)) for i in rows}
    for i, j, _ in plan.coupling:
        if i in out:
            out[i] = out[i] + evaluate_on(spec.b[i][j], X, Y, T) * values[j]
    return out


def apply_k_cubed_fused(spec: SystemSpec, f: GridFunction,
                        probes) -> np.ndarray:
    """(K^3 f) at probe points by fully nested quadrature.

    No intermediate field is resampled on the grid: the three line
    integrals are nested Gauss-Legendre panels and only f itself is read
    through interpolation. probes is (p, 3) rows of (x, y, t); the result
    has shape (n, p).

    Each line integral has FUSED_PANELS Gauss panels of FUSED_NODES
    nodes, and a variable gamma is read only at those nodes: its
    integral along the line comes from the integration matrix S built
    here beside the Gauss rule (_gamma_integrals).

    Each probe carries (FUSED_PANELS * FUSED_NODES)^3 innermost points,
    so the probes are evaluated in ceil(p / FUSED_BLOCK) near-equal
    blocks and peak memory is set by the block, not by p. A probe with x
    outside [0, 1] or a non-finite y or t raises GridDomainError.
    """
    pts = np.asarray(probes, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("probes must be an array of (x, y, t) rows")
    # written so that NaN fails it too
    inside = (0.0 <= pts[:, 0]) & (pts[:, 0] <= 1.0)
    if not inside.all():
        bad = float(pts[~inside, 0][0])
        raise GridDomainError(f"probe x = {bad!r} outside [0, 1]")
    _require_finite("probe y", pts[:, 1])
    _require_finite("probe t", pts[:, 2])
    glx, glw = np.polynomial.legendre.leggauss(FUSED_NODES)
    S = _gl_integration_matrix(glx, glw)
    plan = TransportPlan.build(spec, f.grid)

    # one single-component view per row, so a read interpolates only it
    parts = [GridFunction(f.grid, f.values[c:c + 1]) for c in range(f.m)]

    def read_f(X, Y, T, rows):
        return {c: interpolate_many(parts[c], X, Y, T)[0] for c in rows}

    def chain(inner):
        def level(X, Y, T, rows):
            needed = {j for i, j, _ in plan.coupling if i in rows}
            u = _transport_at_points(plan, inner, X, Y, T, glx, glw, S,
                                     needed)
            return _coupling_at_points(spec, plan, X, Y, T, u, rows)
        return level

    k3 = chain(chain(chain(read_f)))
    rows = tuple(range(spec.n))
    blocks = np.array_split(pts, max(1, -(-len(pts) // FUSED_BLOCK)))
    out = []
    for block in blocks:
        top = k3(block[:, 0], block[:, 1], block[:, 2], rows)
        out.append(np.stack([top[i] for i in rows]))
    return np.concatenate(out, axis=1)


@dataclass(frozen=True)
class SolveOutcome:
    method: str
    iterations: int
    residual_sup: float
    kernel_dimension_estimate: int | None
    u: GridFunction
    w: GridFunction
    # discrete only: the relative residual at which GMRES stalled, when a
    # dense least-squares solve replaced its answer
    stalled_residual: float | None = None

    def to_json_dict(self):
        return {
            "method": self.method,
            "iterations": self.iterations,
            "residual_sup": self.residual_sup,
            "kernel_dimension_estimate": self.kernel_dimension_estimate,
            "solution_sup_norm": sup_norm(self.u),
            "solution_sum_sup_norm": sum_sup_norm(self.u),
        }


def solve_neumann(spec: SystemSpec, f: GridFunction, tol: float = 1e-10,
                  max_iter: int = 100) -> SolveOutcome:
    """Block Gauss-Seidel sweeps over the row groups, then one transport
    solve.

    K is block 3-cyclic: each row group reads one other group. Starting
    from w = f, a sweep updates group 1, then the group that reads group
    1, then the last one (1, 2, 3 forward, 1, 3, 2 mirrored), each by
    w_g <- f_g - (K w_h)_g, h the group g reads: one apply_k of the field
    that group h alone holds. The last two updates solve their groups
    exactly from the new group 1, so a sweep is one Neumann step on the
    group-1 system (I + S) w_1 = f_1 - K_13 f_3 + K_13 K_32 f_2 (forward
    numbering) that eliminating them gives, S = K_13 K_32 K_21 the
    group-1 block of K^3. The updates shrink at rho(K)^3 per sweep
    (Varga, Matrix Iterative Analysis, 1962, ch. 4); iterations counts
    sweeps.

    A sweep's update is the largest sup norm of its three group updates.
    Stops when it drops to tol * sup_norm(f); raises NonConvergence when
    max_iter sweeps run out, an iterate overflows or a sweep's update
    grows past DIVERGENCE_GROWTH times the smallest one seen.
    """
    plan = TransportPlan.build(spec, f.grid)
    target = tol * sup_norm(f)
    groups = [sl for sl, _ in spec.blocks()]
    reads = dict(spec.coupling_pattern())  # row group -> the group it reads
    reader = {h: g for g, h in reads.items()}
    order = [0, reader[0], reader[reader[0]]]
    w = f.values.copy()
    iterations = 0
    smallest = float("inf")
    while True:
        iterations += 1
        diff = 0.0
        try:
            # an overflow surfaces as NonFiniteError, not as a warning
            with np.errstate(over="ignore", invalid="ignore"):
                for g in order:
                    rows, source = groups[g], groups[reads[g]]
                    held = np.zeros_like(w)
                    held[source] = w[source]
                    kw = apply_k(spec, GridFunction(f.grid, held), plan)
                    post = f.values[rows] - kw.values[rows]
                    step = float(np.max(np.abs(post - w[rows])))
                    if not math.isfinite(step):
                        raise NonFiniteError
                    diff = max(diff, step)
                    w[rows] = post
        except NonFiniteError:
            raise NonConvergence(iterations, float("inf"),
                                 diverged=True) from None
        if diff <= target:
            break
        smallest = min(smallest, diff)
        if diff > DIVERGENCE_GROWTH * smallest:
            raise NonConvergence(iterations, diff, diverged=True)
        if iterations >= max_iter:
            raise NonConvergence(iterations, diff)
    return _outcome("neumann", spec, f, GridFunction(f.grid, w), plan,
                    iterations)


def _outcome(method: str, spec: SystemSpec, f: GridFunction,
             w: GridFunction, plan: TransportPlan, iterations: int,
             kdim: int | None = None,
             stalled: float | None = None) -> SolveOutcome:
    """The shared tail of both solvers: u = C^{-1} w and the residual of
    (I + K) w = f, with K w = D u taken from that one transport solve."""
    u = solve_transport(spec, w, plan)
    residual = sup_norm(w + apply_coupling(spec, u, plan) - f)
    return SolveOutcome(method, iterations, residual, kdim, u, w, stalled)


def _impulse_images(spec, grid, plan, start, stop):
    # one batch's temporaries die with this call
    size = spec.n * grid.node_count
    stack = np.zeros((stop - start, spec.n, grid.nx + 1, grid.ny, grid.nt))
    flat = stack.reshape(stop - start, size)
    flat[np.arange(stop - start), np.arange(start, stop)] = 1.0
    ku = solve_transport_stack(spec, grid, stack, plan)
    ke = apply_coupling_stack(spec, grid, ku, plan)
    return ke.reshape(stop - start, size)


def assemble_dense(spec: SystemSpec, grid: Grid,
                   plan: TransportPlan | None = None) -> np.ndarray:
    """Dense matrix of I + K in the node basis.

    Columns are impulse responses at grid nodes, ordered like the
    flattened (component, ix, iy, it) value array, computed
    ASSEMBLY_BATCH at a time.
    """
    if plan is None:
        plan = TransportPlan.build(spec, grid)
    size = spec.n * grid.node_count
    mat = np.empty((size, size))
    for start in range(0, size, ASSEMBLY_BATCH):
        stop = min(start + ASSEMBLY_BATCH, size)
        mat[:, start:stop] = _impulse_images(spec, grid, plan, start, stop).T
    mat[np.diag_indices(size)] += 1.0
    return mat


def _section_power_norms(spec: SystemSpec, grid: Grid, plan: TransportPlan):
    """a_p = max(|K|^p 1) for p = 1, 2, ..., one transport per power.

    K = M R: R holds each row's line integrals of its own component
    (_row_integrals) and M(node) = B P A^{-1} is pointwise, so the entry
    of K in row (i, node) and column (j, node') is the one product
    M_ij(node) R_j(node, node'). Each row of R has one sign, so for
    v >= 0, |R_j| v_j = |R_j v_j| and
    (|K| v)_i = sum_j |M_ij| |R_j v_j|. The columns of M are the blocks
    and face zeroing applied to the unit fields, then the coupling; |M|
    is built once. a_1 is ||K||_inf exactly, and a_p >= ||K^p||_inf. The
    generator stops after the first NaN or infinite a_p.
    """
    shape = (spec.n, grid.nx + 1, grid.ny, grid.nt)
    unit = np.zeros((spec.n,) + shape)
    unit[np.arange(spec.n), np.arange(spec.n)] = 1.0
    m = apply_coupling_stack(spec, grid, _apply_blocks(spec, grid, unit, plan),
                             plan)
    np.abs(m, out=m)
    v = np.ones((1,) + shape)
    a = 0.0
    while math.isfinite(a):
        # an overflow shows as an infinite a_p
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.abs(_row_integrals(grid, v, plan)[0])
            v[0] = np.einsum("ji...,j...->i...", m, r)
        a = float(v.max())
        yield a


def _gmres(spec: SystemSpec, grid: Grid, rhs: np.ndarray,
           plan: TransportPlan):
    """Restarted GMRES on v -> v + K v, K applied by apply_k.

    Returns the solution, the iteration count and, when the budget ran
    out first, the relative residual reached (else None).
    """
    import scipy.sparse.linalg

    shape = (spec.n, grid.nx + 1, grid.ny, grid.nt)

    def matvec(v):
        kv = apply_k(spec, GridFunction(grid, v.reshape(shape)), plan)
        return v + kv.values.reshape(v.shape)

    op = scipy.sparse.linalg.LinearOperator((rhs.size, rhs.size),
                                            matvec=matvec, dtype=float)
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    sol, info = scipy.sparse.linalg.gmres(
        op, rhs, rtol=GMRES_RTOL, restart=GMRES_RESTART,
        maxiter=GMRES_MAX_ITER // GMRES_RESTART, callback=count,
        callback_type="pr_norm")
    if info == 0:
        return sol, iterations, None
    gap = np.linalg.norm(rhs - op.matvec(sol)) / np.linalg.norm(rhs)
    return sol, iterations, float(gap)


def _least_squares(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Rank-revealing least-squares solve (LAPACK gelsy)."""
    import scipy.linalg

    sol, _, _, _ = scipy.linalg.lstsq(mat, rhs, lapack_driver="gelsy")
    return sol


def solve_discrete(spec: SystemSpec, f: GridFunction,
                   kernel_estimate: bool = True) -> SolveOutcome:
    """Finite-section solve of (I + K) w = f, matrix-free by GMRES.

    The kernel dimension estimate (kernel_estimate=True) counts singular
    values of the section I + K at or below KERNEL_SV_RTOL of the largest.
    A structural certificate that the count is 0 is tried before any SVD.

    K = M R, where R holds each row's line integrals of its own component
    and M(node) = B P A^{-1} (coupling, face zeroing, inverse blocks) is
    pointwise. Every row of R has one sign, so |K| v for v >= 0 costs
    one transport, and a_p = max(|K|^p 1) bounds ||K^p||_inf
    (_section_power_norms); a_1 = ||K||_inf exactly. From
    (I + K) sum_{k<p} (-K)^k = I - (-K)^p, when a_p < 1,
    ||(I + K)^{-1}||_inf <= B_p = (1 + a_1 + ... + a_{p-1}) / (1 - a_p).
    With n unknowns and ||X||_2 <= sqrt(n) ||X||_inf, every singular
    value of I + K lies in [1 / (sqrt(n) B_p), 1 + sqrt(n) a_1]. When
    1 / (sqrt(n) B_p) > 2 KERNEL_SV_RTOL (1 + sqrt(n) a_1), the smallest
    exceeds the threshold with a factor 2 to spare for rounding in the
    sums and the SVD's backward error, and the count is 0. Powers
    p = 1, 2, 3 are tried in turn, three being the number of row groups
    the coupling cycles through; a NaN or infinite a_p declines. When all
    three decline, the section is assembled and its values-only SVD gives
    the count; pass kernel_estimate=False to skip the estimate.

    The certificate runs at any size. The O(n^2) steps (the dense
    section and its SVD or least-squares solve) run only up to
    DISCRETE_UNKNOWN_CAP unknowns. Above it, an estimate the certificate
    declines is None, and a stalled GMRES is a NonConvergence. Below it,
    the dense section is assembled only when it is needed:
    - for the SVD count, when the certificate declines;
    - for a rank-revealing least-squares solve when that count finds a
      kernel, or when GMRES stalls after GMRES_MAX_ITER iterations.
    """
    grid = f.grid
    size = spec.n * grid.node_count
    dense_ok = size <= DISCRETE_UNKNOWN_CAP
    plan = TransportPlan.build(spec, grid)
    rhs = f.values.reshape(size)
    mat = kdim = stalled = None
    iterations = 0
    if kernel_estimate:
        root = math.sqrt(size)
        norms = _section_power_norms(spec, grid, plan)
        a_1 = next(norms)
        floor = 2.0 * KERNEL_SV_RTOL * (1.0 + root * a_1)
        head = 1.0  # 1 + a_1 + ... + a_{p-1}
        for a_p in itertools.chain([a_1], itertools.islice(norms, 2)):
            # 1 / (sqrt(n) B_p) > floor, which is False for NaN or inf
            if (1.0 - a_p) / (root * head) > floor:
                kdim = 0
                break
            head += a_p
        else:
            if dense_ok:
                mat = assemble_dense(spec, grid, plan)
                kdim = kernel_dimension(mat)
    if kdim:
        # no unique solution for GMRES to converge to
        sol = _least_squares(mat, rhs)
    else:
        sol, iterations, stalled = _gmres(spec, grid, rhs, plan)
        if stalled is not None:
            if not dense_ok:
                raise NonConvergence(iterations, stalled,
                                     measure="relative residual")
            if mat is None:
                mat = assemble_dense(spec, grid, plan)
            sol = _least_squares(mat, rhs)
    w = GridFunction(grid, sol.reshape(f.values.shape))
    return _outcome("discrete", spec, f, w, plan, iterations, kdim, stalled)


def kernel_dimension(mat: np.ndarray) -> int:
    s = np.linalg.svd(np.asarray(mat, dtype=float), compute_uv=False)
    if s.size == 0:
        return 0
    return int(np.sum(s <= KERNEL_SV_RTOL * s[0]))


def finite_section_kernel_check(mat: np.ndarray, power: int) -> tuple[int, int]:
    """Kernel dimensions of (I - mat) and (I - mat^power).

    The identity I - M^p = (I + M + ... + M^(p-1))(I - M) makes the first
    a lower bound for the second; both are measured by singular-value
    thresholding at 1e-8 of the largest.
    """
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if power < 2:
        raise ValueError("power must be at least 2")
    eye = np.eye(m.shape[0])
    d1 = kernel_dimension(eye - m)
    dp = kernel_dimension(eye - np.linalg.matrix_power(m, power))
    return d1, dp
