"""The second-kind operator K (coupling of the transport solution).

Writing the coupled system as (C + D) u = f with C the transport part
and D the pointwise coupling, the substitution w = C u turns it into
(I + K) w = f with K = D C^{-1}. Both solvers work on w and map back
through one more transport solve. Powers of K smooth: the coupling
pattern cycles support through the three row groups, and after three
applications every term has crossed transversal characteristic pairs.

The Krylov solver is a restarted GMRES in numpy (_gmres). scipy serves
only the dense fallback and the kernel count of the dense section, and
is imported inside them: importing the package, or a discrete solve
whose kernel count the certificate decides, loads none of it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .characteristics import (TransportPlan, _apply_blocks, _row_integrals,
                              _transport_at_points, apply_coupling_stack,
                              solve_transport, solve_transport_group,
                              solve_transport_stack)
from .expressions import evaluate_on
from .gridfield import (Grid, GridDomainError, GridFunction, _require_finite,
                        interpolate_many, sup_norm, sum_sup_norm)
from .system import SystemSpec

DISCRETE_UNKNOWN_CAP = 20_000
KERNEL_SV_RTOL = 1e-8
# an update norm this many times the smallest one so far means divergence
DIVERGENCE_GROWTH = 1e6
# restarted GMRES on the one-group system I + S: relative residual target,
# Krylov vectors kept between restarts, and the iterations spent before it
# counts as stalled
GMRES_RTOL = 1e-13
GMRES_RESTART = 50
GMRES_MAX_ITER = 200
# impulse columns per transport call in assemble_dense
ASSEMBLY_BATCH = 256
# probes per block of the fused K^3 route, whose levels run in passes of
# at most FUSED_PASS_NODES line nodes (characteristics). The working set
# must stay under glibc's dynamic trim threshold, or the allocator hands
# it back to the OS after every block and faults it in again. A warmed
# 100-probe call on a 33-node grid (2-core Xeon, one BLAS thread, median
# of 9 calls, range over three fresh interpreters):
#   block  pass nodes  wall        minor faults  traced peak
#   2      8,192       129-134 ms  431           2.05 MiB
#   8      8,192       106-117 ms  463           2.11 MiB
#   16     4,096       115-123 ms  335           1.61 MiB
#   16     8,192       96-100 ms   480           2.18 MiB
#   16     16,384      108-115 ms  10.7k         3.31 MiB
#   32     8,192       94-98 ms    502           2.29 MiB
#   64     8,192       99-100 ms   1.2k          2.37 MiB
# Passes of 16,384 nodes cross the threshold; larger blocks gain nothing
FUSED_BLOCK = 16


class NonConvergence(RuntimeError):
    """An iteration failed to converge within its budget.

    last_diff is the update norm of the last Neumann sweep, or the full
    relative residual of a stalled discrete solve; measure names which,
    in the message. diverged is True when the Neumann iteration was stopped
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
    """One application: coupling of the transport solution of f.

    It builds its own plan unless given one, which must be built for
    spec and f.grid (TransportPlan.resolve): apply_k_power gives every
    power's apply_k its one plan, and apply_k hands it on to
    solve_transport."""
    plan = TransportPlan.resolve(spec, f.grid, plan)
    u = solve_transport(spec, f, plan)
    return GridFunction(f.grid, apply_coupling_stack(plan, u.values[None])[0])


def apply_k_power(spec: SystemSpec, f: GridFunction,
                  power: int) -> GridFunction:
    """K^power f: power applications of apply_k, node values to node
    values, all through the one TransportPlan this call builds."""
    if power < 1:
        raise ValueError("power must be a positive integer")
    plan = TransportPlan.build(spec, f.grid)
    out = f
    for _ in range(power):
        out = apply_k(spec, out, plan)
    return out


def _coupling_at_points(plan: TransportPlan, X, Y, T, values: dict, rows):
    out = {i: np.zeros(np.shape(X)) for i in rows}
    for i, j in plan.entries:
        if i in out:
            out[i] += evaluate_on(plan.spec.b[i][j], X, Y, T) * values[j]
    return out


def apply_k_cubed_fused(spec: SystemSpec, f: GridFunction,
                        probes) -> np.ndarray:
    """(K^3 f) at probe points by fully nested quadrature.

    No intermediate field is resampled on the grid: the three line
    integrals are nested Gauss-Legendre panels and only f itself is read
    through interpolation. probes is (p, 3) rows of (x, y, t); the result
    has shape (n, p).

    Each line integral has FUSED_PANELS Gauss panels of FUSED_NODES
    nodes, the one rule of _fused_rule scaled to each line by _gl_panels.
    A variable gamma is read only at those nodes and integrated through
    the matrix S (_gamma_integrals).

    The spec is read through a TransportPlan: its build makes every check
    of the spec, and the route reads the plan's blocks, entries and rows
    alone, so no grid operator is built. A gamma whose grid-wide factor
    the grid kernel refuses is read here as e^{int gamma} along lines of
    length at most 1; only an integral above GAMMA_SPREAD_LIMIT raises a
    ValueError naming it. Coefficients are evaluated only where the route
    reads.

    Each probe carries (FUSED_PANELS * FUSED_NODES)^3 innermost points.
    The probes run in ceil(p / FUSED_BLOCK) near-equal blocks, and each
    level in passes of at most FUSED_PASS_NODES line nodes
    (_transport_at_points), so peak memory does not grow with p and is
    reused without page faults. A probe with x outside [0, 1] or a
    non-finite y or t raises GridDomainError.
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
    plan = TransportPlan.build(spec, f.grid)

    # one single-component view per row, so a read interpolates only it
    parts = [GridFunction(f.grid, f.values[c:c + 1]) for c in range(f.m)]

    def read_f(X, Y, T, rows):
        return {c: interpolate_many(parts[c], X, Y, T)[0] for c in rows}

    def chain(inner):
        def level(X, Y, T, rows):
            needed = {j for i, j in plan.entries if i in rows}
            u = _transport_at_points(plan, inner, X, Y, T, needed)
            return _coupling_at_points(plan, X, Y, T, u, rows)
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
    # discrete only: the iterative-refinement steps applied to the
    # returned w, and the full relative residual at which the GMRES route
    # stalled, when a direct solve of the dense section (LU, or gelsy
    # without a count of 0) replaced its answer
    refinements: int = 0
    stalled_residual: float | None = None

    def to_json_dict(self):
        return {
            "method": self.method,
            "iterations": self.iterations,
            "residual_sup": self.residual_sup,
            "kernel_dimension_estimate": self.kernel_dimension_estimate,
            "refinements": self.refinements,
            "stalled_residual": self.stalled_residual,
            "solution_sup_norm": sup_norm(self.u),
            "solution_sum_sup_norm": sum_sup_norm(self.u),
        }


def _group_block(plan: TransportPlan, g: int, h: int,
                 held: np.ndarray) -> np.ndarray:
    """K_{g<-h}: the group-g rows of K applied to a field that row group
    h alone holds.

    held is the (B, |h|, nx+1, ny, nt) stack of group h's rows, and the
    result the (B, |g|, nx+1, ny, nt) stack of group g's. held is
    transported as it is (solve_transport_group: group h's row integrals,
    its block inverse and its inflow face), and only the plan.coupling entries
    into group g are multiplied. The plan refuses any entry outside the
    cyclic pattern, so each of them reads the one group h that g reads,
    and the result is apply_k's group-g rows bit for bit, at one group's
    transport and one group's coupling.
    """
    rows, cols = plan.blocks[g][0], plan.blocks[h][0]
    u = solve_transport_group(plan, h, held)
    out = np.zeros((held.shape[0], rows.stop - rows.start) + held.shape[2:])
    for i, j, vals in plan.coupling:
        if rows.start <= i < rows.stop:
            out[:, i - rows.start] += vals * u[:, j - cols.start]
    return out


def _sweep_order(spec: SystemSpec, pivot: int) -> tuple:
    """The row groups of a sweep that ends at pivot p, (reads[reads[p]],
    reads[p], p) with reads[g] the group g reads: each group reads the
    one before it, and the first reads p."""
    reads = dict(spec.coupling_pattern())
    return (reads[reads[pivot]], reads[pivot], pivot)


@dataclass(frozen=True)
class _Reduction:
    """(I + K) w = f eliminated onto one row group, the pivot p, by the
    block Gauss-Seidel sweep that both solvers run.

    K is block 3-cyclic. With order = (b, c, p) (_sweep_order), b reads p,
    c reads b and p reads c, and a sweep w_b <- f_b - K_bp w_p,
    w_c <- f_c - K_cb w_b, w_p <- f_p - K_pc w_c (sweep) leaves
    (I + S) w_p = r, where S = K_pc K_cb K_bp is the group-p block of K^3
    and r the group-p result of a sweep from w_p = 0. I + S is singular
    exactly when I + K is, with the same kernel dimension. Every product
    runs through the one-group block K_{g<-h}, and S costs about one
    apply_k. solve_neumann pivots on the feeding group, so its sweeps
    start at group 1; solve_discrete pivots on the smallest group
    (build).
    """

    plan: TransportPlan
    order: tuple  # (b, c, p)

    @classmethod
    def build(cls, plan: TransportPlan) -> "_Reduction":
        """Pivot on the smallest group, on a tie the lowest-numbered."""
        sizes = [sl.stop - sl.start for sl, _ in plan.blocks]
        return cls(plan, _sweep_order(plan.spec, sizes.index(min(sizes))))

    @property
    def rows(self) -> slice:
        return self.plan.blocks[self.order[2]][0]

    def sweep(self, w: np.ndarray, f, steps) -> None:
        """w_g <- f_g - K_{g<-h} w_h for g = order[k], k in steps in turn,
        and h = order[k - 1] the group g reads, in place on the
        (B, n, nx+1, ny, nt) stack w. f is a stack that broadcasts
        against w, or None for f = 0."""
        groups = [sl for sl, _ in self.plan.blocks]
        for k in steps:
            g, h = self.order[k], self.order[k - 1]
            kw = _group_block(self.plan, g, h, w[:, groups[h]])
            if f is None:
                np.negative(kw, out=w[:, groups[g]])
            else:
                np.subtract(f[:, groups[g]], kw, out=w[:, groups[g]])

    def _swept(self, v: np.ndarray, f, steps) -> np.ndarray:
        """The (B, n, nx+1, ny, nt) stack that holds the (B, size) flat
        group-p parts v in group p and zeros elsewhere, swept over steps."""
        g = self.plan.grid
        w = np.zeros((len(v), self.plan.spec.n, g.nx + 1, g.ny, g.nt))
        w[:, self.rows] = v.reshape(w[:, self.rows].shape)
        self.sweep(w, f, steps)
        return w

    def rhs(self, f: np.ndarray) -> np.ndarray:
        """r of (I + S) w_p = r, flat, for the (n, nx+1, ny, nt) array f;
        the sweep's first step reads w_p = 0 and gives w_b = f_b."""
        b = self.plan.blocks[self.order[0]][0]
        w = np.zeros((1,) + f.shape)
        w[0, b] = f[b]
        self.sweep(w, f[None], range(1, 3))
        return w[0, self.rows].reshape(-1)

    def expand(self, f: np.ndarray, w_p: np.ndarray) -> np.ndarray:
        """The whole w, (n, nx+1, ny, nt), from its flat group-p part."""
        return self._swept(w_p[None], f[None], range(2))[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """v + S v for each flat group-p row of the (B, size) array v; a
        sweep from w_p = v with f = 0 leaves -S v in group p."""
        w = self._swept(v, None, range(3))
        return v - w[:, self.rows].reshape(v.shape)

    def section(self, with_map: bool = False):
        """Dense I + S in the node basis of group p (N/3 rows with three
        equal groups), built ASSEMBLY_BATCH impulse columns at a time.

        with_map=True also returns the other groups' rows of E, the map
        from w_p to the w it back-substitutes to, which the kernel count
        needs; they come from the same sweeps, whose other rows are the
        back-substituted groups, and hold twice as many rows as I + S
        with three equal groups.
        """
        rows, n, nodes = self.rows, self.plan.spec.n, self.plan.grid.node_count
        size = (rows.stop - rows.start) * nodes
        mat = np.empty((size, size))
        if with_map:
            others = np.empty((n * nodes - size, size))
            keep = np.ones(n, dtype=bool)
            keep[rows] = False
        for cols, impulses in _impulse_batches(size):
            w = self._swept(impulses, None, range(3))
            mat[:, cols] = (impulses - w[:, rows].reshape(impulses.shape)).T
            if with_map:
                others[:, cols] = w[:, keep].reshape(len(impulses), -1).T
        return (mat, others) if with_map else mat


def solve_neumann(spec: SystemSpec, f: GridFunction, tol: float = 1e-10,
                  max_iter: int = 100) -> SolveOutcome:
    """Block Gauss-Seidel sweeps over the row groups, then one transport
    solve.

    K is block 3-cyclic: each row group reads one other group. The
    sweeps are those of the _Reduction pivoted on the feeding group p,
    the group that group 1 reads. Starting from w = f, a sweep updates
    group 1, then the group that reads group 1, then p (1, 2, 3 forward,
    1, 3, 2 mirrored), each by w_g <- f_g - (K w_h)_g, h the group g
    reads: the one-group block K_{g<-h} (_group_block), one group's
    transport. The first two updates follow exactly from the last w_p,
    so a sweep is one Neumann step w_p <- r - S w_p on the reduced system
    (I + S) w_p = r, S the group-p block of K^3. The updates shrink at
    rho(K)^3 per sweep (Varga, Matrix Iterative Analysis, 1962, ch. 4);
    iterations counts sweeps.

    A sweep's update is the largest sup norm of its three group updates.
    Stops when it drops to tol * sup_norm(f); raises NonConvergence when
    max_iter sweeps run out, an iterate overflows or a sweep's update
    grows past DIVERGENCE_GROWTH times the smallest one seen.
    """
    plan = TransportPlan.build(spec, f.grid)
    target = tol * sup_norm(f)
    red = _Reduction(plan, _sweep_order(spec, spec.feeding_group()))
    w = f.values[None].copy()
    iterations = 0
    smallest = float("inf")
    while True:
        iterations += 1
        before = w.copy()
        # an overflow surfaces as a non-finite update, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            red.sweep(w, f.values[None], range(3))
            diff = float(np.max(np.abs(w - before)))
        if not math.isfinite(diff):
            raise NonConvergence(iterations, float("inf"), diverged=True)
        if diff <= target:
            break
        smallest = min(smallest, diff)
        if diff > DIVERGENCE_GROWTH * smallest:
            raise NonConvergence(iterations, diff, diverged=True)
        if iterations >= max_iter:
            raise NonConvergence(iterations, diff)
    return _outcome("neumann", f, w[0], plan, iterations)


def _outcome(method: str, f: GridFunction, w: np.ndarray,
             plan: TransportPlan, iterations: int, kdim: int | None = None,
             u: np.ndarray | None = None, refinements: int = 0,
             stalled: float | None = None) -> SolveOutcome:
    """The shared tail of both solvers: u = C^{-1} w, unless the caller
    already has it, and the residual of (I + K) w = f, with K w = D u
    taken from that one transport solve, both on the solve's plan."""
    w = GridFunction(f.grid, w)
    u = GridFunction(f.grid, solve_transport_stack(plan, w.values[None])[0]
                     if u is None else u)
    du = GridFunction(f.grid, apply_coupling_stack(plan, u.values[None])[0])
    return SolveOutcome(method, iterations, sup_norm(w + du - f), kdim, u, w,
                        refinements, stalled)


def _impulse_batches(size: int):
    """(columns, impulses) for the columns of the size-square identity,
    ASSEMBLY_BATCH at a time: columns a slice, impulses the (batch, size)
    array whose rows are those unit columns."""
    for start in range(0, size, ASSEMBLY_BATCH):
        stop = min(start + ASSEMBLY_BATCH, size)
        impulses = np.zeros((stop - start, size))
        impulses[np.arange(stop - start), np.arange(start, stop)] = 1.0
        yield slice(start, stop), impulses


def assemble_dense(spec: SystemSpec, grid: Grid) -> np.ndarray:
    """Dense matrix of I + K in the node basis, through a plan of its own.

    Columns are impulse responses at grid nodes, ordered like the
    flattened (component, ix, iy, it) value array. An impulse in row
    group h stays in h under the transport inverse, and the coupling
    moves it into the one group g that reads h. So group h's columns are
    built through the one-group block K_{g<-h} (_group_block),
    ASSEMBLY_BATCH at a time, and are zero outside group g's rows.
    """
    plan = TransportPlan.build(spec, grid)
    nodes = grid.node_count
    size = spec.n * nodes
    mat = np.zeros((size, size))
    groups = [sl for sl, _ in plan.blocks]
    for g, h in spec.coupling_pattern():
        rows = slice(groups[g].start * nodes, groups[g].stop * nodes)
        count = groups[h].stop - groups[h].start
        first = groups[h].start * nodes
        for cols, impulses in _impulse_batches(count * nodes):
            held = impulses.reshape(-1, count, grid.nx + 1, grid.ny, grid.nt)
            # one statement, so no batch's temporaries outlive it
            mat[rows, first + cols.start:first + cols.stop] = _group_block(
                plan, g, h, held).reshape(len(impulses), -1).T
    mat[np.diag_indices(size)] += 1.0
    return mat


def _reduced_kernel_dimension(mat: np.ndarray, others: np.ndarray) -> int:
    """The kernel count of I + K from the section of I + S.

    A kernel vector w of I + K is E w_p, E the map from w_p to the w it
    back-substitutes to (the identity on group p, others elsewhere), and
    (I + K) E is I + S over zero rows. So with E = Q R, Q orthonormal,
    (I + K) Q has the singular values of (I + S) R^{-1}, and those are
    counted. The singular values of I + S itself sit much further apart:
    on the x1e3 coupling at 4 nodes the smallest is 6.7e-9 of the
    largest, a kernel by KERNEL_SV_RTOL, against 2.0e-6 here and 1.4e-6
    for I + K. R is the Cholesky factor of E^T E = I + others^T others,
    nonsingular because of the identity, so it moves no singular value
    to or from zero.
    """
    import scipy.linalg

    gram = others.T @ others
    gram[np.diag_indices_from(gram)] += 1.0
    # symmetric, so its Fortran-ordered transpose is factored in place
    r = scipy.linalg.cholesky(gram.T, lower=False, overwrite_a=True)
    # R^{-T} (I + S)^T, the transpose of (I + S) R^{-1}, is a fresh
    # Fortran-ordered array: the SVD consumes it
    x = scipy.linalg.solve_triangular(r, mat.T, trans="T")
    del gram, r
    return _count_kernel(scipy.linalg.svd(x, compute_uv=False,
                                          overwrite_a=True,
                                          check_finite=False))


def _section_power_norms(plan: TransportPlan):
    """a_p = max(|K|^p 1) for p = 1, 2, ..., one transport per power.

    K = M R: R holds each row's line integrals of its own component
    (_row_integrals) and M(node) = B P A^{-1} is pointwise, so the entry
    of K in row (i, node) and column (j, node') is the one product
    M_ij(node) R_j(node, node'). Each row of R has one sign, so for
    v >= 0, |R_j| v_j = |R_j v_j| and
    (|K| v)_i = sum_j |M_ij| |R_j v_j|. The columns of M are each group's
    block and face zeroing applied to the unit fields, then the coupling;
    |M| is built once. a_1 is ||K||_inf exactly, and
    a_p >= ||K^p||_inf. The generator stops after the first NaN or
    infinite a_p.
    """
    n, grid = plan.spec.n, plan.grid
    shape = (n, grid.nx + 1, grid.ny, grid.nt)
    unit = np.zeros((n,) + shape)
    unit[np.arange(n), np.arange(n)] = 1.0
    for g, (sl, _) in enumerate(plan.blocks):
        _apply_blocks(plan, g, unit[:, sl])
    m = np.abs(apply_coupling_stack(plan, unit))
    v = np.ones((1,) + shape)
    a = 0.0
    while math.isfinite(a):
        # an overflow shows as an infinite a_p
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.abs(_row_integrals(plan, v)[0])
            v[0] = np.einsum("ji...,j...->i...", m, r)
        a = float(v.max())
        yield a


@dataclass(frozen=True)
class _Krylov:
    """Unpacks as (x, iterations, converged); estimates holds each
    iteration's Givens residual estimate relative to |rhs|."""

    x: np.ndarray
    converged: bool
    estimates: list

    def __iter__(self):
        return iter((self.x, len(self.estimates), self.converged))


def _gmres(matvec, rhs: np.ndarray, rtol: float = GMRES_RTOL) -> _Krylov:
    """Restarted GMRES (Saad & Schultz 1986) on x -> matvec(x[None])[0]
    for one flat right-hand side, from x = 0.

    Each cycle orthogonalises at most GMRES_RESTART Arnoldi vectors by
    modified Gram-Schmidt, and Givens rotations give each iterate's
    residual norm without forming it. The call converges when that drops
    to rtol * |rhs|, unchecked: the caller's full residual decides
    (_refine). Only a restart forms the true residual, and
    GMRES_MAX_ITER iterations end the call unconverged.
    """
    norm = float(np.linalg.norm(rhs))
    target = rtol * norm
    x, estimates = np.zeros_like(rhs), []
    r, beta = rhs, norm
    while beta > target and len(estimates) < GMRES_MAX_ITER:
        m = min(GMRES_RESTART, GMRES_MAX_ITER - len(estimates))
        v = np.empty((m + 1, rhs.size))
        h = np.zeros((m, m))  # R of the Hessenberg matrix's QR
        cs, sn, g = np.zeros(m), np.zeros(m), np.zeros(m + 1)
        v[0], g[0] = r / beta, beta
        for j in range(m):
            w = matvec(v[j][None])[0]
            for i in range(j + 1):
                h[i, j] = v[i] @ w
                w -= h[i, j] * v[i]
            below = float(np.linalg.norm(w))
            for i in range(j):
                h[i, j], h[i + 1, j] = (cs[i] * h[i, j] + sn[i] * h[i + 1, j],
                                        cs[i] * h[i + 1, j] - sn[i] * h[i, j])
            rho = math.hypot(h[j, j], below)
            cs[j], sn[j], h[j, j] = h[j, j] / rho, below / rho, rho
            g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
            estimates.append(float(abs(g[j + 1])) / norm)
            if abs(g[j + 1]) <= target:
                break
            v[j + 1] = w / below
        k = j + 1
        x = x + np.linalg.solve(h[:k, :k], g[:k]) @ v[:k]
        beta = float(abs(g[k]))
        if beta > target and len(estimates) < GMRES_MAX_ITER:
            r = rhs - matvec(x[None])[0]
            beta = float(np.linalg.norm(r))
    return _Krylov(x, beta <= target, estimates)


def _refine(red: _Reduction, f: np.ndarray, solve):
    """w with (I + K) w = f from reduced solves, refined while the full
    relative residual is above GMRES_RTOL and falling.

    solve(r, rtol) returns x with (I + S) x = r to a relative residual of
    about rtol, its iteration count and whether it converged. Each step
    solves for the reduced correction of the full residual r_k, from
    w = 0 (relative residual 1) on, and back-substitutes it. A correction
    needs only the accuracy that the first solve reached on r_0 = f, so it
    asks for max(GMRES_RTOL, min(1e-2, GMRES_RTOL |r_0| / |r_k|)) (Carson
    & Higham, SISC 2017). A step that does not lower the residual is
    dropped, and none follows a solve that did not converge. Returns w,
    u = C^{-1} w (None for w = 0), the relative residual of w, the
    iterations and the refinements: the steps kept after the first.
    """
    norm = float(np.linalg.norm(f))
    w, u, res = np.zeros_like(f), None, f
    gap, iterations, steps = 1.0, 0, 0
    converged = True
    while gap > GMRES_RTOL and converged:
        rtol = max(GMRES_RTOL, min(1e-2, GMRES_RTOL / gap))
        x, its, converged = solve(red.rhs(res), rtol)
        iterations += its
        trial = w + red.expand(res, x)
        with np.errstate(over="ignore", invalid="ignore"):
            ut = solve_transport_stack(red.plan, trial[None])
            rt = f - (trial + apply_coupling_stack(red.plan, ut)[0])
            trial_gap = float(np.linalg.norm(rt)) / norm
        # written so that NaN fails it too
        if not trial_gap < gap:
            break
        w, u, res, gap, steps = trial, ut[0], rt, trial_gap, steps + 1
    return w, u, gap, iterations, max(steps - 1, 0)


def solve_discrete(spec: SystemSpec, f: GridFunction,
                   kernel_estimate: bool = True) -> SolveOutcome:
    """Finite-section solve of (I + K) w = f, matrix-free by GMRES on the
    one-group system I + S.

    K is block 3-cyclic, so eliminating two row groups is exact:
    (I + S) w_p = r on the smallest group p (on a tie, the
    lowest-numbered), S the group-p block of K^3, and the other two
    groups follow by back-substitution (_Reduction). Restarted GMRES
    (_gmres) solves the reduced system; S smooths like K^3, and GMRES
    converges fast on the identity plus a compact operator (Campbell,
    Ipsen, Kelley & Meyer, BIT 1996). An answer is accepted on the
    relative residual of the full system, at most GMRES_RTOL. While it
    is above that and still falling, a refinement step solves, to a
    looser tolerance, for the reduced correction of the full residual
    and back-substitutes it (_refine). A zero f gives w = 0.

    The kernel dimension estimate (kernel_estimate=True) counts singular
    values at or below KERNEL_SV_RTOL of the largest. A structural
    certificate that the count is 0, on I + K, is tried before any SVD.

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
    three decline, the dense section of I + S (N/3 rows with three equal
    groups) is assembled through the one-group block and its values-only
    SVD gives the count; pass kernel_estimate=False to skip the estimate.

    The certificate runs at any size. The O(N^2) steps (the dense
    section of I + S, its SVD and its direct solve) run only up to
    DISCRETE_UNKNOWN_CAP unknowns of the full system. Above it, an
    estimate the certificate declines is None, and a stalled solve is a
    NonConvergence. Below it, the dense section is assembled only when
    it is needed:
    - for the SVD count, when the certificate declines;
    - for a direct solve, then back-substitution and refinement, when
      that count finds a kernel, or when the GMRES route stalls: its
      full relative residual stays above GMRES_RTOL and stops falling,
      or a GMRES solve ends unconverged (its GMRES_MAX_ITER iterations,
      in restart cycles of at most GMRES_RESTART, run out).
      stalled_residual is then that residual. The full section of I + K
      is never assembled.

    The direct solve follows the count. I + S is singular exactly when
    I + K is, so a count of 0 makes it invertible: one LU factorisation
    serves every refinement step. A counted kernel, or no count
    (kernel_estimate=False), gets a rank-revealing least-squares solve,
    one LAPACK gelsy call per step. With a kernel, the answer is not the
    minimum-norm least-squares w of I + K: it is gelsy's minimum-norm
    least-squares w_p of I + S, back-substituted and refined. The two
    differ by a kernel vector of I + K, and only where gelsy truncates
    the rank of I + S (a singular value within about eps of the
    largest); where it does not, both are the one solution of the
    full-rank section, to rounding.
    """
    grid = f.grid
    size = spec.n * grid.node_count
    dense_ok = size <= DISCRETE_UNKNOWN_CAP
    plan = TransportPlan.build(spec, grid)
    red = _Reduction.build(plan)
    mat = kdim = stalled = None
    iterations = 0
    if kernel_estimate:
        root = math.sqrt(size)
        norms = _section_power_norms(plan)
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
                mat, others = red.section(with_map=True)
                kdim = _reduced_kernel_dimension(mat, others)
                del others
    if not f.values.any():
        return _outcome("discrete", f, np.zeros_like(f.values), plan, 0,
                        kdim)
    if not kdim:
        w, u, gap, iterations, refinements = _refine(
            red, f.values, lambda r, rtol: _gmres(red.apply, r, rtol))
        if gap > GMRES_RTOL:
            if not dense_ok:
                raise NonConvergence(iterations, gap,
                                     measure="relative residual")
            stalled = gap
            if mat is None:
                mat = red.section()
    if kdim or stalled is not None:
        # a kernel leaves GMRES no unique solution to converge to, and a
        # stall no answer to accept
        import scipy.linalg

        if kdim == 0:
            # no kernel: I + S is invertible, factored once for every step
            # factored as its Fortran-ordered transpose, in place
            lu = scipy.linalg.lu_factor(mat.T, overwrite_a=True)

            def solve(r, _):
                return scipy.linalg.lu_solve(lu, r, trans=1), 0, True
        else:
            def solve(r, _):
                x = scipy.linalg.lstsq(mat, r, lapack_driver="gelsy")[0]
                return x, 0, True
        w, u, _, _, refinements = _refine(red, f.values, solve)
    return _outcome("discrete", f, w, plan, iterations, kdim, u,
                    refinements, stalled)


def _count_kernel(s: np.ndarray) -> int:
    """How many singular values s, largest first, are at most
    KERNEL_SV_RTOL of the largest."""
    return int(np.sum(s <= KERNEL_SV_RTOL * s[0])) if s.size else 0


def kernel_dimension(mat: np.ndarray) -> int:
    return _count_kernel(np.linalg.svd(np.asarray(mat, dtype=float),
                                       compute_uv=False))


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
