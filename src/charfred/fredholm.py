"""The second-kind operator K (coupling of the transport solution).

Writing the coupled system as (C + D) u = f with C the transport part
and D the pointwise coupling, the substitution w = C u turns it into
(I + K) w = f with K = D C^{-1}. Both solvers work on w and map back
through one more transport solve. Powers of K smooth: the coupling
pattern cycles support through the three row groups, and after three
applications every term has crossed transversal characteristic pairs.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .characteristics import (BlockAdjugates, apply_coupling,
                              apply_coupling_stack, sample_coupling,
                              solve_transport, solve_transport_stack)
from .expressions import evaluate_on, is_literal_zero
from .gridfield import (Grid, GridFunction, NonFiniteError, interpolate_many,
                        sup_norm, sum_sup_norm)
from .system import SystemSpec

DISCRETE_UNKNOWN_CAP = 20_000
KERNEL_SV_RTOL = 1e-8
# an update norm this many times the smallest one so far means divergence
DIVERGENCE_GROWTH = 1e6


class NonConvergence(RuntimeError):
    """Neumann iteration failed to contract within the iteration budget.

    diverged is True when the iteration was stopped for growing (or
    overflowing) rather than for running out of iterations.
    """

    def __init__(self, iterations: int, last_diff: float,
                 diverged: bool = False):
        self.iterations = iterations
        self.last_diff = last_diff
        self.diverged = diverged
        super().__init__(f"no convergence after {iterations} iterations "
                         f"(last update {last_diff:.3e})")


def apply_k(spec: SystemSpec, f: GridFunction,
            cache: BlockAdjugates | None = None,
            coupling: dict | None = None) -> GridFunction:
    """One application: coupling of the transport solution of f."""
    return apply_coupling(spec, solve_transport(spec, f, cache), coupling)


def apply_k_power(spec: SystemSpec, f: GridFunction, power: int,
                  cache: BlockAdjugates | None = None,
                  coupling: dict | None = None) -> GridFunction:
    """K^power f with node resampling between applications."""
    if power < 1:
        raise ValueError("power must be a positive integer")
    cache = cache or BlockAdjugates.from_spec(spec)
    if coupling is None:
        coupling = sample_coupling(spec, f.grid)
    out = f
    for _ in range(power):
        out = apply_k(spec, out, cache, coupling)
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


def _transport_at_points(spec, cache, inner, X, Y, T, glx, glw, panels, rows):
    """Requested components of (C^{-1} h) at scattered points.

    inner(X, Y, T, rows) returns the needed components of h as a dict.
    Only the blocks containing requested rows are integrated, which keeps
    the nested chain linear in the coupling width.
    """
    from .characteristics import _const_value

    wanted = set(rows)
    w = {}
    for sl, _, _ in cache.block_items(spec):
        block = range(sl.start, sl.stop)
        if not wanted.intersection(block):
            continue
        for i in block:
            x0 = 0.0 if i < spec.k else 1.0
            beta = float(spec.beta[i])
            alpha = float(spec.alpha[i])
            xi, wts = _gl_panels(x0, X, glx, glw, panels)
            d = xi - X[None]
            Yl = Y[None] + beta * d
            Tl = T[None] + alpha * d
            hv = inner(xi, Yl, Tl, (i,))[i]
            gam = spec.gamma[i]
            if is_literal_zero(gam):
                ew = wts
            else:
                c = _const_value(gam)
                if c is not None:
                    ew = wts * np.exp(c * d)
                else:
                    # int_X^xi gamma along the line, Gauss per segment
                    half = d / 2.0
                    mid = X[None] + half
                    s = mid[None] + half[None] * glx.reshape(
                        (glx.size,) + (1,) * d.ndim)
                    ds = s - X[None, None]
                    gv = evaluate_on(gam, s, Y[None, None] + beta * ds,
                                     T[None, None] + alpha * ds)
                    G = half * np.einsum("q,q...->...", glw, gv)
                    ew = wts * np.exp(G)
            w[i] = np.einsum("q...,q...->...", ew, hv)
    u = {}
    for sl, adj, det in cache.block_items(spec):
        block = range(sl.start, sl.stop)
        if not wanted.intersection(block):
            continue
        wb = np.stack([w[i] for i in block])
        ub = np.einsum("ij,j...->i...", adj, wb) / det
        for pos, i in enumerate(block):
            if i in wanted:
                u[i] = ub[pos]
    return u


def _coupling_rows(spec, i):
    return tuple(j for j in range(spec.n) if not is_literal_zero(spec.b[i][j]))


def _coupling_at_points(spec, X, Y, T, values: dict, rows):
    out = {}
    for i in rows:
        acc = np.zeros(np.shape(X))
        for j in _coupling_rows(spec, i):
            acc = acc + evaluate_on(spec.b[i][j], X, Y, T) * values[j]
        out[i] = acc
    return out


def apply_k_cubed_fused(spec: SystemSpec, f: GridFunction, probes,
                        cache: BlockAdjugates | None = None,
                        panels: int = 2, nodes: int = 8) -> np.ndarray:
    """(K^3 f) at probe points by fully nested quadrature.

    No intermediate field is resampled on the grid: the three line
    integrals are nested Gauss-Legendre panels and only f itself is read
    through interpolation. probes is (p, 3) rows of (x, y, t); the result
    has shape (n, p).
    """
    cache = cache or BlockAdjugates.from_spec(spec)
    glx, glw = np.polynomial.legendre.leggauss(nodes)
    pts = np.asarray(probes, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("probes must be an array of (x, y, t) rows")
    if np.any(pts[:, 0] < 0.0) or np.any(pts[:, 0] > 1.0):
        raise ValueError("probe x coordinates must lie in [0, 1]")

    # one single-component view per row, so a read interpolates only it
    parts = [GridFunction(f.grid, f.values[c:c + 1]) for c in range(f.m)]

    def read_f(X, Y, T, rows):
        return {c: interpolate_many(parts[c], X, Y, T)[0] for c in rows}

    def chain(inner):
        def level(X, Y, T, rows):
            needed = set()
            for i in rows:
                needed.update(_coupling_rows(spec, i))
            u = _transport_at_points(spec, cache, inner, X, Y, T,
                                     glx, glw, panels, needed)
            return _coupling_at_points(spec, X, Y, T, u, rows)
        return level

    k3 = chain(chain(chain(read_f)))
    top = k3(pts[:, 0], pts[:, 1], pts[:, 2], tuple(range(spec.n)))
    return np.stack([top[i] for i in range(spec.n)])


@dataclass(frozen=True)
class SolveOutcome:
    method: str
    iterations: int
    residual_sup: float
    kernel_dimension_estimate: int | None
    u: GridFunction
    w: GridFunction
    timing_seconds: float

    def to_json_dict(self):
        # timing stays out: reports must be byte-identical across reruns
        return {
            "method": self.method,
            "iterations": self.iterations,
            "residual_sup": self.residual_sup,
            "kernel_dimension_estimate": self.kernel_dimension_estimate,
            "solution_sup_norm": sup_norm(self.u),
            "solution_sum_sup_norm": sum_sup_norm(self.u),
        }


def solve_neumann(spec: SystemSpec, f: GridFunction, tol: float = 1e-10,
                  max_iter: int = 100,
                  cache: BlockAdjugates | None = None) -> SolveOutcome:
    """Fixed-point iteration w <- f - K w, then one transport solve.

    Stops when the sup norm of the update drops to tol * sup_norm(f);
    raises NonConvergence when the budget runs out, an iterate overflows
    or an update norm grows past DIVERGENCE_GROWTH times the smallest
    one seen.
    """
    start = time.perf_counter()
    cache = cache or BlockAdjugates.from_spec(spec)
    coupling = sample_coupling(spec, f.grid)
    target = tol * sup_norm(f)
    w = f
    iterations = 0
    smallest = float("inf")
    while True:
        iterations += 1
        try:
            # an overflow surfaces as NonFiniteError, not as a warning
            with np.errstate(over="ignore", invalid="ignore"):
                post = f - apply_k(spec, w, cache, coupling)
                diff = sup_norm(post - w)
        except NonFiniteError:
            raise NonConvergence(iterations, float("inf"),
                                 diverged=True) from None
        w = post
        if diff <= target:
            break
        smallest = min(smallest, diff)
        if diff > DIVERGENCE_GROWTH * smallest:
            raise NonConvergence(iterations, diff, diverged=True)
        if iterations >= max_iter:
            raise NonConvergence(iterations, diff)
    residual = sup_norm(w + apply_k(spec, w, cache, coupling) - f)
    u = solve_transport(spec, w, cache)
    return SolveOutcome("neumann", iterations, residual, None, u, w,
                        time.perf_counter() - start)


def assemble_dense(spec: SystemSpec, grid: Grid,
                   cache: BlockAdjugates | None = None,
                   coupling: dict | None = None, threads: int = 1,
                   batch: int = 512) -> np.ndarray:
    """Dense matrix of I + K in the node basis.

    Columns are impulse responses at grid nodes, ordered like the
    flattened (component, ix, iy, it) value array.
    """
    cache = cache or BlockAdjugates.from_spec(spec)
    if coupling is None:
        coupling = sample_coupling(spec, grid)
    n = spec.n
    size = n * (grid.nx + 1) * grid.ny * grid.nt
    mat = np.empty((size, size))

    def fill(start: int, stop: int):
        stack = np.zeros((stop - start, n, grid.nx + 1, grid.ny, grid.nt))
        flat = stack.reshape(stop - start, size)
        flat[np.arange(stop - start), np.arange(start, stop)] = 1.0
        ku = solve_transport_stack(spec, grid, stack, cache)
        ke = apply_coupling_stack(spec, grid, ku, coupling)
        mat[:, start:stop] = ke.reshape(stop - start, size).T

    ranges = [(s, min(s + batch, size)) for s in range(0, size, batch)]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda r: fill(*r), ranges))
    else:
        for r in ranges:
            fill(*r)
    mat[np.diag_indices(size)] += 1.0
    return mat


def solve_discrete(spec: SystemSpec, f: GridFunction,
                   cache: BlockAdjugates | None = None,
                   threads: int = 1,
                   kernel_estimate: bool = True) -> SolveOutcome:
    """Dense finite-section solve of (I + K) w = f by least squares.

    The kernel dimension estimate counts singular values of the section
    at or below 1e-8 of the largest; pass kernel_estimate=False to skip
    that extra SVD, which costs more than the solve itself.
    """
    start = time.perf_counter()
    grid = f.grid
    size = spec.n * (grid.nx + 1) * grid.ny * grid.nt
    if size > DISCRETE_UNKNOWN_CAP:
        raise ValueError(f"{size} unknowns exceed the dense-solve cap "
                         f"({DISCRETE_UNKNOWN_CAP})")
    cache = cache or BlockAdjugates.from_spec(spec)
    coupling = sample_coupling(spec, grid)
    mat = assemble_dense(spec, grid, cache, coupling, threads=threads)
    sol, _, _, _ = scipy.linalg.lstsq(mat, f.values.reshape(size),
                                      lapack_driver="gelsy")
    kdim = None
    if kernel_estimate:
        svals = np.linalg.svd(mat, compute_uv=False)
        kdim = int(np.sum(svals <= KERNEL_SV_RTOL * svals[0]))
    w = GridFunction(grid, sol.reshape(f.values.shape))
    residual = sup_norm(w + apply_k(spec, w, cache, coupling) - f)
    u = solve_transport(spec, w, cache)
    return SolveOutcome("discrete", 0, residual, kdim, u, w,
                        time.perf_counter() - start)


def kernel_dimension(mat: np.ndarray, rtol: float = KERNEL_SV_RTOL) -> int:
    s = np.linalg.svd(np.asarray(mat, dtype=float), compute_uv=False)
    if s.size == 0:
        return 0
    return int(np.sum(s <= rtol * s[0]))


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
