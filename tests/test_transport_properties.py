"""Property tests of the transport inverse.

Random small grids, slopes that include zero, and zero, constant and
variable gamma. The reference integrates each characteristic line on
its own: interpolate_many reads the field at the half-cell points of
the line (or the closed-form right-hand side is evaluated there), scipy's
cumulative trapezoid gives the inner gamma integral and its composite
Simpson rule the outer one. Rows whose gamma reads none of x, y, t match
it to rounding; a row with a varying gamma, which the grid kernel
integrates between the factors e^Gamma and e^-Gamma, matches it to
second order in the grid spacing. On these small grids the dense DFT is
also checked against the FFT route of larger grids, and a row whose
slopes are both zero, which takes one real x operator on any grid,
against the (y, t) transform of the other rows. Closed-form
right-hand sides are checked against the same Gauss panel rule written
node by node. Every row is integrated, whether it holds data or not,
and each row group is transported on its own rows alone.
"""
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_trapezoid, simpson

import charfred as cf
from charfred import characteristics
from charfred.characteristics import (FUSED_NODES, FUSED_PANELS,
                                      TransportPlan, _row_integrals,
                                      solve_transport_stack)
from charfred.expressions import Num, constant_value
from conftest import zero_b
from test_fredholm import oracle_gl_panels

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)

SLOPES = st.one_of(st.just(0.0), st.sampled_from((0.5, -1.0, 1.0, 2.0)),
                   st.floats(-2.0, 2.0).map(lambda v: round(v, 3)))
GAMMAS = st.sampled_from(("0", "0.3", "-0.2", "0.1*cos(2*pi*y)",
                          "0.2*x - 0.1*sin(2*pi*(y + t))"))
CONSTANT_GAMMAS = st.sampled_from(("0", "0.3", "-0.2", "1.5", "pi", "-pi"))
FOLDED_GAMMAS = st.sampled_from(("1/2", "pi/4", "2*0.15", "-(1 - 0.8)",
                                 "cos(pi)/5", "exp(0) - 1"))
BLOCKS = st.sampled_from((1.0, 2.0, -0.5))
CLOSED_FORMS = st.sampled_from(("x^3 - 2*x^2 + x - 1/4",
                                "sin(2*pi*(y - t)) + cos(2*pi*y)",
                                "exp(x)", "x*cos(2*pi*t) - 1/2"))


@st.composite
def problems(draw, gammas=GAMMAS):
    """A three-row spec, its grid and a seeded random generator."""
    grid = cf.Grid(nx=draw(st.integers(4, 8)), ny=draw(st.integers(4, 9)),
                   nt=draw(st.integers(4, 9)))
    spec = cf.SystemSpec(
        n=3, k=2, l=1, a1=[[draw(BLOCKS)]], a2=[[draw(BLOCKS)]],
        a3=[[draw(BLOCKS)]],
        alpha=tuple(draw(SLOPES) for _ in range(3)),
        beta=tuple(draw(SLOPES) for _ in range(3)),
        gamma=tuple(cf.parse(draw(gammas)) for _ in range(3)), b=zero_b())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return spec, grid, rng


PERIODS = st.sampled_from((0.5, 2.0, 3.7))


@st.composite
def small_planes(draw):
    """problems(CONSTANT_GAMMAS) on a (y, t) plane with ny != nt, nt odd
    or even, and both periods other than 1; the grid is small, so every
    row takes the dense DFT."""
    spec, grid, rng = draw(problems(CONSTANT_GAMMAS))
    ny = draw(st.integers(4, 9).filter(lambda v: v != grid.nt))
    period_y, period_t = draw(PERIODS), draw(PERIODS)
    return (replace(spec, period_y=period_y, period_t=period_t),
            replace(grid, ny=ny, period_y=period_y, period_t=period_t), rng)


def random_stack(grid, rng, batch):
    return rng.standard_normal((batch, 3, grid.nx + 1, grid.ny, grid.nt))


def reference_transport(spec, f, rhs_exprs=None):
    nx = f.grid.nx
    h2 = 1.0 / (2 * nx)
    xi = np.arange(2 * nx + 1) * h2
    ys = f.grid.ys()[None, :, None]
    ts = f.grid.ts()[None, None, :]
    u = np.zeros_like(f.values)
    diag = np.diag(spec.full_matrix())
    for i in range(spec.n):
        forward = i < spec.k
        for ix in range(1, nx + 1) if forward else range(nx):
            line = (xi[:2 * ix + 1] if forward else xi[2 * ix:])[:, None, None]
            d = line - ix / nx
            Y = ys + spec.beta[i] * d
            T = ts + spec.alpha[i] * d
            if rhs_exprs is None:
                vals = cf.interpolate_many(f, line, Y, T)[i]
            else:
                vals = cf.evaluate_on(rhs_exprs[i], line, Y, T)
            gam = cf.evaluate_on(spec.gamma[i], line, Y, T)
            if forward:
                # int from xi up to the target, accumulated from the target
                inner = cumulative_trapezoid(gam[::-1], dx=h2, axis=0,
                                             initial=0)[::-1]
                u[i, ix] = simpson(np.exp(-inner) * vals, dx=h2, axis=0)
            else:
                inner = cumulative_trapezoid(gam, dx=h2, axis=0, initial=0)
                u[i, ix] = -simpson(np.exp(inner) * vals, dx=h2, axis=0)
        u[i] /= diag[i]
    return u


def panel_transport(spec, grid, exprs):
    """C^{-1} of closed forms at the nodes, for one-row blocks: the
    per-panel Gauss loop of oracle_gl_panels along each node's line, with
    the gamma integral from X to each panel node by _gamma_integrals
    (checked on its own against a fresh Gauss rule per node in
    test_fredholm)."""
    tau, omega, glw, S = characteristics._fused_rule()
    glx, _ = np.polynomial.legendre.leggauss(FUSED_NODES)
    X, Y, T = np.meshgrid(grid.xs(), grid.ys(), grid.ts(), indexing="ij")
    diag = np.diag(spec.full_matrix())
    u = np.empty((spec.n,) + X.shape)
    for i in range(spec.n):
        x0 = 0.0 if i < spec.k else 1.0
        xi, wts = oracle_gl_panels(x0, X, glx, glw, FUSED_PANELS)
        d = xi - X[None]
        Yl, Tl = Y[None] + spec.beta[i] * d, T[None] + spec.alpha[i] * d
        G = characteristics._gamma_integrals(spec.gamma[i], x0, X, xi, Yl,
                                             Tl, glw, S)
        h = cf.evaluate_on(exprs[i], xi, Yl, Tl)
        u[i] = np.sum(wts * np.exp(G) * h, axis=0) / diag[i]
    return u


@PROPERTY
@given(problems(), st.tuples(CLOSED_FORMS, CLOSED_FORMS, CLOSED_FORMS))
def test_grid_transport_matches_pointwise_reference(problem, rhs):
    # constant-gamma rows to rounding on a random field; varying-gamma
    # rows within h^2 of sup |reference| on a smooth one, h the coarsest
    # grid spacing (at most 0.39 h^2 over 261 random draws)
    spec, grid, rng = problem
    f = cf.GridFunction(grid, random_stack(grid, rng, 1)[0])
    varying = [i for i, g in enumerate(spec.gamma)
               if constant_value(g) is None]
    fixed = [i for i in range(3) if i not in varying]
    expect = reference_transport(spec, f)[fixed]
    got = cf.solve_transport(spec, f).values[fixed]
    np.testing.assert_allclose(got, expect, rtol=0,
                               atol=1e-13 * np.abs(expect).max(initial=0.0))
    f = cf.sample(tuple(cf.parse(r) for r in rhs), grid)
    expect = reference_transport(spec, f)[varying]
    got = cf.solve_transport(spec, f).values[varying]
    h = max(1.0 / grid.nx, grid.period_y / grid.ny, grid.period_t / grid.nt)
    np.testing.assert_allclose(got, expect, rtol=0,
                               atol=h * h * np.abs(expect).max(initial=0.0))


@PROPERTY
@given(problems(), st.tuples(CLOSED_FORMS, CLOSED_FORMS, CLOSED_FORMS))
def test_closed_form_transport_matches_pointwise_reference(problem, rhs):
    spec, grid, _ = problem
    exprs = tuple(cf.parse(r) for r in rhs)
    expect = panel_transport(spec, grid, exprs)
    got = cf.solve_transport(spec, cf.sample(exprs, grid),
                             rhs_exprs=exprs).values
    np.testing.assert_allclose(got, expect, rtol=0,
                               atol=1e-13 * np.abs(expect).max())


@PROPERTY
@given(problems(), st.integers(2, 4))
def test_stacked_solve_equals_single_solves(problem, batch):
    # bit for bit, on the dense DFT of these small grids as on the walk
    spec, grid, rng = problem
    stack = random_stack(grid, rng, batch)
    plan = TransportPlan.build(spec, grid)
    batched = solve_transport_stack(plan, stack)
    for col in range(stack.shape[0]):
        single = solve_transport_stack(plan, stack[col:col + 1])
        np.testing.assert_array_equal(batched[col], single[0])


@PROPERTY
@given(small_planes(), st.integers(1, 4))
def test_dense_dft_matches_the_fft_route(problem, batch):
    # forward rows 1 and 2 and backward row 3 of each spec
    spec, grid, rng = problem
    stack = random_stack(grid, rng, batch)
    plan = TransportPlan.build(spec, grid)
    got = _row_integrals(plan, stack)
    assert plan.dft is not None
    with mock.patch.object(characteristics, "DENSE_DFT_NODES", 0):
        # the grid operators are built at their first use
        fft = TransportPlan.build(spec, grid)
        assert fft.dft is None
        expect = _row_integrals(fft, stack)
    np.testing.assert_allclose(got, expect, rtol=0,
                               atol=1e-13 * np.abs(expect).max())


@PROPERTY
@given(small_planes(), st.integers(1, 4), st.booleans())
def test_backward_rows_mirror_forward_rows(problem, batch, dense):
    # row 3 runs backward from x = 1; row 1 runs forward with row 3's
    # slopes and gamma negated. On the x-mirrored field it integrates the
    # same line, so its integral is row 3's mirrored and negated
    spec, grid, rng = problem
    c = constant_value(spec.gamma[2])
    spec = replace(spec, beta=(-spec.beta[2],) + tuple(spec.beta[1:]),
                   alpha=(-spec.alpha[2],) + tuple(spec.alpha[1:]),
                   gamma=(Num(-c),) + tuple(spec.gamma[1:]))
    stack = random_stack(grid, rng, batch)
    stack[:, 0] = stack[:, 2, ::-1]
    with mock.patch.object(characteristics, "DENSE_DFT_NODES",
                           characteristics.DENSE_DFT_NODES if dense else 0):
        plan = TransportPlan.build(spec, grid)
        assert (plan.dft is not None) == dense
        w = _row_integrals(plan, stack)
    np.testing.assert_allclose(w[:, 0, ::-1], -w[:, 2], rtol=0,
                               atol=1e-14 * np.abs(w[:, 2]).max())


@PROPERTY
@given(small_planes(), st.integers(0, 3))
def test_dense_x_operators_are_owned_triangles(problem, flat):
    # each small-grid row holds one owned x operator: H_o on the o-th
    # subdiagonal, E in the inflow column and zeros elsewhere, in the
    # frame where the inflow face is level 0. A row whose slopes are both
    # 0 (row `flat`, and any the draw left flat) holds one real
    # (nx+1, nx+1) triangle, its pair being the same real number at every
    # mode; any other row one complex triangle per (y, t) mode, times the
    # mode's weight in F's inverse
    spec, grid, _ = problem
    if flat < 3:
        spec = replace(spec, beta=tuple(0.0 if i == flat else b
                                        for i, b in enumerate(spec.beta)),
                       alpha=tuple(0.0 if i == flat else a
                                   for i, a in enumerate(spec.alpha)))
    plan = TransportPlan.build(spec, grid)
    _, weight = characteristics._plane_dft(grid)
    nx = grid.nx
    for i, ((forward, beta, alpha, _, c), (op, _)) in enumerate(
            zip(plan.rows, plan.ops)):
        assert op.flags.c_contiguous and op.flags.owndata
        H, E = characteristics._spectral_multipliers(grid, forward, beta,
                                                     alpha, c)
        H, E = H.reshape(nx, -1), E.reshape(nx, -1)
        if beta == alpha == 0.0:
            assert op.shape == (nx + 1, nx + 1) and op.dtype == np.float64
            assert not H.imag.any() and not E.imag.any()
            assert (H == H[:, :1]).all() and (E == E[:, :1]).all()
            H, E = H[:, 0].real, E[:, 0].real
        else:
            assert i != flat
            assert op.shape == (nx + 1, nx + 1, weight.size)
            H, E = H * weight, E * weight
        layout = op if forward else op[::-1, ::-1]
        assert not layout[0].any()
        assert not layout[np.triu_indices(nx + 1, 1)].any()
        np.testing.assert_array_equal(layout[1:, 0], E)
        for o, h in enumerate(H):
            ix = np.arange(o + 1, nx + 1)
            np.testing.assert_array_equal(
                layout[ix, ix - o], np.broadcast_to(h, (ix.size,) + h.shape))


def oracle_spectral_row(grid, forward, c, comp):
    """A zero-slope row's line integrals of the (B, nx+1, ny, nt) comp by
    the (y, t) transform that every other row takes: the multipliers of
    _spectral_multipliers, applied per mode by rfft2, the loop over the
    x offsets and irfft2, or on a grid of at most DENSE_DFT_NODES nodes
    per component by the dense DFT and the x operator L of _x_operator."""
    H, E = characteristics._spectral_multipliers(grid, forward, 0.0, 0.0, c)
    if grid.node_count <= characteristics.DENSE_DFT_NODES:
        F, weight = characteristics._plane_dft(grid)
        L = characteristics._x_operator(H, E, forward, weight)
        vhat = (comp.reshape(comp.shape[:2] + (-1,)) @ F).view(complex)
        acc = np.einsum("ijq,bjq->biq", L, vhat)
        return (acc.view(float) @ F.T).reshape(comp.shape)
    nx = grid.nx
    vhat = np.fft.rfft2(comp if forward else comp[:, ::-1], axes=(2, 3))
    acc = np.zeros_like(vhat)
    for o in range(nx):
        acc[:, o + 1:] += H[o] * vhat[:, 1:nx + 1 - o]
    acc[:, 1:] += E * vhat[:, :1]
    w = np.fft.irfft2(acc, s=(grid.ny, grid.nt), axes=(2, 3))
    return w if forward else w[:, ::-1]


ZERO_SLOPE_GAMMAS = {
    "zero": st.just("0"),
    "constant": st.floats(-3.0, 3.0).filter(lambda v: v != 0.0).map(str),
    "varying": st.sampled_from(("0.1*cos(2*pi*y)", "0.5*x - 0.2",
                                "0.2*x - 0.1*sin(2*pi*(y + t))")),
}


@pytest.mark.parametrize("kind", sorted(ZERO_SLOPE_GAMMAS))
@pytest.mark.parametrize("nodes", (7, 17))
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_zero_slope_rows_match_the_spectral_row(nodes, kind, data):
    # rows 1 (forward) and 3 (backward) have both slopes 0; at 7 nodes
    # the other rows take the dense DFT, at 17 the FFT route
    gam = cf.parse(data.draw(ZERO_SLOPE_GAMMAS[kind]))
    grid = cf.Grid(nx=nodes - 1, ny=nodes, nt=nodes)
    assert (grid.node_count <= characteristics.DENSE_DFT_NODES) == (nodes == 7)
    spec = cf.SystemSpec(n=3, k=2, l=1, a1=[[1.0]], a2=[[1.0]], a3=[[1.0]],
                         alpha=(0.0, 1.0, 0.0), beta=(0.0, -1.0, 0.0),
                         gamma=(gam, gam, gam), b=zero_b())
    plan = TransportPlan.build(spec, grid)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    stack = random_stack(grid, rng, 3)
    w = _row_integrals(plan, stack)
    for col in range(3):
        single = _row_integrals(plan, stack[col:col + 1])
        np.testing.assert_array_equal(w[col], single[0])
    for i in (0, 2):
        forward = plan.rows[i][0]
        op, factor = plan.ops[i]
        assert forward == (i == 0)
        # the sign structure behind _section_power_norms' |R|
        assert (op >= 0.0).all() if forward else (op <= 0.0).all()
        if factor is None:
            c, factor = constant_value(gam), 1.0
        else:
            c, factor = characteristics._integrating_factor(
                grid, forward, 0.0, 0.0, gam, "gamma")
        expect = oracle_spectral_row(grid, forward, c,
                                     stack[:, i] * factor) / factor
        np.testing.assert_allclose(w[:, i], expect, rtol=0,
                                   atol=1e-14 * np.abs(expect).max())


@PROPERTY
@given(problems(), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_transport_is_linear(problem, a, b):
    spec, grid, rng = problem
    f, g = random_stack(grid, rng, 2)
    plan = TransportPlan.build(spec, grid)
    tf, tg, tfg = (solve_transport_stack(plan, v[None])[0]
                   for v in (f, g, a * f + b * g))
    scale = abs(a) * np.abs(tf).max() + abs(b) * np.abs(tg).max()
    np.testing.assert_allclose(tfg, a * tf + b * tg, rtol=0,
                               atol=1e-13 * scale)


@PROPERTY
@given(problems(FOLDED_GAMMAS), st.integers(2, 4))
def test_constant_expression_gammas_take_the_spectral_path(problem, batch):
    # no integrating factor is built for a gamma that folds to a constant
    spec, grid, rng = problem
    stack = random_stack(grid, rng, batch)
    with mock.patch.object(characteristics, "_integrating_factor",
                           side_effect=AssertionError("factor built")):
        got = solve_transport_stack(TransportPlan.build(spec, grid), stack)
    # the same as the literal each gamma folds to, bit for bit
    literal = replace(spec, gamma=tuple(Num(constant_value(g))
                                        for g in spec.gamma))
    np.testing.assert_array_equal(got, solve_transport_stack(
        TransportPlan.build(literal, grid), stack))
    for i, sample in enumerate(stack):
        f = cf.GridFunction(grid, sample)
        expect = reference_transport(spec, f)
        np.testing.assert_allclose(got[i], expect, rtol=0,
                                   atol=1e-13 * np.abs(expect).max())


@PROPERTY
@given(problems(st.one_of(CONSTANT_GAMMAS, GAMMAS)), st.integers(2, 4))
def test_transport_leaves_its_input_unmodified(problem, batch):
    spec, grid, rng = problem
    stack = random_stack(grid, rng, batch)
    before = stack.copy()
    solve_transport_stack(TransportPlan.build(spec, grid), stack)
    np.testing.assert_array_equal(stack, before)


@PROPERTY
@given(problems(st.one_of(CONSTANT_GAMMAS, GAMMAS)), st.booleans(),
       st.integers(1, 3))
def test_row_integrals_of_a_nonnegative_field_keep_the_row_sign(
        problem, ones, batch):
    # the invariant behind the structural ||K||_inf of solve_discrete
    spec, grid, rng = problem
    shape = (batch, 3, grid.nx + 1, grid.ny, grid.nt)
    stack = np.ones(shape) if ones else rng.random(shape)
    plan = TransportPlan.build(spec, grid)
    w = _row_integrals(plan, stack)
    for i, (forward, *_) in enumerate(plan.rows):
        row = w[:, i] if forward else -w[:, i]
        assert row.min() >= -1e-14 * np.abs(row).max()
