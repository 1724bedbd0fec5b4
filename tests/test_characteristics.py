"""Transport inversion against closed-form solutions.

The oracles here are hand-integrable cases: constant forcing, a single
exponential relaxation under a constant and a linear gamma, cubic
polynomials (where the quadrature is exact), and a sine forcing along a
slanted line with an explicit antiderivative.
"""
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import dawsn

import charfred as cf
from charfred.characteristics import (GAMMA_SPREAD_LIMIT, SingularBlockError,
                                      TransportPlan, default_step,
                                      solve_transport_stack)
from conftest import ONE, ZERO, coupled_spec, identity_spec, zero_b
from test_transport_properties import reference_transport

SINE = cf.parse("sin(2*pi*y)")


def test_constant_forcing_gives_linear_solution():
    spec = identity_spec()
    grid = cf.Grid(nx=8, ny=4, nt=4)
    f = cf.sample((ONE, ONE, ONE), grid)
    u = cf.solve_transport(spec, f)
    xs = grid.xs()[:, None, None]
    np.testing.assert_allclose(u.values[0], xs + 0 * u.values[0], atol=1e-14)
    np.testing.assert_allclose(u.values[1], xs + 0 * u.values[1], atol=1e-14)
    np.testing.assert_allclose(u.values[2], xs - 1 + 0 * u.values[2],
                               atol=1e-14)


def test_boundary_values_are_exactly_zero():
    spec = coupled_spec()
    grid = cf.Grid(nx=8, ny=8, nt=8)
    f = cf.sample((SINE, ONE, cf.parse("cos(2*pi*t)")), grid)
    u = cf.solve_transport(spec, f)
    assert np.all(u.values[0, 0] == 0.0)
    assert np.all(u.values[1, 0] == 0.0)
    assert np.all(u.values[2, -1] == 0.0)


def test_exponential_relaxation_converges_second_order():
    # u' + gamma u = 1 from u(0) = 0: 1 - e^{-x} for gamma = 1, and
    # sqrt(2) D(x / sqrt(2)) for gamma = x, D Dawson's integral. x^0 reads
    # x, so it takes the integrating factor, but it evaluates to 1: the
    # kernel's exact weights then carry all of it, as they carry gamma = 1
    cases = ((ONE, lambda x: 1.0 - np.exp(-x), 2e-7),
             (cf.parse("x"), lambda x: np.sqrt(2.0) * dawsn(x / np.sqrt(2.0)),
              2e-3),
             (cf.parse("x^0"), lambda x: 1.0 - np.exp(-x), 2e-7))
    for gamma, solution, coarse in cases:
        spec = identity_spec(gamma=(gamma, ZERO, ZERO))
        errs = []
        for nx in (8, 16):
            grid = cf.Grid(nx=nx, ny=4, nt=4)
            f = cf.sample((ONE, ZERO, ZERO), grid)
            u = cf.solve_transport(spec, f)
            exact = solution(grid.xs())
            errs.append(np.abs(u.values[0] - exact[:, None, None]).max())
        assert errs[0] < coarse
        # the line rule on grid values is trapezoidal, so second order
        assert errs[0] / errs[1] > 3.0


def test_cubic_forcing_is_integrated_exactly():
    spec = identity_spec(alpha=(1.0, 0.5, -1.0), beta=(0.5, -1.0, 1.0))
    grid = cf.Grid(nx=8, ny=4, nt=4)
    cubic = cf.parse("x^3 - 2*x^2 + x - 1/4")
    exprs = (cubic, cubic, cubic)
    u = cf.solve_transport(spec, cf.sample(exprs, grid), rhs_exprs=exprs)
    xs = grid.xs()

    def anti(x):
        return x ** 4 / 4 - 2 * x ** 3 / 3 + x ** 2 / 2 - x / 4

    for comp, x0 in ((0, 0.0), (1, 0.0), (2, 1.0)):
        exact = (anti(xs) - anti(x0))[:, None, None]
        assert np.abs(u.values[comp] - exact).max() < 1e-14


def test_sine_forcing_matches_antiderivative():
    spec = identity_spec(beta=(1.0, 0.0, 0.0))
    exprs = (SINE, ZERO, ZERO)
    errs = []
    for nx in (8, 16):
        grid = cf.Grid(nx=nx, ny=16, nt=4)
        u = cf.solve_transport(spec, cf.sample(exprs, grid),
                               rhs_exprs=exprs)
        X = grid.xs()[:, None, None]
        Y = grid.ys()[None, :, None]
        exact = (np.cos(2 * np.pi * (Y - X)) - np.cos(2 * np.pi * Y)) \
            / (2 * np.pi) + 0 * u.values[0]
        errs.append(np.abs(u.values[0] - exact).max())
    # 16 Gauss-Legendre nodes per line leave rounding alone
    assert max(errs) < 1e-13


def test_grid_sampling_agrees_when_lines_hit_nodes():
    # beta = 1 with ny = 2 nx: every half-cell offset lands on a node, so
    # the grid kernel's interpolated reads reproduce composite Simpson on
    # the exact samples of each line
    spec = identity_spec(beta=(1.0, 0.0, 0.0))
    grid = cf.Grid(nx=8, ny=16, nt=4)
    exprs = (SINE, ZERO, ZERO)
    f = cf.sample(exprs, grid)
    via_grid = cf.solve_transport(spec, f)
    np.testing.assert_allclose(via_grid.values,
                               reference_transport(spec, f, exprs),
                               rtol=0, atol=1e-13)


def test_solver_is_linear():
    spec = coupled_spec()
    grid = cf.Grid(nx=8, ny=8, nt=8)
    rng = np.random.default_rng(3)
    f = cf.GridFunction(grid, rng.standard_normal((3, 9, 8, 8)))
    g = cf.GridFunction(grid, rng.standard_normal((3, 9, 8, 8)))
    lhs = cf.solve_transport(spec, 2.0 * f - 3.0 * g)
    rhs = 2.0 * cf.solve_transport(spec, f) - 3.0 * cf.solve_transport(spec, g)
    np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-13)


def test_block_solve_inverts_the_block_matrix():
    a2 = np.array([[2.0, 1.0], [0.5, 2.0]])
    spec = cf.SystemSpec(
        n=4, k=3, l=1, a1=[[1.0]], a2=a2, a3=[[-1.0]],
        alpha=(0.0, 0.5, 1.0, -1.0), beta=(1.0, 0.0, -1.0, 0.5),
        gamma=(ZERO,) * 4,
        b=tuple(tuple(ZERO for _ in range(4)) for _ in range(4)))
    grid = cf.Grid(nx=8, ny=4, nt=4)
    c = np.array([3.0, -1.0])
    vals = np.zeros((4, 9, 4, 4))
    vals[1] = c[0]
    vals[2] = c[1]
    u = cf.solve_transport(spec, cf.GridFunction(grid, vals))
    coef = np.linalg.solve(a2, c)
    X = grid.xs()[:, None, None]
    np.testing.assert_allclose(u.values[1], coef[0] * X + 0 * u.values[1],
                               atol=1e-14)
    np.testing.assert_allclose(u.values[2], coef[1] * X + 0 * u.values[2],
                               atol=1e-14)


def test_adjugates_match_inverses():
    a2 = np.array([[2.0, 1.0], [0.5, 2.0]])
    spec = cf.SystemSpec(
        n=4, k=3, l=1, a1=[[3.0]], a2=a2, a3=[[-1.0]],
        alpha=(0.0,) * 4, beta=(0.0,) * 4, gamma=(ZERO,) * 4,
        b=tuple(tuple(ZERO for _ in range(4)) for _ in range(4)))
    # the plan holds each block's inverse, which the transport applies
    # without dividing by a determinant
    (rows1, inv1), (rows2, inv2), (rows3, inv3) = TransportPlan.build(
        spec, cf.Grid(nx=4, ny=4, nt=4)).blocks
    assert (rows1, rows2, rows3) == (slice(0, 1), slice(1, 3), slice(3, 4))
    np.testing.assert_allclose(inv2, np.linalg.inv(a2), rtol=1e-14)
    np.testing.assert_allclose(a2 @ inv2, np.eye(2), rtol=0, atol=1e-15)
    assert inv1.shape == inv3.shape == (1, 1)
    assert inv1[0, 0] == pytest.approx(1 / 3)
    assert inv3[0, 0] == -1.0


def test_singular_block_raises():
    spec = identity_spec()
    object.__setattr__(spec, "a3", np.array([[1e-14]]))
    with pytest.raises(SingularBlockError, match=r"\|det a3\| = 1\.000e-14"):
        TransportPlan.build(spec, cf.Grid(nx=4, ny=4, nt=4))


def test_ill_conditioned_block_fails_the_inverse_identity():
    # det 1.0 clears the floor, but |det| max|a inv - I| is about 1.7e-10
    # of the scale, above 1e-12
    a2 = 1e6 * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
    spec = cf.SystemSpec(
        n=4, k=3, l=1, a1=[[3.0]], a2=a2, a3=[[-1.0]],
        alpha=(0.0,) * 4, beta=(0.0,) * 4, gamma=(ZERO,) * 4,
        b=tuple(tuple(ZERO for _ in range(4)) for _ in range(4)))
    with pytest.raises(SingularBlockError,
                       match="^inverse identity failed for a2$"):
        TransportPlan.build(spec, cf.Grid(nx=4, ny=4, nt=4))


@pytest.mark.parametrize("name", ["period_y", "period_t"])
def test_spec_and_grid_periods_must_agree(name):
    # the transport reads the grid's periods; the spec's must not differ
    spec = replace(coupled_spec(), **{name: 2.0})
    f = cf.sample((ONE, ONE, ONE), cf.Grid(nx=4, ny=4, nt=4))
    with pytest.raises(ValueError, match=rf"spec's {name} = 2\.0 differs "
                                         rf"from the grid's 1\.0"):
        cf.solve_neumann(spec, f)


def test_stack_solve_matches_single_solves():
    spec = coupled_spec()
    grid = cf.Grid(nx=6, ny=6, nt=6)
    rng = np.random.default_rng(9)
    stack = rng.standard_normal((3, 3, 7, 6, 6))
    batched = solve_transport_stack(TransportPlan.build(spec, grid), stack)
    for idx in range(3):
        single = cf.solve_transport(
            spec, cf.GridFunction(grid, stack[idx]))
        np.testing.assert_allclose(batched[idx], single.values, atol=1e-14)


def test_apply_transport_exact_on_linear_fields():
    spec = identity_spec(alpha=(0.5, 1.0, -1.0), beta=(1.0, -1.0, 0.5))
    grid = cf.Grid(nx=8, ny=4, nt=4)
    X = grid.xs()[:, None, None]
    vals = np.stack([X + np.zeros((9, 4, 4)), X + np.zeros((9, 4, 4)),
                     X - 1 + np.zeros((9, 4, 4))])
    cu = cf.apply_transport(spec, cf.GridFunction(grid, vals))
    np.testing.assert_allclose(cu.values, np.ones_like(vals), atol=1e-11)


def test_apply_transport_inverts_solve_transport():
    # constant gammas, and row 3 of configs/uncoupled.json's varying one
    spec = coupled_spec()
    varying = replace(spec, gamma=spec.gamma[:2]
                      + (cf.parse("0.1*cos(2*pi*y)"),))
    exprs = (SINE, cf.parse("cos(2*pi*y)"), cf.parse("sin(2*pi*t)"))
    for spec in (spec, varying):
        resid = []
        for nx in (8, 16):
            grid = cf.Grid(nx=nx, ny=2 * nx, nt=2 * nx)
            f = cf.sample(exprs, grid)
            u = cf.solve_transport(spec, f)
            resid.append(cf.residual_sup(spec, u, f))
        # derivative reads go through the interpolant, so first order is
        # the honest rate; it must improve under refinement
        assert resid[0] < 1.0
        assert resid[0] / resid[1] > 1.6


def refused_at_first_grid_transport(spec, grid, message):
    """The plan of spec builds, with no grid operator, and message is
    raised at the first grid transport of solve_transport and of
    solve_neumann alike."""
    plan = TransportPlan.build(spec, grid)
    assert "ops" not in plan.__dict__
    f = cf.GridFunction(grid, np.ones((3, grid.nx + 1, grid.ny, grid.nt)))
    for run in (lambda: cf.solve_transport(spec, f, plan),
                lambda: cf.solve_neumann(spec, f)):
        with pytest.raises(ValueError, match=message):
            run()


@pytest.mark.parametrize("amplitude, refused", [(300, False), (400, True)])
def test_gamma_whose_line_integral_overflows_is_refused(amplitude, refused):
    # Gamma = amplitude (1 - x) cos(2 pi y) along row 3's lines from x = 1,
    # with no constant part, spans 2 amplitude; e^Gamma must be finite
    # and nonzero, or refused when the grid operators are built
    spec = identity_spec(gamma=(ZERO, ZERO,
                                cf.parse(f"{amplitude}*cos(2*pi*y)")))
    grid = cf.Grid(nx=4, ny=4, nt=4)
    if refused:
        refused_at_first_grid_transport(
            spec, grid, r"^gamma\[3\]: its integral along the lines, less "
                        r"its constant part, spans 800 over the grid, more "
                        r"than the 709\.78 within which e\^Gamma stays "
                        r"finite$")
        return
    f = cf.GridFunction(grid, np.ones((3, 5, 4, 4)))
    u = cf.solve_transport(spec, f)
    assert np.isfinite(u.values).all()
    assert 2 * amplitude <= GAMMA_SPREAD_LIMIT


@pytest.mark.parametrize("row, c, refused", [
    (0, -800.0, True), (2, 800.0, True), (0, 800.0, False),
    (2, -800.0, False), (0, -709.0, False), (2, 709.0, False)])
def test_constant_gamma_whose_kernel_weight_overflows_is_refused(row, c,
                                                                  refused):
    # the kernel weight e^{c (xi - x)} reaches e^{-c} on a forward row
    # (rows 1 and 2) and e^{c} on a backward one (row 3); the fused route
    # reads the same weight, and refuses the same spec
    gamma = [ZERO, ZERO, ZERO]
    gamma[row] = cf.parse(repr(c))
    spec = identity_spec(gamma=tuple(gamma))
    grid = cf.Grid(nx=4, ny=4, nt=4)
    f = cf.GridFunction(grid, np.ones((3, 5, 4, 4)))
    if refused:
        message = (rf"^gamma\[{row + 1}\]: its constant part {c:g} weighs "
                   r"the line integrals by up to e\^800, more than the "
                   r"e\^709\.78 within which the weight stays finite$")
        for run in (lambda: TransportPlan.build(spec, grid),
                    lambda: cf.apply_k_cubed_fused(spec, f, [[0.5] * 3])):
            with pytest.raises(ValueError, match=message):
                run()
        return
    assert TransportPlan.build(spec, grid).rows[row][4] == c
    u = cf.solve_transport(spec, f)
    assert np.isfinite(u.values).all()


def test_varying_gamma_whose_kernel_constant_overflows_is_refused():
    # the integrating factor splits off the midpoint of gamma's samples,
    # about 800, for the kernel; its weight is refused as a constant
    # gamma's would be, when the grid operators are built
    spec = identity_spec(gamma=(ZERO, ZERO,
                                cf.parse("800 + 0.1*cos(2*pi*y)")))
    grid = cf.Grid(nx=4, ny=4, nt=4)
    assert TransportPlan.build(spec, grid).rows[2][4] is None
    refused_at_first_grid_transport(
        spec, grid, r"^gamma\[3\]: its constant part 800 weighs the line "
                    r"integrals by up to e\^800, more than the e\^709\.78 "
                    r"within which the weight stays finite$")


def test_default_step_respects_grid_and_slopes():
    spec = identity_spec(alpha=(4.0, 0.0, 0.0), beta=(0.0, 0.0, 0.0))
    grid = cf.Grid(nx=8, ny=8, nt=8)
    s = default_step(spec, grid)
    assert 0 < s <= 1 / (4 * 8)
    assert s <= grid.period_t / (4 * 8 * 4.0) + 1e-12


def test_sample_coupling_skips_literal_zeros():
    spec = coupled_spec()
    grid = cf.Grid(nx=4, ny=8, nt=8)
    table = {(i, j): vals
             for i, j, vals in TransportPlan.build(spec, grid).coupling}
    assert set(table) == {(0, 2), (1, 0), (2, 1)}
    expect = 0.4 * np.cos(2 * np.pi * grid.ys())
    np.testing.assert_allclose(table[(0, 2)][0, :, 0], expect, atol=1e-15)


def test_apply_coupling_matches_hand_sum():
    spec = coupled_spec()
    grid = cf.Grid(nx=4, ny=8, nt=8)
    rng = np.random.default_rng(4)
    u = cf.GridFunction(grid, rng.standard_normal((3, 5, 8, 8)))
    du = cf.apply_coupling(spec, u)
    ys = grid.ys()[None, :, None]
    ts = grid.ts()[None, None, :]
    np.testing.assert_allclose(
        du.values[0], 0.4 * np.cos(2 * np.pi * ys) * u.values[2], atol=1e-14)
    np.testing.assert_allclose(du.values[1], 0.3 * u.values[0], atol=1e-14)
    np.testing.assert_allclose(
        du.values[2], 0.2 * np.sin(2 * np.pi * ts) * u.values[1], atol=1e-14)


def test_mirrored_orientation_solves():
    b = [[ZERO] * 3 for _ in range(3)]
    b[0][1] = cf.parse("0.2")
    b[1][2] = cf.parse("0.2")
    b[2][0] = cf.parse("0.2")
    spec = identity_spec(alpha=(0.0, 1.0, 0.0), beta=(1.0, -1.0, 0.0),
                         b=tuple(tuple(r) for r in b),
                         orientation=cf.MIRRORED)
    assert cf.validate_spec(spec).ok
    grid = cf.Grid(nx=8, ny=8, nt=8)
    f = cf.sample((ONE, ONE, ONE), grid)
    u = cf.solve_transport(spec, f)
    assert np.all(u.values[0, 0] == 0.0)
    assert np.all(u.values[2, -1] == 0.0)
