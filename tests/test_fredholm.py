import itertools
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import charfred as cf
from charfred import characteristics, fredholm
from charfred.expressions import constant_value, is_literal_zero
from charfred.fredholm import DISCRETE_UNKNOWN_CAP, GMRES_MAX_ITER, GMRES_RTOL
from charfred.gridfield import GridDomainError
from conftest import (ONE, ZERO, block_coupled_spec, coupled_spec, cyclic_b,
                      identity_spec, mirrored_spec)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EXPRS = (cf.parse("sin(2*pi*y)*cos(2*pi*t)"), ONE, cf.parse("cos(2*pi*t)"))


def feeding_probe(grid):
    vals = np.zeros((3, grid.nx + 1, grid.ny, grid.nt))
    vals[2] = np.sin(2 * np.pi * grid.ys())[None, :, None]
    return cf.GridFunction(grid, vals)


def test_apply_k_support_cycles_through_groups():
    spec = identity_spec(alpha=(0.0, 1.0, 0.0), beta=(1.0, -1.0, 0.0),
                         b=cyclic_b(ONE, ONE, ONE))
    grid = cf.Grid(nx=8, ny=8, nt=8)
    f = feeding_probe(grid)
    k1 = cf.apply_k(spec, f)
    assert np.any(k1.values[0] != 0.0)
    assert np.all(k1.values[1] == 0.0) and np.all(k1.values[2] == 0.0)
    k2 = cf.apply_k(spec, k1)
    assert np.any(k2.values[1] != 0.0)
    assert np.all(k2.values[0] == 0.0) and np.all(k2.values[2] == 0.0)
    k3 = cf.apply_k(spec, k2)
    assert np.any(k3.values[2] != 0.0)
    assert np.all(k3.values[0] == 0.0) and np.all(k3.values[1] == 0.0)


def test_apply_k_sup_bound():
    # |K f| <= max row sum of |b| * exp(sup |gamma|) * line length * |f|
    spec = coupled_spec()
    grid = cf.Grid(nx=8, ny=8, nt=8)
    rng = np.random.default_rng(12)
    bound = 0.4 * np.exp(0.3)
    for _ in range(5):
        f = cf.GridFunction(grid, rng.standard_normal((3, 9, 8, 8)))
        kf = cf.apply_k(spec, f)
        assert cf.sup_norm(kf) <= bound * cf.sup_norm(f) * 1.05


def test_apply_k_power_is_repeated_application():
    # bit for bit, on the dense DFT route, on the FFT route of a grid
    # above DENSE_DFT_NODES and with a zero-slope row
    cases = ((coupled_spec(), cf.Grid(nx=6, ny=6, nt=6)),
             (coupled_spec(), cf.Grid(nx=13, ny=14, nt=14)),
             (transversal_spec(), cf.Grid(nx=6, ny=6, nt=6)))
    assert cases[1][1].node_count > characteristics.DENSE_DFT_NODES
    assert cases[2][0].alpha[2] == cases[2][0].beta[2] == 0.0
    for spec, grid in cases:
        f = cf.sample(EXPRS, grid)
        chain = f
        for power in (1, 2, 3):
            chain = cf.apply_k(spec, chain)
            np.testing.assert_array_equal(
                cf.apply_k_power(spec, f, power).values, chain.values)
    with pytest.raises(ValueError):
        cf.apply_k_power(spec, f, 0)


def test_neumann_converges_on_contraction():
    spec = coupled_spec()
    grid = cf.Grid(nx=8, ny=8, nt=8)
    f = cf.sample(EXPRS, grid)
    out = cf.solve_neumann(spec, f, tol=1e-10, max_iter=100)
    assert out.method == "neumann"
    assert 1 < out.iterations < 30
    assert out.residual_sup <= 10 * 1e-10 * cf.sup_norm(f)
    # the reported w solves (I + K) w = f, and u is its transport lift
    lift = cf.solve_transport(spec, out.w)
    np.testing.assert_allclose(out.u.values, lift.values, atol=1e-15)


def test_neumann_transports_the_final_iterate_once(monkeypatch):
    # one group transport inside each of a sweep's three group steps, each
    # holding the one row of the group it reads, and one n-row transport
    # for u = C^{-1} w, whose one coupling product also gives the
    # residual. The sweeps and that tail call fredholm's imports of
    # solve_transport_group, solve_transport_stack and
    # apply_coupling_stack; characteristics' own solve_transport_stack and
    # apply_coupling_stack are counted too, so no field-level transport or
    # coupling goes unseen
    spec = coupled_spec()
    grid = cf.Grid(nx=6, ny=6, nt=6)
    f = cf.sample(EXPRS, grid)
    group, stack, couple = (fredholm.solve_transport_group,
                            fredholm.solve_transport_stack,
                            fredholm.apply_coupling_stack)
    calls = []

    def counting_group(plan, g, held):
        calls.append((g, held.shape[:2]))
        return group(plan, g, held)

    def counting_stack(plan, full, *args):
        calls.append((None, full.shape[:2]))
        return stack(plan, full, *args)

    def counting_coupling(plan, full):
        calls.append(("D", full.shape[:2]))
        return couple(plan, full)

    monkeypatch.setattr(fredholm, "solve_transport_group", counting_group)
    for owner in (fredholm, characteristics):
        monkeypatch.setattr(owner, "solve_transport_stack", counting_stack)
        monkeypatch.setattr(owner, "apply_coupling_stack", counting_coupling)
    out = cf.solve_neumann(spec, f)
    assert out.iterations > 1
    # a sweep updates b, c, p from p, b, c in turn
    b, c, p = fredholm._sweep_order(spec, spec.feeding_group())
    sweep = [(h, (1, 1)) for h in (p, b, c)]
    assert calls == sweep * out.iterations + [(None, (1, spec.n)),
                                              ("D", (1, spec.n))]


def counted_calls(monkeypatch, owner, name):
    """The argument tuples of every call to owner.name from now on."""
    inner = getattr(owner, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("name, per_row", [("constant_value", 1),
                                           ("_shift_multipliers", 2)])
def test_plan_decides_each_row_once(monkeypatch, name, per_row):
    # gamma is classified once, when the plan is built; a constant-gamma
    # row's spectral multipliers (one y and one t factor) are built once,
    # at the plan's first grid transport, and so is a small grid's dense
    # DFT pair, once per plan; every gamma of coupled_spec is a constant
    at_build = per_row if name == "constant_value" else 0
    spec = coupled_spec()
    grid = cf.Grid(nx=6, ny=6, nt=6)
    f = cf.sample(EXPRS, grid)
    calls = counted_calls(monkeypatch, characteristics, name)
    dfts = counted_calls(monkeypatch, characteristics, "_plane_dft")
    out = cf.solve_neumann(spec, f)
    assert out.iterations > 1
    assert len(calls) == per_row * spec.n and len(dfts) == 1
    # 2,197 nodes per component, DENSE_DFT_NODES, take the dense DFT; one
    # x level more takes one rfft2 per row
    ffts = counted_calls(monkeypatch, np.fft, "rfft2")
    for nx, dense in ((12, True), (13, False)):
        grid = cf.Grid(nx=nx, ny=13, nt=13)
        assert (grid.node_count <= characteristics.DENSE_DFT_NODES) is dense
        f = cf.sample(EXPRS, grid)
        for counted in (calls, dfts, ffts):
            counted.clear()
        plan = cf.TransportPlan.build(spec, grid)
        assert len(calls) == at_build * spec.n and not dfts
        # the second transport adds no call but its own rfft2s
        for transports in (1, 2):
            cf.solve_transport(spec, f, plan)
            assert len(calls) == per_row * spec.n
            assert len(dfts) == int(dense)
            assert len(ffts) == (0 if dense else transports * spec.n)


@pytest.mark.parametrize("solve", [cf.solve_neumann, cf.solve_discrete])
def test_residual_is_that_of_the_returned_w(solve):
    spec = coupled_spec()
    grid = cf.Grid(nx=6, ny=6, nt=6)
    f = cf.sample(EXPRS, grid)
    out = solve(spec, f)
    assert out.residual_sup == cf.sup_norm(out.w + cf.apply_k(spec, out.w)
                                           - f)


def test_neumann_without_coupling_stops_after_one_pass():
    spec = identity_spec(alpha=(0.5, 1.0, -1.0), beta=(1.0, -1.0, 0.5))
    grid = cf.Grid(nx=8, ny=8, nt=8)
    f = cf.sample(EXPRS, grid)
    out = cf.solve_neumann(spec, f, tol=1e-12, max_iter=10)
    assert out.iterations == 1
    direct = cf.solve_transport(spec, f)
    np.testing.assert_array_equal(out.u.values, direct.values)


def test_neumann_raises_on_divergence():
    big = cf.parse("4")
    spec = identity_spec(alpha=(0.5, 1.0, -1.0), beta=(1.0, -1.0, 0.5),
                         b=cyclic_b(big, big, big))
    grid = cf.Grid(nx=6, ny=6, nt=6)
    f = cf.sample(EXPRS, grid)
    with pytest.raises(cf.NonConvergence) as err:
        cf.solve_neumann(spec, f, tol=1e-12, max_iter=8)
    assert err.value.iterations == 8
    assert err.value.last_diff > 1.0


def overflow_config(tmp_path, ny=4):
    """The x1e3 coupling of the CLI overflow test on a grid of nx = 4
    and ny = nt."""
    doc = json.loads((CONFIGS / "cyclic.json").read_text(encoding="utf-8"))
    doc["grid"] = {"nx": 4, "ny": ny, "nt": ny}
    doc["system"]["b"] = [["0", "0", "400*cos(2*pi*y)"], ["300", "0", "0"],
                          ["0", "200*sin(2*pi*t)", "0"]]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return cf.load_config(str(path))


def test_neumann_stops_early_on_sustained_growth(tmp_path):
    # sweep update norms grow 5.3e4, 3.2e10, 1.1e15, past 1e6 times the
    # smallest
    cfg = overflow_config(tmp_path)
    f = cf.sample(cfg.rhs, cfg.grid)
    with pytest.raises(cf.NonConvergence) as err:
        cf.solve_neumann(cfg.spec, f, cfg.tol, cfg.max_iter)
    assert err.value.diverged
    assert err.value.iterations <= 10
    assert np.isfinite(err.value.last_diff)


def test_assembled_matrix_acts_like_apply_k():
    spec = coupled_spec()
    grid = cf.Grid(nx=4, ny=4, nt=4)
    mat = cf.assemble_dense(spec, grid)
    size = 3 * 5 * 4 * 4
    assert mat.shape == (size, size)
    rng = np.random.default_rng(8)
    f = cf.GridFunction(grid, rng.standard_normal((3, 5, 4, 4)))
    direct = f.values.reshape(size) + cf.apply_k(spec, f).values.reshape(size)
    np.testing.assert_allclose(mat @ f.values.reshape(size), direct,
                               atol=1e-12)


def built_plans(monkeypatch):
    """Each TransportPlan built from now on."""
    build = cf.TransportPlan.build.__func__
    plans = []

    def run(cls, *args):
        plans.append(build(cls, *args))
        return plans[-1]

    monkeypatch.setattr(cf.TransportPlan, "build", classmethod(run))
    return plans


def test_each_entry_point_builds_one_plan(monkeypatch):
    # every transport solve, coupling product and K application inside
    # one entry point reuses the plan that entry point built, and so do
    # both panel routes: the fused K^3 probes and the closed-form solve
    spec = coupled_spec()
    grid = cf.Grid(nx=4, ny=4, nt=4)
    f = cf.sample(EXPRS, grid)
    plans = built_plans(monkeypatch)
    runs = {
        "solve_neumann": lambda: cf.solve_neumann(spec, f),
        "solve_discrete": lambda: cf.solve_discrete(spec, f,
                                                    kernel_estimate=True),
        "smoothing_profile": lambda: cf.smoothing_profile(
            spec, grid, frequencies=(1,)),
        "apply_k_power": lambda: cf.apply_k_power(spec, f, 3),
        "apply_k_cubed_fused": lambda: cf.apply_k_cubed_fused(
            spec, f, np.array([[0.5, 0.25, 0.75]])),
        "solve_transport(rhs_exprs)": lambda: cf.solve_transport(
            spec, f, rhs_exprs=EXPRS),
    }
    for name, run in runs.items():
        plans.clear()
        run()
        assert [(p.spec, p.grid) for p in plans] == [(spec, grid)], name


GRID_OPERATORS = ("ops", "coupling", "dft")


def test_panel_routes_build_no_grid_operator(monkeypatch):
    # the fused K^3 route and the closed-form solve read the plan's
    # blocks, entries and rows alone, so none of its grid operators is
    # ever built; a grid transport and a coupling product build them
    spec = fused_spec()
    grid = cf.Grid(nx=4, ny=5, nt=5)
    f = cf.sample(EXPRS, grid)
    plans = built_plans(monkeypatch)
    cf.apply_k_cubed_fused(spec, f, np.array([[0.5, 0.25, 0.75]]))
    plan, = plans
    assert not set(GRID_OPERATORS) & set(vars(plan))
    plan = cf.TransportPlan.build(spec, grid)
    cf.solve_transport(spec, f, plan, rhs_exprs=EXPRS)
    assert not set(GRID_OPERATORS) & set(vars(plan))
    u = cf.solve_transport(spec, f, plan)
    assert {"ops", "dft"} <= set(vars(plan)) and "coupling" not in vars(plan)
    characteristics.apply_coupling_stack(plan, u.values[None])
    assert set(GRID_OPERATORS) <= set(vars(plan))


# the field-level entry points that take a plan, as (spec, f, plan) ->
# array
FIELD_LEVEL = {
    "apply_k": lambda spec, f, plan: cf.apply_k(spec, f, plan).values,
    "solve_transport": lambda spec, f, plan: cf.solve_transport(
        spec, f, plan).values,
}


@pytest.mark.parametrize("name", FIELD_LEVEL)
def test_field_level_calls_refuse_a_foreign_plan(name):
    # a plan is taken only for the spec object and the grid it was built
    # for; the foreign plans below once gave fields off by 21% to 86%
    call = FIELD_LEVEL[name]
    spec = coupled_spec()
    grid = cf.Grid(nx=4, ny=4, nt=4)
    f = cf.sample(EXPRS, grid)
    np.testing.assert_array_equal(
        call(spec, f, cf.TransportPlan.build(spec, grid)),
        call(spec, f, None))
    wide = cf.Grid(nx=4, ny=4, nt=4, period_y=2.0)
    foreign = [cf.TransportPlan.build(replace(spec, period_y=2.0), wide),
               cf.TransportPlan.build(replace(spec, a1=2.0 * spec.a1), grid),
               cf.TransportPlan.build(replace(spec), grid)]
    for plan in foreign:
        with pytest.raises(ValueError, match="another spec or grid"):
            call(spec, f, plan)


def test_discrete_agrees_with_neumann():
    spec = coupled_spec()
    grid = cf.Grid(nx=8, ny=8, nt=8)
    f = cf.sample(EXPRS, grid)
    a = cf.solve_neumann(spec, f, tol=1e-12, max_iter=100)
    b = cf.solve_discrete(spec, f)
    assert b.method == "discrete"
    assert b.kernel_dimension_estimate == 0
    assert cf.sup_norm(a.u - b.u) < 1e-8
    assert b.residual_sup < 1e-10


def forbid_quadratic_steps(monkeypatch):
    # the impulse columns, the dense sections of I + K and I + S and the
    # SVD count of either
    def no_section(*args, **kwargs):
        raise AssertionError("O(n^2) step run")

    for name in ("assemble_dense", "_impulse_batches", "kernel_dimension",
                 "_count_kernel"):
        monkeypatch.setattr(fredholm, name, no_section)
    monkeypatch.setattr(fredholm._Reduction, "section", no_section)


def test_kernel_estimate_above_the_cap_is_structural(monkeypatch):
    spec = coupled_spec()
    grid = cf.Grid(nx=30, ny=16, nt=16)
    assert 3 * 31 * 16 * 16 > DISCRETE_UNKNOWN_CAP
    forbid_quadratic_steps(monkeypatch)
    out = cf.solve_discrete(spec, cf.zeros(grid, 3))
    assert out.kernel_dimension_estimate == 0


def test_declining_certificate_above_the_cap_gives_no_estimate(monkeypatch):
    # a_1, a_2, a_3 near 11, 24 and 88 decline the structural certificate,
    # and a cap below the 240 unknowns leaves no SVD to settle it
    monkeypatch.setattr(fredholm, "DISCRETE_UNKNOWN_CAP", 100)
    spec = coupled_x30_spec()
    grid = cf.Grid(nx=4, ny=4, nt=4)
    forbid_quadratic_steps(monkeypatch)
    out = cf.solve_discrete(spec, cf.sample(EXPRS, grid))
    assert out.kernel_dimension_estimate is None
    assert out.stalled_residual is None


def gelsy(spec, f):
    size = f.values.size
    mat = cf.assemble_dense(spec, f.grid)
    sol = scipy.linalg.lstsq(mat, f.values.reshape(size),
                             lapack_driver="gelsy")[0]
    return sol.reshape(f.values.shape)


def test_gmres_matches_gelsy():
    # the solve-section grid: 3 * 7 * 7 * 7 = 1,029 unknowns
    spec = coupled_spec()
    grid = cf.Grid(nx=6, ny=7, nt=7)
    f = cf.sample(EXPRS, grid)
    out = cf.solve_discrete(spec, f, kernel_estimate=False)
    assert 0 < out.iterations < GMRES_MAX_ITER
    assert out.stalled_residual is None
    expect = gelsy(spec, f)
    assert np.abs(out.w.values - expect).max() <= \
        1e-10 * np.abs(expect).max()


def recording_dense_solves(monkeypatch):
    """The shapes of the matrices scipy's LU factors, one entry per
    lu_solve, and the shapes of the matrices gelsy solves, one per call."""
    factored, lu_solves, gelsy_calls = [], [], []
    lu_factor, lu_solve, lstsq = (scipy.linalg.lu_factor,
                                  scipy.linalg.lu_solve, scipy.linalg.lstsq)

    def recorded_lu_factor(a, *args, **kwargs):
        factored.append(a.shape)
        return lu_factor(a, *args, **kwargs)

    def recorded_lu_solve(lu, b, *args, **kwargs):
        lu_solves.append(b.shape)
        return lu_solve(lu, b, *args, **kwargs)

    def recorded_lstsq(a, b, *args, **kwargs):
        assert kwargs.get("lapack_driver") == "gelsy"
        gelsy_calls.append(a.shape)
        return lstsq(a, b, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", recorded_lu_factor)
    monkeypatch.setattr(scipy.linalg, "lu_solve", recorded_lu_solve)
    monkeypatch.setattr(scipy.linalg, "lstsq", recorded_lstsq)
    return factored, lu_solves, gelsy_calls


def recording_factors(monkeypatch):
    """Each section of I + S that _Reduction.section returns and the LU
    factors scipy makes, one entry per call."""
    sections, factors = [], []
    section, lu_factor = fredholm._Reduction.section, scipy.linalg.lu_factor

    def recorded_section(self, with_map=False):
        mat = section(self, with_map)
        sections.append(mat[0] if with_map else mat)
        return mat

    def recorded_lu_factor(a, *args, **kwargs):
        factors.append(lu_factor(a, *args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(fredholm._Reduction, "section", recorded_section)
    monkeypatch.setattr(scipy.linalg, "lu_factor", recorded_lu_factor)
    return sections, factors


def gelsy_solver(section, r):
    return scipy.linalg.lstsq(section, r, lapack_driver="gelsy")[0]


def lu_solver(section, r):
    # the program's factorisation: the transpose, solved with trans=1
    return scipy.linalg.lu_solve(scipy.linalg.lu_factor(section.T), r,
                                 trans=1)


def reduced_direct(spec, f, solver):
    """w from a direct solve of the section of I + S, built from apply_k
    alone.

    The pivot p is the smallest row group (on a tie the lowest-numbered),
    b the group that reads p and c the group that reads b. K_{g<-h} x is
    group g of apply_k on the field that holds x in group h alone, and
    the section's columns are impulses swept b, c, p one at a time.
    solver(section, r) solves each reduced system (gelsy_solver or
    lu_solver); w_b and w_c are back-substituted, and the correction of
    the full residual is solved for and added while that residual is
    above GMRES_RTOL and falling.
    """
    grid = f.grid
    plan = cf.TransportPlan.build(spec, grid)
    groups = [sl for sl, _ in spec.blocks()]
    reads = dict(spec.coupling_pattern())
    sizes = [sl.stop - sl.start for sl in groups]
    p = sizes.index(min(sizes))
    b = next(g for g, h in reads.items() if h == p)
    c = next(g for g, h in reads.items() if h == b)

    def k(g, h, x):
        held = np.zeros_like(f.values)
        held[groups[h]] = x
        image = cf.apply_k(spec, cf.GridFunction(grid, held), plan)
        return image.values[groups[g]]

    shape = f.values[groups[p]].shape
    size = math.prod(shape)
    section = np.empty((size, size))
    for j in range(size):
        v = np.zeros(size)
        v[j] = 1.0
        w_b = -k(b, p, v.reshape(shape))
        w_c = -k(c, b, w_b)
        section[:, j] = v - (-k(p, c, w_c)).reshape(size)

    def back_substituted(res, x):
        w = np.zeros_like(res)
        w[groups[p]] = x.reshape(shape)
        w[groups[b]] = res[groups[b]] - k(b, p, w[groups[p]])
        w[groups[c]] = res[groups[c]] - k(c, b, w[groups[b]])
        return w

    norm = np.linalg.norm(f.values)
    w, res, gap = np.zeros_like(f.values), f.values, 1.0
    while gap > GMRES_RTOL:
        r = res[groups[p]] - k(p, c, res[groups[c]] - k(c, b,
                                                          res[groups[b]]))
        x = solver(section, r.reshape(size))
        trial = w + back_substituted(res, x)
        trial_res = f.values - (trial + cf.apply_k(
            spec, cf.GridFunction(grid, trial), plan).values)
        trial_gap = np.linalg.norm(trial_res) / norm
        if not trial_gap < gap:
            break
        w, res, gap = trial, trial_res, trial_gap
    return w


def test_kernel_routes_the_solve_to_gelsy(monkeypatch):
    spec = coupled_spec()
    grid = cf.Grid(nx=4, ny=4, nt=4)
    f = cf.sample(EXPRS, grid)
    # the certificate would prove this section kernel-free first
    monkeypatch.setattr(fredholm, "_section_power_norms",
                        lambda *args: itertools.repeat(1.0))
    monkeypatch.setattr(fredholm, "_count_kernel", lambda s: 1)

    def no_gmres(*args):
        raise AssertionError("GMRES ran on a section with a kernel")

    monkeypatch.setattr(fredholm, "_gmres", no_gmres)
    factored, _, gelsy_calls = recording_dense_solves(monkeypatch)
    out = cf.solve_discrete(spec, f)
    assert out.kernel_dimension_estimate == 1
    assert out.iterations == 0 and out.stalled_residual is None
    # one gelsy call on the 80-row section of I + S, not on the 240-row
    # one of I + K, for each step of back-substitution and refinement,
    # and no LU
    assert factored == []
    assert set(gelsy_calls) == {(80, 80)}
    assert out.refinements + 1 <= len(gelsy_calls) <= out.refinements + 2
    np.testing.assert_array_equal(out.w.values,
                                  reduced_direct(spec, f, gelsy_solver))
    expect = gelsy(spec, f)
    assert np.abs(out.w.values - expect).max() <= \
        1e-10 * np.abs(expect).max()


def fused_spec():
    """Criterion 3's spec: variable gamma and couplings on every row."""
    return identity_spec(
        alpha=(0.5, 1.0, -1.0), beta=(1.0, -1.0, 0.5),
        gamma=(cf.parse("0.3"), ZERO, cf.parse("0.1*cos(2*pi*y)")),
        b=cyclic_b(cf.parse("0.4*cos(2*pi*y)"),
                   cf.parse("0.3 + 0.1*sin(2*pi*t)"),
                   cf.parse("0.2*cos(2*pi*y - 2*pi*t)")))


def transversal_spec():
    """Criterion 5's spec: zero-slope rows and unit couplings."""
    return identity_spec(alpha=(0.0, 1.0, 0.0), beta=(1.0, -1.0, 0.0),
                         b=cyclic_b(ONE, ONE, ONE))


# 240 unknowns: the last batch holds 2 columns, or 48
@pytest.mark.parametrize("batch", (7, 64))
def test_assembly_batches_give_one_matrix(monkeypatch, batch):
    spec = coupled_spec()
    grid = cf.Grid(nx=4, ny=4, nt=4)
    whole = cf.assemble_dense(spec, grid)
    monkeypatch.setattr(fredholm, "ASSEMBLY_BATCH", batch)
    np.testing.assert_array_equal(cf.assemble_dense(spec, grid), whole)


def scaled_coupled_spec(factor):
    spec = coupled_spec()
    return replace(spec, b=tuple(
        tuple(e if is_literal_zero(e) else
              cf.parse(f"{factor}*({cf.pretty(e)})") for e in row)
        for row in spec.b))


def coupled_x4_spec():
    """coupled_spec with every coupling scaled by 4: ||K||_inf near 1.45."""
    return scaled_coupled_spec(4)


def coupled_x30_spec():
    """coupled_spec with every coupling scaled by 30: ||K||_inf near 10.9."""
    return scaled_coupled_spec(30)


# 5 x nodes and 4 y and t nodes, then 7 of each
@pytest.mark.parametrize("nx,nyt", ((4, 4), (6, 7)))
@pytest.mark.parametrize("make_spec",
                         (coupled_spec, fused_spec, transversal_spec,
                          coupled_x4_spec, mirrored_spec, block_coupled_spec))
def test_neumann_sweeps_match_gelsy(make_spec, nx, nyt):
    spec = make_spec()
    grid = cf.Grid(nx=nx, ny=nyt, nt=nyt)
    rng = np.random.default_rng(nx)
    f = cf.GridFunction(grid, rng.standard_normal(
        (spec.n, nx + 1, nyt, nyt)))
    out = cf.solve_neumann(spec, f, tol=1e-12)
    expect = gelsy(spec, f)
    assert np.abs(out.w.values - expect).max() <= \
        1e-10 * np.abs(expect).max()


# 4 to 7 nodes per axis; x has at least 5 (nx >= 4)
@pytest.mark.parametrize("nx,nyt", ((4, 4), (5, 6), (6, 7)))
@pytest.mark.parametrize("make_spec",
                         (coupled_spec, fused_spec, transversal_spec,
                          coupled_x4_spec, block_coupled_spec))
def test_structural_norm_equals_the_dense_row_sums(make_spec, nx, nyt):
    spec = make_spec()
    grid = cf.Grid(nx=nx, ny=nyt, nt=nyt)
    plan = cf.TransportPlan.build(spec, grid)
    size = spec.n * grid.node_count
    k = cf.assemble_dense(spec, grid) - np.eye(size)
    a = list(itertools.islice(fredholm._section_power_norms(plan), 3))
    # a_1 equals ||K||_inf up to rounding, on either side; a_2 and a_3
    # bound ||K^p||_inf, which they reach on transversal_spec
    assert a[0] == pytest.approx(np.abs(k).sum(1).max(), rel=1e-12)
    for p in (2, 3):
        dense = np.abs(np.linalg.matrix_power(k, p)).sum(1).max()
        assert a[p - 1] >= dense * (1.0 - 1e-12)
    inverse = np.abs(np.linalg.inv(np.eye(size) + k)).sum(1).max()
    for p in (1, 2, 3):
        if a[p - 1] < 1.0:
            assert (1.0 + sum(a[:p - 1])) / (1.0 - a[p - 1]) >= inverse


def test_power_norms_stop_after_an_overflow():
    spec = scaled_coupled_spec(1e200)
    grid = cf.Grid(nx=4, ny=4, nt=4)
    plan = cf.TransportPlan.build(spec, grid)
    a = list(fredholm._section_power_norms(plan))
    assert len(a) == 2 and math.isfinite(a[0]) and a[1] == math.inf


# 240 unknowns, so sqrt(n) = 15.5. a_2 = 0 certifies only if the bound
# drops its 1 + a_1 factor: 1 / 15.5 is above the threshold 0.031 that
# a_1 = 1e5 sets, and 1 / (15.5 (1 + 1e5)) is below it
@pytest.mark.parametrize("norms", ([math.nan], [math.inf], [1.5, math.nan],
                                   [1e5, 0.0, 0.0]),
                         ids=["nan", "inf", "finite-then-nan", "head"])
def test_declining_power_norms_take_the_dense_count(monkeypatch, norms):
    spec = coupled_spec()
    grid = cf.Grid(nx=4, ny=4, nt=4)
    counts = []
    count = fredholm._count_kernel

    def counted(s):
        counts.append(count(s))
        return counts[-1]

    monkeypatch.setattr(fredholm, "_section_power_norms",
                        lambda *args: iter(norms))
    monkeypatch.setattr(fredholm, "_count_kernel", counted)
    out = cf.solve_discrete(spec, cf.sample(EXPRS, grid))
    assert counts == [0] and out.kernel_dimension_estimate == 0


def test_structural_certificate_needs_no_columns(monkeypatch):
    # 3 * 13**3 = 6,591 unknowns
    spec = coupled_spec()
    grid = cf.Grid(nx=12, ny=13, nt=13)
    forbid_quadratic_steps(monkeypatch)
    out = cf.solve_discrete(spec, cf.sample(EXPRS, grid))
    assert out.kernel_dimension_estimate == 0


@pytest.mark.parametrize("make_spec", (transversal_spec, coupled_x4_spec))
def test_powers_of_k_certify_without_columns(monkeypatch, make_spec):
    # a_1 is 1 on transversal_spec and near 1.45 on coupled_x4_spec, so
    # p = 1 declines; a_2 near 0.5 certifies both at 6,591 unknowns
    grid = cf.Grid(nx=12, ny=13, nt=13)
    forbid_quadratic_steps(monkeypatch)
    out = cf.solve_discrete(make_spec(), cf.sample(EXPRS, grid))
    assert out.kernel_dimension_estimate == 0


# 4 and 7 nodes per axis; x has at least 5 (nx >= 4)
@pytest.mark.parametrize("nx,nyt", ((4, 4), (6, 7)))
@pytest.mark.parametrize("make_spec",
                         (coupled_spec, fused_spec, transversal_spec))
def test_kernel_estimate_matches_the_dense_count(make_spec, nx, nyt):
    spec = make_spec()
    grid = cf.Grid(nx=nx, ny=nyt, nt=nyt)
    f = cf.sample(EXPRS, grid)
    out = cf.solve_discrete(spec, f)
    assert out.kernel_dimension_estimate == \
        cf.kernel_dimension(cf.assemble_dense(spec, grid))


def crafted_kernel_spec():
    """coupled_spec with b scaled so that I + K has a kernel at 4 nodes.

    K is linear in b: scaling b by -1/lam, for a real eigenvalue lam of
    K, makes I + K singular.
    """
    spec = coupled_spec()
    grid = cf.Grid(nx=4, ny=4, nt=4)
    eig = np.linalg.eigvals(cf.assemble_dense(spec, grid) - np.eye(240))
    lam = eig[eig.imag == 0].real.max()
    scale = float(-1.0 / lam)
    b = [[e if is_literal_zero(e) else
          cf.parse(f"({scale!r})*({cf.pretty(e)})") for e in row]
         for row in spec.b]
    return identity_spec(alpha=spec.alpha, beta=spec.beta, gamma=spec.gamma,
                         b=tuple(tuple(row) for row in b))


def test_kernel_estimate_finds_a_crafted_kernel():
    # the certificate must decline on a singular section
    crafted = crafted_kernel_spec()
    grid = cf.Grid(nx=4, ny=4, nt=4)
    f = cf.sample(EXPRS, grid)
    out = cf.solve_discrete(crafted, f)
    assert out.kernel_dimension_estimate == 1
    assert cf.kernel_dimension(cf.assemble_dense(crafted, grid)) == 1


def coupled_x1e3_spec():
    """The x1e3 coupling of overflow_config: cond(I + K) near 7e5."""
    return scaled_coupled_spec(1000)


# 5 x nodes and 4 y and t nodes, then 5 and 6, then 7 of each
@pytest.mark.parametrize("nx,nyt", ((4, 4), (4, 5), (6, 7)))
@pytest.mark.parametrize("make_spec",
                         (coupled_spec, fused_spec, transversal_spec,
                          coupled_x4_spec, coupled_x30_spec,
                          coupled_x1e3_spec, mirrored_spec,
                          block_coupled_spec))
def test_reduced_kernel_count_equals_the_full_count(monkeypatch, make_spec,
                                                    nx, nyt):
    # with the certificate declined, the count comes from the section of
    # I + S; the x1e3 spec is the one where the singular values of I + S
    # itself would count a kernel that I + K does not have
    spec = make_spec()
    grid = cf.Grid(nx=nx, ny=nyt, nt=nyt)
    monkeypatch.setattr(fredholm, "_section_power_norms",
                        lambda *args: itertools.repeat(math.inf))
    rng = np.random.default_rng(nx + nyt)
    f = cf.GridFunction(grid, rng.standard_normal(
        (spec.n, nx + 1, nyt, nyt)))
    out = cf.solve_discrete(spec, f)
    assert out.kernel_dimension_estimate == \
        cf.kernel_dimension(cf.assemble_dense(spec, grid))


def test_reduced_kernel_count_finds_the_crafted_kernel(monkeypatch):
    spec = crafted_kernel_spec()
    grid = cf.Grid(nx=4, ny=4, nt=4)
    sizes = []
    count = fredholm._count_kernel

    def counted(s):
        sizes.append(s.shape)
        return count(s)

    monkeypatch.setattr(fredholm, "_count_kernel", counted)
    out = cf.solve_discrete(spec, cf.sample(EXPRS, grid))
    # one count, of the 80 singular values of the section of I + S, not
    # of the 240 of I + K
    assert sizes == [(80,)]
    assert out.kernel_dimension_estimate == 1 == \
        cf.kernel_dimension(cf.assemble_dense(spec, grid))


def test_reduced_kernel_count_holds_two_sections():
    # beside the caller's section and map: the Gram matrix, factored in
    # place into R, and (I + S) R^{-1}, which the SVD consumes. A copy of
    # either would add a third section-sized array
    rng = np.random.default_rng(6)
    size = 120
    mat = np.eye(size) + 0.1 * rng.standard_normal((size, size))
    others = rng.standard_normal((2 * size, size))
    mat[:, 0] = 0.0
    assert traced_peak(
        lambda: fredholm._reduced_kernel_dimension(mat, others)) \
        <= 2.25 * mat.nbytes
    assert fredholm._reduced_kernel_dimension(mat, others) == 1


# 4 to 7 nodes per axis; x has at least 5 (nx >= 4)
@pytest.mark.parametrize("nx,nyt", ((4, 4), (5, 6), (6, 7)))
@pytest.mark.parametrize("make_spec",
                         (coupled_spec, fused_spec, transversal_spec,
                          coupled_x4_spec, coupled_x30_spec, mirrored_spec,
                          block_coupled_spec))
def test_reduced_solve_matches_gelsy(make_spec, nx, nyt):
    spec = make_spec()
    grid = cf.Grid(nx=nx, ny=nyt, nt=nyt)
    rng = np.random.default_rng(nx + nyt)
    f = cf.GridFunction(grid, rng.standard_normal(
        (spec.n, nx + 1, nyt, nyt)))
    out = cf.solve_discrete(spec, f)
    assert out.stalled_residual is None and out.iterations > 0
    expect = gelsy(spec, f)
    assert np.abs(out.w.values - expect).max() <= \
        1e-10 * np.abs(expect).max()


@pytest.mark.parametrize("make_spec",
                         (block_coupled_spec, mirrored_spec, coupled_spec))
def test_reduction_pivots_on_the_smallest_group(monkeypatch, make_spec):
    # block_coupled_spec has groups of 2, 1 and 1 rows: the pivot is
    # group 2, the lowest-numbered of the smallest; GMRES then runs on
    # one row's nodes
    spec = make_spec()
    grid = cf.Grid(nx=4, ny=4, nt=4)
    plan = cf.TransportPlan.build(spec, grid)
    red = fredholm._Reduction.build(plan)
    pivot = red.order[2]
    assert pivot == (1 if spec.n == 4 else 0)
    # the Neumann sweeps start at group 1 and end at the group it reads
    swept = set()
    sweep = fredholm._Reduction.sweep

    def recorded(self, *args):
        swept.add(self.order)
        return sweep(self, *args)

    monkeypatch.setattr(fredholm._Reduction, "sweep", recorded)
    rng = np.random.default_rng(3)
    cf.solve_neumann(spec, cf.GridFunction(grid, rng.standard_normal(
        (spec.n, grid.nx + 1, grid.ny, grid.nt))))
    monkeypatch.undo()
    assert swept == {(0, 2, 1) if spec.orientation == cf.MIRRORED
                     else (0, 1, 2)}
    reads = dict(spec.coupling_pattern())
    # each sweep runs b, c, p: b reads p, c reads b and p reads c
    for b, c, p in (red.order, swept.pop()):
        assert reads[b] == p and reads[c] == b and reads[p] == c
    # (I + S) applied to v matches I + K eliminated through the dense
    # full section: for w = E v, (I + K) w is (I + S) v on group p, 0
    # elsewhere
    rng = np.random.default_rng(3)
    v = rng.standard_normal(grid.node_count)[None]
    zero = np.zeros((spec.n, grid.nx + 1, grid.ny, grid.nt))
    w = red.expand(zero, v[0])
    image = (cf.assemble_dense(spec, grid) @ w.reshape(-1)).reshape(
        w.shape)
    np.testing.assert_allclose(image[red.rows].reshape(-1),
                               red.apply(v)[0], rtol=0, atol=1e-13)
    others = np.ones(spec.n, dtype=bool)
    others[red.rows] = False
    assert np.abs(image[others]).max() <= 1e-13


def sideways_spec():
    """coupled_spec under an orientation that names no coupling pattern."""
    return replace(coupled_spec(), orientation="sideways")


@pytest.mark.parametrize("solve", (cf.solve_neumann, cf.solve_discrete,
                                   cf.apply_k))
@pytest.mark.parametrize("make_spec", (coupled_spec, mirrored_spec,
                                       sideways_spec))
def test_couplings_outside_the_cycle_are_refused(make_spec, solve):
    # group 1 may read only the feeding group; an entry from the third
    # group once left the Neumann sweeps at a residual of 0.2, with no
    # error, and GMRES's refinement absorbed it. An unknown orientation
    # once ran as forward, with feeding_group() 2
    spec = make_spec()
    if spec.orientation in (cf.FORWARD, cf.MIRRORED):
        b = [list(row) for row in spec.b]
        j = 3 - spec.feeding_group()
        b[0][j] = cf.parse("0.2")
        spec = replace(spec, b=tuple(map(tuple, b)))
        message = (f"b[1][{j + 1}] lies outside the {spec.orientation} "
                   f"coupling pattern")
    else:
        message = "unknown orientation 'sideways'"
    f = cf.sample(EXPRS, cf.Grid(nx=4, ny=4, nt=4))
    with pytest.raises(ValueError, match=re.escape(message)):
        solve(spec, f)


@pytest.mark.parametrize("stall", [False, True])
def test_discrete_couples_once_per_trial(tmp_path, monkeypatch, stall):
    # each _refine trial forms its u and full residual from one n-row
    # transport and one coupling product, and the solve's tail reuses
    # them: past the certificate's one product of |M|, on the unit
    # fields, there is no other. The stall runs three GMRES trials, then
    # the LU trials on the dense section
    if stall:
        cfg = overflow_config(tmp_path)
        spec, f = cfg.spec, cf.sample(cfg.rhs, cfg.grid)
    else:
        spec = coupled_spec()
        f = cf.sample(EXPRS, cf.Grid(nx=6, ny=6, nt=6))
    trials = counted_calls(monkeypatch, fredholm._Reduction, "expand")
    transports = counted_calls(monkeypatch, fredholm, "solve_transport_stack")
    products = counted_calls(monkeypatch, fredholm, "apply_coupling_stack")
    out = cf.solve_discrete(spec, f)
    assert (out.stalled_residual is not None) is stall
    assert len(trials) > (3 if stall else 0)
    assert [a[1].shape[:2] for a in products] == \
        [(spec.n, spec.n)] + [(1, spec.n)] * len(trials)
    assert [a[1].shape[:2] for a in transports] == [(1, spec.n)] * len(trials)


def test_discrete_zero_rhs_gives_zero(monkeypatch):
    # no GMRES and no division by |f| = 0
    def no_gmres(*args):
        raise AssertionError("GMRES ran on f = 0")

    monkeypatch.setattr(fredholm, "_gmres", no_gmres)
    grid = cf.Grid(nx=4, ny=4, nt=4)
    with np.errstate(all="raise"):
        out = cf.solve_discrete(coupled_spec(), cf.zeros(grid, 3))
    assert not out.w.values.any() and out.residual_sup == 0.0
    assert not out.u.values.any()
    assert out.iterations == 0 and out.refinements == 0


def test_neumann_steps_are_one_group_blocks(monkeypatch):
    # each group step multiplies only the coupling entries into its group,
    # and K is never applied to a whole field
    spec = coupled_spec()
    grid = cf.Grid(nx=6, ny=6, nt=6)
    f = cf.sample(EXPRS, grid)

    def no_apply_k(*args):
        raise AssertionError("apply_k ran inside the sweep")

    expect = cf.solve_neumann(spec, f)
    monkeypatch.setattr(fredholm, "apply_k", no_apply_k)
    out = cf.solve_neumann(spec, f)
    np.testing.assert_array_equal(out.u.values, expect.u.values)
    # one group block matches apply_k's group rows bit for bit
    plan = cf.TransportPlan.build(spec, grid)
    for g, h in spec.coupling_pattern():
        held = np.zeros_like(f.values)
        held[h] = f.values[h]
        whole = cf.apply_k(spec, cf.GridFunction(grid, held), plan)
        block = fredholm._group_block(plan, g, h, f.values[None, h:h + 1])
        np.testing.assert_array_equal(block[0], whole.values[g:g + 1])


def test_kernel_estimate_holds_no_dense_section(monkeypatch):
    spec = coupled_spec()
    grid = cf.Grid(nx=8, ny=9, nt=9)
    size = 3 * 9 * 9 * 9
    f = cf.sample(EXPRS, grid)

    def no_dense(*args, **kwargs):
        raise AssertionError("dense section built for the kernel estimate")

    monkeypatch.setattr(fredholm, "assemble_dense", no_dense)
    monkeypatch.setattr(fredholm, "kernel_dimension", no_dense)
    monkeypatch.setattr(fredholm, "_count_kernel", no_dense)
    tracemalloc.start()
    try:
        out = cf.solve_discrete(spec, f, kernel_estimate=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.kernel_dimension_estimate == 0
    # the dense section would take size**2 doubles, 38 MB
    assert peak < size * size * 8


def well_conditioned(seed, size=40):
    """A seeded I + E with |E|_2 about 0.4, and a right-hand side."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((size, size)) * (0.2 / math.sqrt(size))
    return np.eye(size) + e, rng.standard_normal(size)


def counted_matvec(a):
    """x -> a x on (1, size) rows, and the list that counts its calls."""
    calls = []

    def matvec(x):
        calls.append(1)
        return x @ a.T

    return matvec, calls


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("restart", (fredholm.GMRES_RESTART, 3),
                         ids=("one-cycle", "restarted"))
def test_gmres_matches_a_direct_solve(monkeypatch, seed, restart):
    monkeypatch.setattr(fredholm, "GMRES_RESTART", restart)
    a, rhs = well_conditioned(seed)
    matvec, calls = counted_matvec(a)
    krylov = fredholm._gmres(matvec, rhs)
    x, iterations, converged = krylov
    assert converged and iterations == len(krylov.estimates)
    expect = np.linalg.solve(a, rhs)
    assert np.linalg.norm(x - expect) <= 1e-10 * np.linalg.norm(expect)
    # one matvec per iteration, and one true residual per restart
    cycles = -(-iterations // restart)
    assert (cycles > 1) == (restart == 3)
    assert len(calls) == iterations + cycles - 1
    assert krylov.estimates[-1] <= GMRES_RTOL
    # the Givens estimates never increase within a cycle
    for start in range(0, iterations, restart):
        cycle = krylov.estimates[start:start + restart]
        assert all(later <= earlier
                   for earlier, later in zip(cycle, cycle[1:]))


def test_gmres_on_a_zero_rhs_runs_no_matvec():
    matvec, calls = counted_matvec(np.eye(4))
    x, iterations, converged = fredholm._gmres(matvec, np.zeros(4))
    assert not x.any() and iterations == 0 and converged and calls == []


def test_gmres_stagnates_on_a_cyclic_shift(monkeypatch):
    # the shift maps the Krylov space of e_1 past e_1, so no restarted
    # cycle of 3 vectors lowers the residual below |e_1|
    monkeypatch.setattr(fredholm, "GMRES_RESTART", 3)
    size = 40
    matvec, calls = counted_matvec(np.roll(np.eye(size), 1, axis=0))
    krylov = fredholm._gmres(matvec, np.eye(size)[0])
    x, iterations, converged = krylov
    assert not converged and iterations == GMRES_MAX_ITER
    assert not x.any() and krylov.estimates == [1.0] * GMRES_MAX_ITER
    # no true residual after the last cycle
    assert len(calls) == GMRES_MAX_ITER + GMRES_MAX_ITER // 3


def counting_gmres(monkeypatch):
    """The iteration count and convergence _gmres reports, one pair
    per call."""
    counts = []
    gmres = fredholm._gmres

    def counted(matvec, rhs, rtol):
        sol, iterations, converged = gmres(matvec, rhs, rtol)
        counts.append((iterations, converged))
        return sol, iterations, converged

    monkeypatch.setattr(fredholm, "_gmres", counted)
    return counts


def test_gmres_stall_falls_back_to_the_dense_section(tmp_path, monkeypatch):
    # condition number 7.3e5 for I + K and 1.5e8 for I + S: refinement
    # stops short of GMRES_RTOL on the full residual
    cfg = overflow_config(tmp_path)
    f = cf.sample(cfg.rhs, cfg.grid)
    counts = counting_gmres(monkeypatch)
    factored, _, gelsy_calls = recording_dense_solves(monkeypatch)
    out = cf.solve_discrete(cfg.spec, f, kernel_estimate=False)
    # GMRES converges on I + S in 33 iterations and on the two
    # refinement steps in 32 each; the second step does not lower the
    # full relative residual, which stays above GMRES_RTOL
    assert counts == [(33, True), (32, True), (32, True)]
    assert out.iterations == 97
    assert f"{out.stalled_residual:.3e}" == "1.586e-13"
    assert out.kernel_dimension_estimate is None
    # no count, so no LU: one gelsy call on the 80-row section of I + S
    # for each of the two kept steps and the one dropped for not lowering
    # the residual
    assert factored == [] and gelsy_calls == [(80, 80)] * 3
    assert out.refinements == 1
    np.testing.assert_array_equal(out.w.values,
                                  reduced_direct(cfg.spec, f, gelsy_solver))
    expect = gelsy(cfg.spec, f)
    assert np.abs(out.w.values - expect).max() <= \
        1e-10 * np.abs(expect).max()
    assert out.residual_sup < 1e-9 * cf.sup_norm(f)


def test_counted_stall_factors_the_section_once(tmp_path, monkeypatch):
    # the stall above with the kernel count on: the count is 0, so I + S
    # is invertible and one LU factorisation serves every step
    cfg = overflow_config(tmp_path)
    f = cf.sample(cfg.rhs, cfg.grid)
    counts = counting_gmres(monkeypatch)
    factored, lu_solves, gelsy_calls = recording_dense_solves(monkeypatch)
    sections, factors = recording_factors(monkeypatch)
    out = cf.solve_discrete(cfg.spec, f)
    assert counts == [(33, True), (32, True), (32, True)]
    assert out.iterations == 97
    assert f"{out.stalled_residual:.3e}" == "1.586e-13"
    assert out.kernel_dimension_estimate == 0
    # one factorisation, made in place in the assembled section; two
    # steps are kept and a third is dropped for not lowering the
    # residual
    assert factored == [(80, 80)] and gelsy_calls == []
    assert len(sections) == len(factors) == 1
    assert np.shares_memory(factors[0][0], sections[0])
    assert out.refinements == 1 and len(lu_solves) == 3
    np.testing.assert_array_equal(out.w.values,
                                  reduced_direct(cfg.spec, f, lu_solver))
    expect = gelsy(cfg.spec, f)
    assert np.abs(out.w.values - expect).max() <= \
        1e-10 * np.abs(expect).max()
    assert out.residual_sup < 1e-9 * cf.sup_norm(f)


def test_gmres_that_never_converges_falls_back_to_the_dense_section(
        tmp_path, monkeypatch):
    # at nx = 4, ny = nt = 5 GMRES on I + S runs out of iterations with
    # a full relative residual near 1e3, worse than w = 0; gelsy on the
    # full section of I + K left a residual_sup of 2.25e-11 here
    cfg = overflow_config(tmp_path, ny=5)
    f = cf.sample(cfg.rhs, cfg.grid)
    counts = counting_gmres(monkeypatch)
    factored, _, gelsy_calls = recording_dense_solves(monkeypatch)
    sections, factors = recording_factors(monkeypatch)
    out = cf.solve_discrete(cfg.spec, f)
    assert counts == [(GMRES_MAX_ITER, False)]
    assert out.iterations == GMRES_MAX_ITER
    assert out.stalled_residual == 1.0
    assert out.kernel_dimension_estimate == 0
    # LU on the 125-row section of I + S, factored once and in place
    assert factored == [(125, 125)] and gelsy_calls == []
    assert len(sections) == len(factors) == 1
    assert np.shares_memory(factors[0][0], sections[0])
    assert out.residual_sup <= 2.2e-11 * cf.sup_norm(f)
    np.testing.assert_array_equal(out.w.values,
                                  reduced_direct(cfg.spec, f, lu_solver))


def test_unconverged_gmres_without_a_count_falls_back_to_gelsy(
        tmp_path, monkeypatch):
    # the copy above with no kernel count: GMRES on I + S ends
    # unconverged after all its restart cycles, so gelsy solves the
    # section of I + S, two steps kept and a third dropped for not
    # lowering the residual
    cfg = overflow_config(tmp_path, ny=5)
    f = cf.sample(cfg.rhs, cfg.grid)
    counts = counting_gmres(monkeypatch)
    factored, _, gelsy_calls = recording_dense_solves(monkeypatch)
    out = cf.solve_discrete(cfg.spec, f, kernel_estimate=False)
    assert counts == [(GMRES_MAX_ITER, False)]
    assert out.iterations == GMRES_MAX_ITER
    assert out.stalled_residual == 1.0
    assert out.kernel_dimension_estimate is None
    assert factored == [] and gelsy_calls == [(125, 125)] * 3
    assert out.refinements == 1
    np.testing.assert_array_equal(out.w.values,
                                  reduced_direct(cfg.spec, f, gelsy_solver))
    assert out.residual_sup <= 2.2e-11 * cf.sup_norm(f)


def never_converging_gmres(matvec, rhs, rtol):
    return np.zeros_like(rhs), GMRES_MAX_ITER, False


# 4 to 7 nodes per axis; x has at least 5 (nx >= 4)
@pytest.mark.parametrize("nx,nyt", ((4, 4), (5, 6), (6, 7)))
@pytest.mark.parametrize("make_spec",
                         (coupled_spec, fused_spec, transversal_spec,
                          coupled_x4_spec, coupled_x30_spec, mirrored_spec,
                          block_coupled_spec))
def test_forced_stall_is_solved_by_lu(monkeypatch, make_spec, nx, nyt):
    # every count here is 0: a GMRES that returns 0 unconverged leaves
    # the whole solve to one LU factorisation of the section of I + S
    spec = make_spec()
    grid = cf.Grid(nx=nx, ny=nyt, nt=nyt)
    rng = np.random.default_rng(nx + nyt)
    f = cf.GridFunction(grid, rng.standard_normal(
        (spec.n, nx + 1, nyt, nyt)))
    monkeypatch.setattr(fredholm, "_gmres", never_converging_gmres)
    factored, _, gelsy_calls = recording_dense_solves(monkeypatch)
    out = cf.solve_discrete(spec, f)
    assert out.kernel_dimension_estimate == 0
    assert out.iterations == GMRES_MAX_ITER
    assert out.stalled_residual is not None
    # the section has the nodes of the smallest row group
    size = min(sl.stop - sl.start for sl, _ in spec.blocks()) * \
        grid.node_count
    assert factored == [(size, size)] and gelsy_calls == []
    expect = gelsy(spec, f)
    assert np.abs(out.w.values - expect).max() <= \
        1e-10 * np.abs(expect).max()
    assert out.residual_sup <= 1e-9 * cf.sup_norm(f)


@pytest.mark.parametrize("kernel_estimate", (True, False),
                         ids=("lu", "gelsy"))
def test_non_finite_section_raises(monkeypatch, kernel_estimate):
    # a stall sends the solve to the dense section; a NaN in it is
    # rejected by the solver's finiteness check, not solved around
    spec = coupled_spec()
    grid = cf.Grid(nx=4, ny=4, nt=4)
    section = fredholm._Reduction.section

    def poisoned(self, with_map=False):
        mat = section(self, with_map)
        mat[0, 0] = math.nan
        return mat

    monkeypatch.setattr(fredholm, "_gmres", never_converging_gmres)
    monkeypatch.setattr(fredholm._Reduction, "section", poisoned)
    with pytest.raises(ValueError, match="infs or NaNs"):
        cf.solve_discrete(spec, cf.sample(EXPRS, grid), kernel_estimate)


def test_discrete_above_the_cap_stays_matrix_free(monkeypatch):
    spec = coupled_spec()
    grid = cf.Grid(nx=30, ny=16, nt=16)
    size = 3 * 31 * 16 * 16
    assert size > DISCRETE_UNKNOWN_CAP
    f = cf.sample(EXPRS, grid)

    def no_dense(*args, **kwargs):
        raise AssertionError("dense section assembled above the cap")

    monkeypatch.setattr(fredholm, "assemble_dense", no_dense)
    tracemalloc.start()
    try:
        out = cf.solve_discrete(spec, f, kernel_estimate=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense section would take size**2 doubles, 4.5 GB
    assert peak < 200 * size * 8
    assert out.kernel_dimension_estimate is None
    assert 0 < out.iterations < GMRES_MAX_ITER
    assert out.residual_sup < 1e-10 * cf.sup_norm(f)


def test_gmres_stall_above_the_cap_is_a_nonconvergence(monkeypatch):
    # f lies in group 1, the pivot: a GMRES that returns 0 unconverged
    # back-substitutes to w = 0, whose relative residual is exactly 1
    spec = coupled_spec()
    grid = cf.Grid(nx=30, ny=16, nt=16)
    values = np.zeros((3, 31, 16, 16))
    values[0] = 1.0
    f = cf.GridFunction(grid, values)
    monkeypatch.setattr(fredholm, "_gmres", never_converging_gmres)
    with pytest.raises(cf.NonConvergence) as err:
        cf.solve_discrete(spec, f, kernel_estimate=False)
    assert err.value.iterations == GMRES_MAX_ITER
    assert err.value.last_diff == 1.0


def test_discrete_kernel_estimate_can_be_skipped():
    spec = coupled_spec()
    grid = cf.Grid(nx=4, ny=4, nt=4)
    f = cf.sample(EXPRS, grid)
    out = cf.solve_discrete(spec, f, kernel_estimate=False)
    assert out.kernel_dimension_estimate is None


def test_outcome_json_dict_is_timing_free():
    spec = coupled_spec()
    grid = cf.Grid(nx=6, ny=6, nt=6)
    f = cf.sample(EXPRS, grid)
    out = cf.solve_neumann(spec, f)
    d = out.to_json_dict()
    assert "timing_seconds" not in d
    assert d["method"] == "neumann"
    assert set(d) == {"method", "iterations", "residual_sup",
                      "kernel_dimension_estimate", "refinements",
                      "stalled_residual", "solution_sup_norm",
                      "solution_sum_sup_norm"}
    assert d["refinements"] == 0 and d["stalled_residual"] is None


def test_fused_cube_matches_grid_composition():
    spec = coupled_spec()
    grid = cf.Grid(nx=16, ny=17, nt=17)
    f = cf.sample(EXPRS, grid)
    rng = np.random.default_rng(7)
    probes = np.column_stack([rng.uniform(0.05, 0.95, 20),
                              rng.uniform(0, 1, 20),
                              rng.uniform(0, 1, 20)])
    fused = cf.apply_k_cubed_fused(spec, f, probes)
    k3 = cf.apply_k_power(spec, f, 3)
    composed = cf.interpolate_many(k3, probes[:, 0], probes[:, 1],
                                   probes[:, 2])
    scale = np.abs(fused).max()
    assert scale > 0
    assert np.abs(fused - composed).max() / scale < 0.15


def test_fused_cube_rejects_bad_probes():
    spec = coupled_spec()
    grid = cf.Grid(nx=4, ny=4, nt=4)
    f = cf.zeros(grid, 3)
    with pytest.raises(ValueError):
        cf.apply_k_cubed_fused(spec, f, np.zeros((2, 2)))
    # the first bad value is named, NaN included
    cases = {"probe x = 1.5 outside": (1.5, 0.0, 0.0),
             "probe x = nan outside": (math.nan, 0.0, 0.0),
             "probe y = nan is not finite": (0.5, math.nan, 0.0),
             "probe t = -inf is not finite": (0.5, 0.25, -math.inf)}
    for message, bad in cases.items():
        probes = np.array([[0.5, 0.5, 0.5], bad, (0.25, 0.0, math.inf)])
        with pytest.raises(GridDomainError, match=re.escape(message)):
            cf.apply_k_cubed_fused(spec, f, probes)


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fused_cube_memory_is_bounded_by_the_block():
    # a block of FUSED_BLOCK probes reads its innermost level in passes of
    # FUSED_PASS_NODES line nodes; eight blocks reuse one block's memory
    spec = fused_spec()
    grid = cf.Grid(nx=4, ny=5, nt=5)
    f = cf.sample(EXPRS, grid)
    rng = np.random.default_rng(3)
    block = fredholm.FUSED_BLOCK
    lines = (characteristics.FUSED_PANELS * characteristics.FUSED_NODES) ** 3
    assert block * lines > characteristics.FUSED_PASS_NODES
    probes = np.column_stack([rng.uniform(0.0, 1.0, 8 * block),
                              rng.uniform(0.0, 1.0, 8 * block),
                              rng.uniform(0.0, 1.0, 8 * block)])
    one = traced_peak(lambda: cf.apply_k_cubed_fused(spec, f, probes[:block]))
    eight = traced_peak(lambda: cf.apply_k_cubed_fused(spec, f, probes))
    assert eight <= 1.5 * one


def test_one_fused_block_stays_under_the_trim_threshold():
    # probe-fused's 33-node grid. glibc hands a block's freed working set
    # back to the OS once it passes the trim threshold, and the next
    # block faults it in again. The call builds no plan; it holds the
    # padded values of each component it reads (0.9 MiB) throughout.
    # With them, blocks of 16 probes in passes of 8,192 line nodes peak at
    # 2.2 MiB at 16, 100 or 1,000 probes and take about 500 minor faults
    # per 100 probes; passes of 16,384 nodes peak at 3.3 MiB and take
    # about 11k
    spec = fused_spec()
    f = cf.sample(EXPRS, cf.Grid(nx=32, ny=33, nt=33))
    for count in (fredholm.FUSED_BLOCK, 100):
        probes = np.random.default_rng(4).uniform(0.0, 1.0, (count, 3))
        peak = traced_peak(lambda: cf.apply_k_cubed_fused(spec, f, probes))
        assert peak <= 2.4 * 2 ** 20, count


def test_fused_results_do_not_depend_on_the_pass_split(monkeypatch):
    # passes of three points: the top level of a 5-probe call splits 3 + 2,
    # and each level below it splits 48 or 32 points, 3 at a time
    spec = fused_spec()
    grid = cf.Grid(nx=4, ny=5, nt=5)
    f = cf.sample(EXPRS, grid)
    probes = np.random.default_rng(7).uniform(0.0, 1.0, (5, 3))
    fused = cf.apply_k_cubed_fused(spec, f, probes)
    closed = cf.solve_transport(spec, f, rhs_exprs=EXPRS).values
    sizes = []
    one_pass = characteristics._transport_pass

    def recorded(plan, inner, X, *args):
        sizes.append(X.size)
        return one_pass(plan, inner, X, *args)

    monkeypatch.setattr(characteristics, "_transport_pass", recorded)
    monkeypatch.setattr(characteristics, "FUSED_PASS_NODES",
                        3 * characteristics.FUSED_PANELS
                        * characteristics.FUSED_NODES)
    split = cf.apply_k_cubed_fused(spec, f, probes)
    assert set(sizes) == {2, 3}
    assert np.abs(split - fused).max() <= 1e-15 * np.abs(fused).max()
    sizes.clear()
    split = cf.solve_transport(spec, f, rhs_exprs=EXPRS).values
    assert sizes == [3] * 41 + [2]
    assert np.abs(split - closed).max() <= 1e-15 * np.abs(closed).max()


def test_fused_route_reads_a_gamma_whose_grid_factor_is_refused():
    # 800 cos(2 pi y) integrated along row 3's lines (beta = 0.5) spans
    # more than GAMMA_SPREAD_LIMIT over the grid, so the plan's grid
    # operators refuse the spec at the first grid transport. The fused
    # route builds no integrating factor: its weights e^{int_X^xi gamma}
    # run along one line each, and there |int gamma| <= 1600 / pi, so they
    # stay finite and the route answers
    spec = fused_spec()
    spec = replace(spec, gamma=spec.gamma[:2]
                   + (cf.parse("800*cos(2*pi*y)"),))
    grid = cf.Grid(nx=4, ny=5, nt=5)
    f = cf.sample(EXPRS, grid)
    plan = characteristics.TransportPlan.build(spec, grid)
    with pytest.raises(ValueError, match=r"^gamma\[3\]: its integral along "
                                         r"the lines, less its constant "
                                         r"part, spans "):
        cf.solve_transport(spec, f, plan)
    probes = np.random.default_rng(5).uniform(0.0, 1.0, (4, 3))
    got = cf.apply_k_cubed_fused(spec, f, probes)
    assert got.shape == (3, 4)
    assert np.isfinite(got).all() and np.abs(got).max() > 0.0


def test_fused_route_refuses_a_gamma_whose_line_weight_overflows():
    # 800 + 0.1 cos(2 pi y) on backward row 3 integrates to about 800
    # from a probe near x = 0 to the inflow face, so e^{int gamma} would
    # overflow: the route raises, naming the gamma, where it once
    # answered NaN with overflow warnings. The spec itself passes
    # TransportPlan.build, which refuses constant gammas alone; a varying
    # one is refused only when the grid operators are built
    spec = fused_spec()
    spec = replace(spec, gamma=spec.gamma[:2]
                   + (cf.parse("800 + 0.1*cos(2*pi*y)"),))
    grid = cf.Grid(nx=4, ny=5, nt=5)
    characteristics.TransportPlan.build(spec, grid)
    f = cf.sample(EXPRS, grid)
    probes = np.random.default_rng(5).uniform(0.0, 1.0, (4, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^gamma\[3\]: its integral "
                                             r"along the lines reaches "
                                             r"7\d\d\.\d at a panel node, "
                                             r"more than the 709\.78 within "
                                             r"which e\^Gamma stays finite$"):
            cf.apply_k_cubed_fused(spec, f, probes)
    # 700 + 0.1 cos(2 pi y) integrates to at most 700.1: every weight
    # stays finite, and so does the answer
    spec = replace(spec, gamma=spec.gamma[:2]
                   + (cf.parse("700 + 0.1*cos(2*pi*y)"),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cf.apply_k_cubed_fused(spec, f, probes)
    assert np.isfinite(got).all() and np.abs(got).max() > 1e290


def oracle_gl_panels(x0, X, glx, glw, panels):
    """Gauss nodes and signed weights for int from x0 to X, per point,
    one panel at a time from its midpoint and half-length (the loop that
    the broadcast of the rule on [0, 1] replaced)."""
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


@pytest.mark.parametrize("x0", (0.0, 1.0))
def test_gl_panels_match_the_per_panel_loop(x0):
    glx, glw = np.polynomial.legendre.leggauss(characteristics.FUSED_NODES)
    rule = characteristics._fused_rule()
    # formed once, and read-only, so no caller can change it for another
    assert rule is characteristics._fused_rule()
    assert not any(a.flags.writeable for a in rule)
    tau, omega, _, _ = rule
    X = np.random.default_rng(7).uniform(0.0, 1.0, (2, 6))
    # both faces, and a line of length 0
    X[0, :3] = (0.0, 1.0, x0)
    xi, wts = characteristics._gl_panels(x0, X, tau, omega)
    want_xi, want_wts = oracle_gl_panels(x0, X, glx, glw,
                                         characteristics.FUSED_PANELS)
    assert xi.shape == wts.shape == want_xi.shape
    # in ulps of the line's larger end: a node close to the other end
    # keeps only the low bits that cancellation leaves it, in either form
    ulp = np.spacing(np.maximum(abs(x0), np.abs(X)))
    assert np.all(np.abs(xi - want_xi) <= 4 * ulp)
    np.testing.assert_array_max_ulp(wts, want_wts, maxulp=4)
    assert np.all(xi[:, 0, 2] == x0) and np.all(wts[:, 0, 2] == 0.0)
    np.testing.assert_allclose(wts.sum(axis=0), X - x0, rtol=0, atol=1e-15)


def test_integration_matrix_is_exact_on_the_interpolating_degrees():
    glx, glw = np.polynomial.legendre.leggauss(characteristics.FUSED_NODES)
    S = characteristics._gl_integration_matrix(glx, glw)
    np.testing.assert_allclose(S @ np.ones_like(glx), glx + 1.0,
                               rtol=0, atol=1e-13)
    for degree in range(characteristics.FUSED_NODES):
        exact = (glx ** (degree + 1) - (-1.0) ** (degree + 1)) / (degree + 1)
        np.testing.assert_allclose(S @ glx ** degree, exact, rtol=0,
                                   atol=1e-13)


def oracle_gamma_integrals(gam, X, Y, T, beta, alpha, xi, glx, glw):
    """int_X^xi gamma along the line by a fresh Gauss rule on [X, xi] per
    node, reading gamma at glx.size points per node (the rule the
    integration matrix replaced)."""
    d = xi - X[None]
    half = d / 2.0
    mid = X[None] + half
    s = mid[None] + half[None] * glx.reshape((glx.size,) + (1,) * d.ndim)
    ds = s - X[None, None]
    gv = cf.evaluate_on(gam, s, Y[None, None] + beta * ds,
                        T[None, None] + alpha * ds)
    return half * np.einsum("q,q...->...", glw, gv)


def gamma_integral_pairs(gam, alpha, beta):
    """(beta, alpha, L, new rule, oracle) per row of a spec with gamma on
    all three rows: rows 0 and 1 flow in at x = 0, row 2 at x = 1. L is
    |X - x0|, the longest line from a point to its nodes."""
    spec = identity_spec(alpha=alpha, beta=beta, gamma=(gam, gam, gam))
    plan = characteristics.TransportPlan.build(spec, cf.Grid(nx=4, ny=5,
                                                             nt=5))
    tau, omega, glw, S = characteristics._fused_rule()
    glx, _ = np.polynomial.legendre.leggauss(characteristics.FUSED_NODES)
    X, Y, T = np.random.default_rng(5).uniform(0.0, 1.0, (3, 2, 6))
    X[0, :2] = (0.0, 1.0)
    for forward, beta, alpha, row_gam, c in plan.rows:
        assert row_gam is gam and c is None
        x0 = 0.0 if forward else 1.0
        xi, _ = characteristics._gl_panels(x0, X, tau, omega)
        d = xi - X[None]
        got = characteristics._gamma_integrals(
            gam, x0, X, xi, Y[None] + beta * d, T[None] + alpha * d, glw, S)
        want = oracle_gamma_integrals(gam, X, Y, T, beta, alpha, xi, glx,
                                      glw)
        yield beta, alpha, np.abs(X - x0), got, want


def test_gamma_integrals_match_the_per_node_rule_on_criterion_3():
    # criterion 3's variable gamma, on its row's line in both directions
    pairs = gamma_integral_pairs(cf.parse("0.1*cos(2*pi*y)"),
                                 alpha=(-1.0,) * 3, beta=(0.5,) * 3)
    for _, _, _, got, want in pairs:
        # the transport weights exp(G) agree to 1e-10 relative
        assert np.abs(np.expm1(got - want)).max() <= 1e-10


# gamma = amplitude * (cos or sin)(2 pi (a x + b y + c t)) + constant:
# (text, amplitude, (a, b, c))
LINE_GAMMAS = (("2*cos(2*pi*(y - 2*t))", 2.0, (0.0, 1.0, -2.0)),
               ("0.5*sin(2*pi*(x + t)) - 0.2", 0.5, (1.0, 0.0, 1.0)),
               ("0.3*cos(2*pi*(x + y - t))", 0.3, (1.0, 1.0, -1.0)))


@pytest.mark.parametrize("text, amplitude, freq", LINE_GAMMAS)
def test_gamma_integrals_match_the_per_node_rule_within_its_error(
        text, amplitude, freq):
    q, panels = characteristics.FUSED_NODES, characteristics.FUSED_PANELS
    pairs = gamma_integral_pairs(cf.parse(text), alpha=(0.5, 1.0, -1.0),
                                 beta=(1.0, -1.0, 0.5))
    for beta, alpha, L, got, want in pairs:
        # along the line gamma's derivatives of order m are at most
        # amplitude (2 pi k)^m. The new rule integrates each panel's
        # degree q - 1 Gauss interpolant exactly, off gamma by at most
        # amplitude (4 pi k h)^q q! / (2q)! on a panel of half-length h,
        # over a line no longer than L. The old rule is q-point Gauss on
        # [X, xi], with the classical remainder
        k = abs(freq[0] + freq[1] * beta + freq[2] * alpha)
        h = L / (2 * panels)
        new = L * amplitude * (4 * np.pi * k * h) ** q * math.factorial(q) \
            / math.factorial(2 * q)
        old = L ** (2 * q + 1) * math.factorial(q) ** 4 \
            / ((2 * q + 1) * math.factorial(2 * q) ** 3) \
            * amplitude * (2 * np.pi * k) ** (2 * q)
        tol = new + old + 1e-13 * amplitude
        assert (np.abs(got - want) <= tol[None]).all()


def test_fused_reads_gamma_once_per_panel_node(monkeypatch):
    spec = fused_spec()
    f = cf.sample(EXPRS, cf.Grid(nx=4, ny=5, nt=5))
    probes = np.random.default_rng(3).uniform(0.0, 1.0, (10, 3))
    varying = [g for g in spec.gamma if constant_value(g) is None]
    real = fredholm.evaluate_on
    points = {"gamma": 0, "coupling": 0}

    def counting(e, x, y, t):
        out = real(e, x, y, t)
        points["gamma" if any(e is g for g in varying) else "coupling"] \
            += out.size
        return out

    # gamma is read in characteristics, the couplings in fredholm
    monkeypatch.setattr(characteristics, "evaluate_on", counting)
    monkeypatch.setattr(fredholm, "evaluate_on", counting)
    cf.apply_k_cubed_fused(spec, f, probes)
    # row 3 alone has a variable gamma, and the cyclic coupling
    # integrates it once per level: along p, p n and p n^2 lines. The
    # route builds no plan, so no integrating factor reads it at the nodes
    n = characteristics.FUSED_PANELS * characteristics.FUSED_NODES
    lines = len(probes) * (1 + n + n * n)
    assert len(varying) == 1
    assert points["gamma"] <= n * lines
    # a fresh FUSED_NODES-point rule per panel node read gamma
    # FUSED_NODES times as often
    per_node_rule = (characteristics.FUSED_NODES * n * lines
                     + points["coupling"])
    assert 5 * (points["gamma"] + points["coupling"]) <= per_node_rule

def test_kernel_dimension_thresholds():
    assert cf.kernel_dimension(np.diag([1.0, 0.5, 0.0])) == 1
    assert cf.kernel_dimension(np.zeros((3, 3))) == 3
    assert cf.kernel_dimension(np.eye(4)) == 0


def test_finite_section_kernel_check_cases():
    # diagonal fixed point: one kernel vector at every power
    assert cf.finite_section_kernel_check(np.diag([1.0, 0.5]), 2) == (1, 1)
    # permutation cycle: ones vector is fixed, and M^3 is exactly I,
    # so the power section is the zero matrix with full kernel
    perm = np.zeros((3, 3))
    perm[np.arange(3), (np.arange(3) + 1) % 3] = 1.0
    assert cf.finite_section_kernel_check(perm, 3) == (1, 3)
    # float rotation by 2 pi / 3: M^3 - I is tiny but not exactly zero,
    # and the threshold is relative to that matrix's own largest
    # singular value, so nothing is counted; the inequality still holds
    theta = 2 * np.pi / 3
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    d1, dp = cf.finite_section_kernel_check(rot, 3)
    assert d1 == 0 and d1 <= dp
    # Jordan block at 1: geometric multiplicity stays 1
    jord = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert cf.finite_section_kernel_check(jord, 4) == (1, 1)


def test_finite_section_kernel_check_validation():
    with pytest.raises(ValueError):
        cf.finite_section_kernel_check(np.zeros((2, 3)), 2)
    with pytest.raises(ValueError):
        cf.finite_section_kernel_check(np.eye(2), 1)


def test_power_factorization_identity():
    # I - M^p = (I + M + ... + M^(p-1)) (I - M), the inequality's source
    rng = np.random.default_rng(21)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        m = rng.standard_normal((d, d))
        p = int(rng.integers(2, 5))
        lhs = np.eye(d) - np.linalg.matrix_power(m, p)
        geo = sum(np.linalg.matrix_power(m, i) for i in range(p))
        rhs = geo @ (np.eye(d) - m)
        scale = max(1.0, np.abs(lhs).max())
        assert np.abs(lhs - rhs).max() / scale < 1e-12
