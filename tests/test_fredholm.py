import itertools
import json
import math
import re
import tracemalloc
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
                      identity_spec)

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
    spec = coupled_spec()
    grid = cf.Grid(nx=6, ny=6, nt=6)
    f = cf.sample(EXPRS, grid)
    twice = cf.apply_k(spec, cf.apply_k(spec, f))
    np.testing.assert_allclose(cf.apply_k_power(spec, f, 2).values,
                               twice.values, atol=1e-15)
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
    # one transport solve inside each of a sweep's three K applications,
    # and one for u = C^{-1} w, whose coupling also gives the residual
    spec = coupled_spec()
    grid = cf.Grid(nx=6, ny=6, nt=6)
    f = cf.sample(EXPRS, grid)
    stack = characteristics.solve_transport_stack
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2].shape[0])
        return stack(*args, **kwargs)

    monkeypatch.setattr(characteristics, "solve_transport_stack", counting)
    out = cf.solve_neumann(spec, f)
    assert out.iterations > 1
    assert calls == [1] * (3 * out.iterations + 1)


@pytest.mark.parametrize("name, per_row", [("constant_value", 1),
                                           ("_shift_multipliers", 2)])
def test_plan_decides_each_row_once(monkeypatch, name, per_row):
    # gamma is classified and a constant-gamma row's spectral multipliers
    # (one y and one t factor) are built once, when the plan is; every
    # gamma of coupled_spec is a constant
    spec = coupled_spec()
    grid = cf.Grid(nx=6, ny=6, nt=6)
    f = cf.sample(EXPRS, grid)
    inner = getattr(characteristics, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(characteristics, name, counting)
    out = cf.solve_neumann(spec, f)
    assert out.iterations > 1
    assert len(calls) == per_row * spec.n


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


def overflow_config(tmp_path):
    """The x1e3 coupling of the CLI overflow test on a 4-node grid."""
    doc = json.loads((CONFIGS / "cyclic.json").read_text(encoding="utf-8"))
    doc["grid"] = {"nx": 4, "ny": 4, "nt": 4}
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


def test_each_entry_point_builds_one_plan(monkeypatch):
    # every transport solve, coupling product and K application inside
    # one entry point reuses the plan that entry point built
    spec = coupled_spec()
    grid = cf.Grid(nx=4, ny=4, nt=4)
    f = cf.sample(EXPRS, grid)
    build = cf.TransportPlan.build.__func__
    built = []

    def counting(cls, *args):
        built.append(args)
        return build(cls, *args)

    monkeypatch.setattr(cf.TransportPlan, "build", classmethod(counting))
    runs = {
        "solve_neumann": lambda: cf.solve_neumann(spec, f),
        "solve_discrete": lambda: cf.solve_discrete(spec, f,
                                                    kernel_estimate=True),
        "smoothing_profile": lambda: cf.smoothing_profile(
            spec, grid, frequencies=(1,), shifts=()),
        "apply_k_power": lambda: cf.apply_k_power(spec, f, 3),
        "apply_k_cubed_fused": lambda: cf.apply_k_cubed_fused(
            spec, f, np.array([[0.5, 0.25, 0.75]])),
    }
    for name, run in runs.items():
        built.clear()
        run()
        assert len(built) == 1, name


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
    # the impulse columns, the dense section and its SVD
    def no_section(*args, **kwargs):
        raise AssertionError("O(n^2) step run")

    for name in ("assemble_dense", "_impulse_images", "kernel_dimension"):
        monkeypatch.setattr(fredholm, name, no_section)


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


def test_kernel_routes_the_solve_to_gelsy(monkeypatch):
    spec = coupled_spec()
    grid = cf.Grid(nx=4, ny=4, nt=4)
    f = cf.sample(EXPRS, grid)
    # the certificate would prove this section kernel-free first
    monkeypatch.setattr(fredholm, "_section_power_norms",
                        lambda *args: itertools.repeat(1.0))
    monkeypatch.setattr(fredholm, "kernel_dimension", lambda mat: 1)

    def no_gmres(*args):
        raise AssertionError("GMRES ran on a section with a kernel")

    monkeypatch.setattr(fredholm, "_gmres", no_gmres)
    out = cf.solve_discrete(spec, f)
    assert out.kernel_dimension_estimate == 1
    assert out.iterations == 0 and out.stalled_residual is None
    np.testing.assert_array_equal(out.w.values, gelsy(spec, f))


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
    plan = cf.TransportPlan.build(spec, grid)
    whole = cf.assemble_dense(spec, grid, plan)
    monkeypatch.setattr(fredholm, "ASSEMBLY_BATCH", batch)
    np.testing.assert_array_equal(cf.assemble_dense(spec, grid, plan), whole)


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


def mirrored_spec():
    """coupled_spec's couplings in the mirrored cycle: group 1 reads
    group 2, group 2 reads group 3 and group 3 reads group 1."""
    spec = coupled_spec()
    b = [[ZERO] * 3 for _ in range(3)]
    b[0][1], b[1][2], b[2][0] = spec.b[0][2], spec.b[1][0], spec.b[2][1]
    return replace(spec, b=tuple(map(tuple, b)), orientation=cf.MIRRORED)


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
    k = cf.assemble_dense(spec, grid, plan) - np.eye(size)
    a = list(itertools.islice(
        fredholm._section_power_norms(spec, grid, plan), 3))
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
    a = list(fredholm._section_power_norms(spec, grid, plan))
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
    kernel_dimension = fredholm.kernel_dimension

    def counted(mat):
        counts.append(kernel_dimension(mat))
        return counts[-1]

    monkeypatch.setattr(fredholm, "_section_power_norms",
                        lambda *args: iter(norms))
    monkeypatch.setattr(fredholm, "kernel_dimension", counted)
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


def test_kernel_estimate_finds_a_crafted_kernel():
    # K is linear in b: scaling b by -1/lam, for a real eigenvalue lam of
    # K, makes I + K singular, and the certificate must decline there
    spec = coupled_spec()
    grid = cf.Grid(nx=4, ny=4, nt=4)
    eig = np.linalg.eigvals(cf.assemble_dense(spec, grid) - np.eye(240))
    lam = eig[eig.imag == 0].real.max()
    scale = float(-1.0 / lam)
    b = [[e if is_literal_zero(e) else
          cf.parse(f"({scale!r})*({cf.pretty(e)})") for e in row]
         for row in spec.b]
    crafted = identity_spec(alpha=spec.alpha, beta=spec.beta,
                            gamma=spec.gamma,
                            b=tuple(tuple(row) for row in b))
    f = cf.sample(EXPRS, grid)
    out = cf.solve_discrete(crafted, f)
    assert out.kernel_dimension_estimate == 1
    assert cf.kernel_dimension(cf.assemble_dense(crafted, grid)) == 1


def test_kernel_estimate_holds_no_dense_section(monkeypatch):
    spec = coupled_spec()
    grid = cf.Grid(nx=8, ny=9, nt=9)
    size = 3 * 9 * 9 * 9
    f = cf.sample(EXPRS, grid)

    def no_dense(*args, **kwargs):
        raise AssertionError("dense section built for the kernel estimate")

    monkeypatch.setattr(fredholm, "assemble_dense", no_dense)
    monkeypatch.setattr(fredholm, "kernel_dimension", no_dense)
    tracemalloc.start()
    try:
        out = cf.solve_discrete(spec, f, kernel_estimate=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.kernel_dimension_estimate == 0
    # the dense section would take size**2 doubles, 38 MB
    assert peak < size * size * 8


def test_gmres_stall_falls_back_to_the_dense_section(tmp_path):
    # condition number 7.3e5: restarted GMRES makes no headway
    cfg = overflow_config(tmp_path)
    f = cf.sample(cfg.rhs, cfg.grid)
    out = cf.solve_discrete(cfg.spec, f, kernel_estimate=False)
    assert out.iterations == GMRES_MAX_ITER
    assert out.stalled_residual > GMRES_RTOL
    assert out.kernel_dimension_estimate is None
    np.testing.assert_array_equal(out.w.values, gelsy(cfg.spec, f))
    assert out.residual_sup < 1e-9 * cf.sup_norm(f)


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
    spec = coupled_spec()
    grid = cf.Grid(nx=30, ny=16, nt=16)
    f = cf.zeros(grid, 3)
    monkeypatch.setattr(fredholm, "_gmres", lambda spec, grid, rhs, *rest:
                        (rhs, GMRES_MAX_ITER, 0.5))
    with pytest.raises(cf.NonConvergence) as err:
        cf.solve_discrete(spec, f, kernel_estimate=False)
    assert err.value.iterations == GMRES_MAX_ITER
    assert err.value.last_diff == 0.5


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
                      "kernel_dimension_estimate", "solution_sup_norm",
                      "solution_sum_sup_norm"}


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
    spec = fused_spec()
    grid = cf.Grid(nx=4, ny=5, nt=5)
    f = cf.sample(EXPRS, grid)
    rng = np.random.default_rng(3)
    block = fredholm.FUSED_BLOCK
    probes = np.column_stack([rng.uniform(0.0, 1.0, 8 * block),
                              rng.uniform(0.0, 1.0, 8 * block),
                              rng.uniform(0.0, 1.0, 8 * block)])
    one = traced_peak(lambda: cf.apply_k_cubed_fused(spec, f, probes[:block]))
    eight = traced_peak(lambda: cf.apply_k_cubed_fused(spec, f, probes))
    assert eight <= 1.5 * one


def test_integration_matrix_is_exact_on_the_interpolating_degrees():
    glx, glw = np.polynomial.legendre.leggauss(fredholm.FUSED_NODES)
    S = fredholm._gl_integration_matrix(glx, glw)
    np.testing.assert_allclose(S @ np.ones_like(glx), glx + 1.0,
                               rtol=0, atol=1e-13)
    for degree in range(fredholm.FUSED_NODES):
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
    glx, glw = np.polynomial.legendre.leggauss(fredholm.FUSED_NODES)
    S = fredholm._gl_integration_matrix(glx, glw)
    X, Y, T = np.random.default_rng(5).uniform(0.0, 1.0, (3, 2, 6))
    X[0, :2] = (0.0, 1.0)
    for forward, beta, alpha, row_gam, c, _ in plan.rows:
        assert row_gam is gam and c is None
        x0 = 0.0 if forward else 1.0
        xi, _ = fredholm._gl_panels(x0, X, glx, glw, fredholm.FUSED_PANELS)
        d = xi - X[None]
        got = fredholm._gamma_integrals(gam, x0, X, xi, Y[None] + beta * d,
                                        T[None] + alpha * d, glw, S)
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
    q, panels = fredholm.FUSED_NODES, fredholm.FUSED_PANELS
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

    monkeypatch.setattr(fredholm, "evaluate_on", counting)
    cf.apply_k_cubed_fused(spec, f, probes)
    # row 2 alone has a variable gamma, and the cyclic coupling
    # integrates it once per level: along p, p n and p n^2 lines
    n = fredholm.FUSED_PANELS * fredholm.FUSED_NODES
    lines = len(probes) * (1 + n + n * n)
    assert len(varying) == 1
    assert points["gamma"] <= n * lines
    # a fresh FUSED_NODES-point rule per panel node read gamma
    # FUSED_NODES times as often
    per_node_rule = fredholm.FUSED_NODES * n * lines + points["coupling"]
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
