import json
from pathlib import Path

import numpy as np
import pytest

import charfred as cf
from charfred.fredholm import DISCRETE_UNKNOWN_CAP
from conftest import ONE, ZERO, coupled_spec, cyclic_b, identity_spec

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


def test_neumann_stops_early_on_sustained_growth(tmp_path):
    # the x1e3 coupling of the CLI overflow test: update norms grow
    # 2e2, 1.4e4, 7.2e5, 7.6e6, 6.4e8, past 1e6 times the smallest
    doc = json.loads((CONFIGS / "cyclic.json").read_text(encoding="utf-8"))
    doc["grid"] = {"nx": 4, "ny": 4, "nt": 4}
    doc["system"]["b"] = [["0", "0", "400*cos(2*pi*y)"], ["300", "0", "0"],
                          ["0", "200*sin(2*pi*t)", "0"]]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cfg = cf.load_config(str(path))
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


def test_assemble_dense_threads_match():
    spec = coupled_spec()
    grid = cf.Grid(nx=4, ny=4, nt=4)
    one_thread = cf.assemble_dense(spec, grid, threads=1)
    two_threads = cf.assemble_dense(spec, grid, threads=2)
    np.testing.assert_array_equal(one_thread, two_threads)


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


def test_discrete_respects_unknown_cap():
    spec = coupled_spec()
    grid = cf.Grid(nx=30, ny=16, nt=16)
    assert 3 * 31 * 16 * 16 > DISCRETE_UNKNOWN_CAP
    f = cf.zeros(grid, 3)
    with pytest.raises(ValueError):
        cf.solve_discrete(spec, f)


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
    assert out.timing_seconds > 0.0


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
    with pytest.raises(ValueError):
        cf.apply_k_cubed_fused(spec, f, np.array([[1.5, 0.0, 0.0]]))


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
