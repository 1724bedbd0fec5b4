"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print. Every tolerance here is frozen; the measured values in the
details exist so a regression shows how far off it landed.
"""
from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

import charfred as cf
from charfred.cli import main as cli_main
from conftest import ONE, ZERO, coupled_spec, cyclic_b, identity_spec
from test_expressions import GOLDEN, PERIODIC_ACCEPT, PERIODIC_REJECT


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_quadrature_exactness():
    start = time.perf_counter()
    grid = cf.Grid(nx=32, ny=17, nt=17)
    spec = identity_spec()
    exprs = tuple(cf.parse("x^3 - 2*x^2 + x - 1/4") for _ in range(3))
    f = cf.sample(exprs, grid)
    u = cf.solve_transport(spec, f, rhs_exprs=exprs)

    xs = grid.xs()
    anti = xs ** 4 / 4 - 2 * xs ** 3 / 3 + xs ** 2 / 2 - xs / 4
    expected = np.empty_like(u.values)
    expected[0] = anti[:, None, None]
    expected[1] = anti[:, None, None]
    expected[2] = (anti - anti[-1])[:, None, None]
    err = float(np.max(np.abs(u.values - expected)))
    elapsed = time.perf_counter() - start
    ok = err <= 1e-12 and elapsed < 2.0
    _verdict(1, ok, f"cubic integration error {err:.3e} <= 1e-12, "
                    f"{elapsed:.2f}s < 2s")


def _manufactured(grid: cf.Grid):
    """Exact solution and matching right-hand side for the cyclic spec."""
    x, y, t = np.meshgrid(grid.xs(), grid.ys(), grid.ts(), indexing="ij")
    tp = 2.0 * np.pi
    sy, cy = np.sin(tp * y), np.cos(tp * y)
    st, ct = np.sin(tp * t), np.cos(tp * t)

    u1 = np.sin(np.pi * x / 2) * sy * ct
    u2 = (1.0 - np.cos(tp * x)) * cy * st
    u3 = np.sin(np.pi * (1.0 - x) / 2) * sy * ct

    u1x = (np.pi / 2) * np.cos(np.pi * x / 2) * sy * ct
    u1y = tp * np.sin(np.pi * x / 2) * cy * ct
    u1t = -tp * np.sin(np.pi * x / 2) * sy * st
    u2x = tp * np.sin(tp * x) * cy * st
    u2y = -tp * (1.0 - np.cos(tp * x)) * sy * st
    u2t = tp * (1.0 - np.cos(tp * x)) * cy * ct
    u3x = -(np.pi / 2) * np.cos(np.pi * (1.0 - x) / 2) * sy * ct
    u3y = tp * np.sin(np.pi * (1.0 - x) / 2) * cy * ct
    u3t = -tp * np.sin(np.pi * (1.0 - x) / 2) * sy * st

    # Row i: dx + beta_i dy + alpha_i dt + gamma_i, plus the cyclic reads.
    f1 = u1x + 1.0 * u1y + 0.5 * u1t + 0.3 * u1 + 0.4 * cy * u3
    f2 = u2x - 1.0 * u2y + 1.0 * u2t + 0.3 * u1
    f3 = u3x + 0.5 * u3y - 1.0 * u3t - 0.2 * u3 + 0.2 * st * u2
    u = cf.GridFunction(grid, np.stack([u1, u2, u3]))
    f = cf.GridFunction(grid, np.stack([f1, f2, f3]))
    return u, f


def test_criterion_2_manufactured_solution_order():
    start = time.perf_counter()
    spec = coupled_spec()
    errs = []
    for nodes in (7, 13):
        grid = cf.Grid(nx=nodes - 1, ny=nodes, nt=nodes)
        exact, f = _manufactured(grid)
        out = cf.solve_discrete(spec, f, kernel_estimate=False)
        errs.append(float(np.max(np.abs(out.u.values - exact.values))))
    ratio = errs[0] / errs[1]
    elapsed = time.perf_counter() - start
    ok = 3.0 <= ratio <= 5.0 and errs[0] < 1.0 and elapsed < 180.0
    _verdict(2, ok, f"recovery errors {errs[0]:.4f} -> {errs[1]:.4f}, "
                    f"ratio {ratio:.3f} in [3, 5], {elapsed:.1f}s < 180s")


def test_criterion_3_fused_matches_composed():
    start = time.perf_counter()
    spec = identity_spec(
        alpha=(0.5, 1.0, -1.0), beta=(1.0, -1.0, 0.5),
        gamma=(cf.parse("0.3"), ZERO, cf.parse("0.1*cos(2*pi*y)")),
        b=cyclic_b(cf.parse("0.4*cos(2*pi*y)"),
                   cf.parse("0.3 + 0.1*sin(2*pi*t)"),
                   cf.parse("0.2*cos(2*pi*y - 2*pi*t)")))
    exprs = (cf.parse("sin(2*pi*y)*cos(2*pi*t)"), cf.parse("cos(2*pi*y)"),
             cf.parse("sin(2*pi*t) + 1/2"))
    rng = np.random.default_rng(7)
    px = rng.uniform(0.02, 0.98, size=100)
    py = rng.uniform(0.0, 1.0, size=100)
    pt = rng.uniform(0.0, 1.0, size=100)
    probes = np.column_stack([px, py, pt])

    rels = []
    for nodes in (17, 33):
        grid = cf.Grid(nx=nodes - 1, ny=nodes, nt=nodes)
        f = cf.sample(exprs, grid)
        fused = cf.apply_k_cubed_fused(spec, f, probes)
        composed = cf.interpolate_many(cf.apply_k_power(spec, f, 3),
                                       px, py, pt)
        scale = float(np.max(np.abs(fused)))
        rels.append(float(np.max(np.abs(fused - composed))) / scale)
    shrink = rels[0] / rels[1]
    elapsed = time.perf_counter() - start
    ok = rels[1] <= 3e-2 and shrink >= 1.8 and elapsed < 240.0
    _verdict(3, ok, f"route disagreement {rels[0]:.4f} -> {rels[1]:.4f} "
                    f"(<= 0.03), shrink {shrink:.2f} >= 1.8, "
                    f"{elapsed:.1f}s < 240s")


def test_criterion_4_jacobian_condition_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        slopes = cf.EffectiveSlopes(
            alpha=tuple(rng.uniform(-5.0, 5.0, size=3).tolist()),
            beta=tuple(rng.uniform(-5.0, 5.0, size=3).tolist()))
        jac = cf.transversal_jacobian(slopes, 0, 1, 2)
        val = cf.nondegeneracy_value(slopes, 0, 1, 2)
        worst = max(worst, abs(jac - val) / max(1.0, abs(val)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-13 and elapsed < 1.0
    _verdict(4, ok, f"worst route difference {worst:.3e} <= 1e-13 over "
                    f"1000 draws, {elapsed:.2f}s < 1s")


def test_criterion_5_smoothing_contrast():
    start = time.perf_counter()
    grid = cf.Grid(nx=64, ny=65, nt=65)
    transversal = identity_spec(alpha=(0.0, 1.0, 0.0),
                                beta=(1.0, -1.0, 0.0),
                                b=cyclic_b(ONE, ONE, ONE))
    degenerate = identity_spec(alpha=(1.0, 2.0, 3.0),
                               beta=(0.0, 0.0, 0.0),
                               b=cyclic_b(ONE, ONE, ONE))
    freqs = (4, 8, 16)

    def moduli(spec, power):
        rep = cf.smoothing_profile(spec, grid, powers=(0, 1, 3),
                                   frequencies=freqs)
        return [rep.modulus(power, w, grid.period_y / (2 * w))
                for w in freqs]

    m3 = moduli(transversal, 3)
    m1 = moduli(transversal, 1)
    m3_flat = moduli(degenerate, 3)
    r3 = [m3[i] / m3[i + 1] for i in range(2)]
    r1 = [m1[i] / m1[i + 1] for i in range(2)]
    r3_flat = [m3_flat[i] / m3_flat[i + 1] for i in range(2)]
    elapsed = time.perf_counter() - start
    ok = (all(r >= 1.5 for r in r3) and all(r <= 1.2 for r in r1)
          and all(r <= 1.2 for r in r3_flat) and elapsed < 300.0)
    _verdict(5, ok, f"M3 decay ratios {r3[0]:.2f}, {r3[1]:.2f} >= 1.5; "
                    f"M1 ratios {r1[0]:.2f}, {r1[1]:.2f} <= 1.2; "
                    f"degenerate M3 ratios {r3_flat[0]:.2f}, "
                    f"{r3_flat[1]:.2f} <= 1.2; {elapsed:.1f}s < 300s")


def test_criterion_6_kernel_inequality(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "testbed.json"
    rc = cli_main(["testbed", "--count", "500", "--max-dim", "8",
                   "--powers", "2,3,4", "--seed", "0", "--out", str(out)])
    doc = json.loads(out.read_text(encoding="utf-8"))
    elapsed = time.perf_counter() - start
    ok = (rc == 0 and doc["ok"] and doc["checks"] == 1560
          and elapsed < 10.0)
    _verdict(6, ok, f"{doc['checks']} kernel-dimension checks, "
                    f"{len(doc['violations'])} violations, "
                    f"{elapsed:.1f}s < 10s")


def test_criterion_7_solver_consistency(tmp_path):
    start = time.perf_counter()
    # Uncoupled system: the solve must return exactly the transport lift.
    cfg_path = Path(__file__).resolve().parent.parent / "configs" / \
        "uncoupled.json"
    rc = cli_main(["solve", "--config", str(cfg_path),
                   "--out", str(tmp_path)])
    cfg = cf.load_config(str(cfg_path))
    written = cf.from_csv(str(tmp_path / "solution.csv"), cfg.grid)
    direct = cf.solve_transport(cfg.spec, cf.sample(cfg.rhs, cfg.grid))
    gap_uncoupled = float(np.max(np.abs(written.values - direct.values)))

    # Contractive coupled system: both solvers land on the same answer.
    spec = coupled_spec()
    grid = cf.Grid(nx=10, ny=9, nt=9)
    f = cf.sample((cf.parse("sin(2*pi*y)*cos(2*pi*t)"), ONE,
                   cf.parse("cos(2*pi*t)")), grid)
    tol = 1e-10
    iterated = cf.solve_neumann(spec, f, tol=tol, max_iter=200)
    dense = cf.solve_discrete(spec, f, kernel_estimate=False)
    gap_methods = float(np.max(np.abs(iterated.u.values - dense.u.values)))
    elapsed = time.perf_counter() - start
    ok = (rc == 0 and gap_uncoupled <= 1e-15 and gap_methods <= 10 * tol
          and elapsed < 60.0)
    _verdict(7, ok, f"uncoupled solve vs transport gap "
                    f"{gap_uncoupled:.1e} <= 1e-15, iterative vs dense gap "
                    f"{gap_methods:.2e} <= 1e-9, {elapsed:.1f}s < 60s")


def test_criterion_8_parser_golden_suite():
    start = time.perf_counter()
    worst = 0.0
    for text, point, expected in GOLDEN:
        got = cf.evaluate(cf.parse(text), *point)
        scale = max(1.0, abs(expected))
        worst = max(worst, abs(got - expected) / scale)
    accept_ok = all(cf.check_periodicity(cf.parse(t), 1.0, 1.0)
                    for t in PERIODIC_ACCEPT)
    reject_ok = all(not cf.check_periodicity(cf.parse(t), 1.0, 1.0)
                    for t in PERIODIC_REJECT)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and accept_ok and reject_ok and elapsed < 1.0
    _verdict(8, ok, f"{len(GOLDEN)} golden values within {worst:.1e} "
                    f"(<= 1e-12), periodicity verdicts "
                    f"{len(PERIODIC_ACCEPT)}+{len(PERIODIC_REJECT)} all "
                    f"correct, {elapsed:.2f}s < 1s")
