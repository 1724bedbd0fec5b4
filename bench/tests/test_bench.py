"""Tests of the benchmark harness itself: checks, tracing, names."""
from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import charfred as cf
from bench import metrics, tracing, workloads
from bench.tracing import Span

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _context(tmp_path, inputs) -> workloads.Context:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(inputs["config"]), encoding="utf-8")
    cfg = cf.load_config(str(path))
    return workloads.Context(str(tmp_path), inputs, str(path), cfg,
                             cf.sample(cfg.rhs, cfg.grid))


def _small(inputs, nodes):
    inputs["config"]["grid"] = {"nx": nodes - 1, "ny": nodes, "nt": nodes}
    return inputs


def test_neumann_check_rejects_perturbed_solution(tmp_path):
    ctx = _context(tmp_path, _small(workloads.neumann_inputs(0), 9))
    result = workloads.neumann_run(ctx)
    assert workloads.neumann_check(ctx, result).ok
    csv_path = Path(result[1]) / "solution.csv"
    u = cf.from_csv(str(csv_path), ctx.cfg.grid)
    cf.to_csv(u * (1 + 1e-6), str(csv_path))
    assert not workloads.neumann_check(ctx, result).ok
    assert not workloads.neumann_check(ctx, (1, result[1])).ok


def test_section_check_rejects_perturbed_solution(tmp_path):
    ctx = _context(tmp_path, _small(workloads.section_inputs(0), 5))
    outcome = workloads.section_run(ctx)
    assert workloads.section_check(ctx, outcome).ok
    bad = dataclasses.replace(outcome, u=outcome.u * (1 + 1e-6))
    assert not workloads.section_check(ctx, bad).ok


def test_section_rhs_matches_its_exact_solution():
    # f must equal (transport + coupling) u_exact; the derivative along
    # each row's characteristic line is taken by central differences
    params = workloads.section_inputs(5)["exact"]
    system = workloads.CYCLIC_SYSTEM
    rhs = workloads._manufactured_rhs(system, params["amplitudes"],
                                      params["phase_y"], params["phase_t"])
    cfg = cf.load_config(workloads._config(system, 7, rhs))
    f = cf.sample(cfg.rhs, cfg.grid).values
    x, y, t = np.meshgrid(cfg.grid.xs(), cfg.grid.ys(), cfg.grid.ts(),
                          indexing="ij")
    u = workloads.section_exact(params, x, y, t)
    h = 1e-5
    lhs = cf.apply_coupling(cfg.spec, cf.GridFunction(cfg.grid, u)).values
    lhs = lhs.copy()
    for i, gamma in enumerate((0.3, 0.0, -0.2)):
        a, b = system["alpha"][i], system["beta"][i]
        up = workloads.section_exact(params, x + h, y + b * h, t + a * h)
        um = workloads.section_exact(params, x - h, y - b * h, t - a * h)
        lhs[i] += (up[i] - um[i]) / (2 * h) + gamma * u[i]
    assert np.max(np.abs(lhs - f)) <= 1e-6 * np.max(np.abs(f))


def test_fused_check_rejects_perturbed_probes():
    ctx = SimpleNamespace(inputs=workloads.fused_inputs(0))
    rng = np.random.default_rng(0)
    good = rng.uniform(0.5, 1.0, size=(3, workloads.FUSED_PROBES))
    assert workloads.fused_check(ctx, (good, good * (1 + 1e-3))).ok
    assert not workloads.fused_check(ctx, (good, good * 1.05)).ok
    nan = good.copy()
    nan[0, 0] = np.nan
    assert not workloads.fused_check(ctx, (good, nan)).ok
    assert not workloads.fused_check(ctx, (good[:, :-1], good[:, :-1])).ok


def test_diagnose_check_reads_half_wavelength_moduli(tmp_path):
    ctx = SimpleNamespace(inputs={"frequencies": [3, 5]},
                          cfg=SimpleNamespace(grid=cf.Grid(32, 33, 33)))

    def report(m3):
        rows = []
        for w in (3, 5):
            for p, norm in ((0, 1.0), (1, 1.0), (3, m3)):
                rows.append({"power": p, "omega": w, "h": 1 / (2 * w),
                             "modulus": norm, "normalized": norm})
        (tmp_path / "diagnostics.json").write_text(
            json.dumps({"rows": rows}), encoding="utf-8")
        return 0, str(tmp_path)

    assert workloads.diagnose_check(ctx, report(0.001)).ok
    assert not workloads.diagnose_check(ctx, report(0.2)).ok
    assert not workloads.diagnose_check(ctx, (1, str(tmp_path))).ok


def test_inputs_follow_the_seed():
    for wl in workloads.WORKLOADS.values():
        assert wl.make_inputs(3) == wl.make_inputs(3)
        assert wl.make_inputs(3) != wl.make_inputs(4)


def _span(name, start, end, parent, op=0, **counts):
    return Span(name, start, end, parent, op, counts)


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0, columns=2),
        _span("b", 3.0, 6.0, 0, columns=5),   # overlaps a: covered once
        _span("c", 2.0, 3.0, 1),
        _span("root", 20.0, 21.0, -1, op=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0,
                                                       1.0])
    table = tracing.per_op(spans)
    assert table[0]["root"]["self_s"] == pytest.approx(5.0)
    assert table[0]["a"]["columns"] == 2
    assert table[1]["root"]["calls"] == 1
    assert metrics.count_fields(table[0]) == {
        "a.calls": 1, "a.columns": 2, "b.calls": 1, "b.columns": 5,
        "c.calls": 1, "root.calls": 1}


def test_tracer_records_layer_boundaries_and_restores_bindings():
    import charfred.fredholm as fredholm
    original = cf.apply_k
    grid = cf.Grid(4, 5, 5)
    spec = cf.load_config(workloads._config(workloads.CYCLIC_SYSTEM, 5,
                                            ["1", "y", "t"])).spec
    f = cf.sample((cf.parse("1"), cf.parse("y"), cf.parse("t")), grid)
    tracer = tracing.Tracer(metrics.named_spans())
    tracer.op = 0
    tracer.install()
    try:
        assert cf.apply_k is fredholm.apply_k is not original
        traced = cf.apply_k_power(spec, f, 2)
    finally:
        tracer.uninstall()
    assert cf.apply_k is original and fredholm.apply_k is original
    assert np.array_equal(traced.values,
                          cf.apply_k_power(spec, f, 2).values)
    row = tracing.per_op(tracer.spans)[0]
    assert row["fredholm.apply_k"]["calls"] == 2
    assert row["characteristics.solve_transport_stack"]["columns"] == 2
    names = {s.name: s for s in tracer.spans}
    stack = names["characteristics.solve_transport_stack"]
    assert tracer.spans[stack.parent].name == "characteristics.solve_transport"


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert metrics.tail(list(range(20))) == (19, 100.0, 0)
    samples = list(range(1, 31))
    value, pct, beyond = metrics.tail(samples)
    assert (value, beyond) == (20, 10)
    assert pct == pytest.approx(100 * 20 / 30)
    assert sum(s > value for s in samples) == 10


def test_names_match_the_benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(metrics.PER_LAYER)
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert metrics.named_spans() <= {
        f"{layer}.{fn}" for layer in tracing.LAYERS
        for fn in dir(__import__(f"charfred.{layer}", fromlist=["_"]))
    } | set(tracing.EXTERNAL)
