"""Tests for the diagnostics module: jacobian table and smoothing profile."""
from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import charfred as cf
from charfred import characteristics, diagnostics
from conftest import (ONE, ZERO, block_coupled_spec, coupled_spec, cyclic_b,
                      identity_spec, mirrored_spec)


def degenerate_control():
    # Transport-only rows (beta = 0) with distinct time slopes: every
    # triple has nondegeneracy value 0, so K never mixes y offsets and
    # the shift modulus of K^m f stays pinned to the probe's.
    return identity_spec(alpha=(1.0, 2.0, 3.0), beta=(0.0, 0.0, 0.0),
                         b=cyclic_b(ONE, ONE, ONE))


def transversal_control():
    # Value (b1-b2)(a2-a3) - (b2-b3)(a1-a2) = 2*1 - (-1)*(-1) = 1.
    return identity_spec(alpha=(0.0, 1.0, 0.0), beta=(1.0, -1.0, 0.0),
                         b=cyclic_b(ONE, ONE, ONE))


def test_jacobian_matches_nondegeneracy_value_on_random_slopes():
    rng = np.random.default_rng(3)
    for _ in range(100):
        alpha = tuple(rng.uniform(-5.0, 5.0, size=3).tolist())
        beta = tuple(rng.uniform(-5.0, 5.0, size=3).tolist())
        slopes = cf.EffectiveSlopes(alpha=alpha, beta=beta)
        jac = cf.transversal_jacobian(slopes, 0, 1, 2)
        val = cf.nondegeneracy_value(slopes, 0, 1, 2)
        scale = max(1.0, max(abs(v) for v in alpha + beta)) ** 2
        assert abs(jac - val) <= 1e-13 * scale


def test_jacobian_table_single_triple():
    spec = cf.SystemSpec(
        n=3, k=2, l=1, a1=[[1.0]], a2=[[1.0]], a3=[[1.0]],
        alpha=(0.5, 1.0, -1.0), beta=(1.0, -1.0, 0.5),
        gamma=(ZERO, ZERO, ZERO), b=cyclic_b(ONE, ONE, ONE))
    table = cf.jacobian_table(spec)
    assert len(table) == 1
    row = table[0]
    assert row.triple == (1, 2, 3)
    # (1-(-1))*(1-(-1)) - ((-1)-0.5)*(0.5-1) = 4 - 0.75
    assert row.jacobian == pytest.approx(3.25, abs=1e-14)
    assert row.condition == pytest.approx(3.25, abs=1e-14)
    assert row.difference <= 1e-14


def test_jacobian_table_zeroes_uncoupled_rows():
    # No coupling at all: every effective slope collapses to zero.
    spec = identity_spec(alpha=(1.0, 2.0, 3.0), beta=(4.0, 5.0, 6.0))
    table = cf.jacobian_table(spec)
    assert table[0].jacobian == 0.0
    assert table[0].condition == 0.0


def test_oscillatory_probe_feeds_forward_cycle():
    spec = transversal_control()
    grid = cf.Grid(nx=4, ny=8, nt=4)
    probe = cf.oscillatory_probe(spec, grid, omega=2)
    # Forward pattern: group 3 feeds the cycle, so the wave sits in the
    # third component and the others stay zero.
    assert np.all(probe.values[:2] == 0.0)
    wave = np.sin(2.0 * np.pi * 2 * grid.ys())
    assert np.allclose(probe.values[2], wave[None, :, None], atol=1e-15)


def test_oscillatory_probe_feeds_mirrored_cycle():
    spec = identity_spec(orientation=cf.MIRRORED)
    grid = cf.Grid(nx=4, ny=8, nt=4)
    probe = cf.oscillatory_probe(spec, grid, omega=1)
    assert np.all(probe.values[0] == 0.0)
    assert np.all(probe.values[2] == 0.0)
    assert np.any(probe.values[1] != 0.0)


def test_smoothing_profile_flat_for_degenerate_control():
    spec = degenerate_control()
    grid = cf.Grid(nx=8, ny=16, nt=4)
    rep = cf.smoothing_profile(spec, grid, powers=(0, 1, 2, 3),
                               frequencies=(2,))
    h = 0.25  # half wavelength of omega = 2
    assert rep.feeding_component == 3
    assert rep.modulus(0, 2, h) == 1.0
    assert rep.modulus(1, 2, h) == pytest.approx(1.0, abs=1e-12)
    # K^2 f = -(x - x^2/2) sin(...): coefficient peaks at 1/2, and the
    # quadrature integrates the linear integrand exactly.
    assert rep.modulus(2, 2, h) == pytest.approx(0.5, abs=1e-12)
    # K^3 f peaks at 1/3; the half-step averaging inside the quadrature
    # biases the quadratic integrand slightly, by this fixed amount at
    # nx = 8.
    assert rep.modulus(3, 2, h) == pytest.approx(0.33203125, abs=1e-12)
    assert abs(rep.modulus(3, 2, h) - 1.0 / 3.0) < 2e-3


def test_smoothing_profile_floors_full_period_shift():
    spec = degenerate_control()
    grid = cf.Grid(nx=8, ny=16, nt=4)
    rep = cf.smoothing_profile(spec, grid, powers=(0, 3),
                               frequencies=(4,))
    assert 0.25 in diagnostics.SHIFTS
    # h = 0.25 is a full wavelength of omega = 4: the shift difference
    # of the probe itself is zero, so the normalized column floors.
    assert rep.modulus(0, 4, 0.25, normalized=False) < 1e-12
    assert rep.modulus(0, 4, 0.25) == 0.0
    assert rep.modulus(3, 4, 0.25) == 0.0
    # The half-wavelength row is still live.
    assert rep.modulus(0, 4, 0.125) == 1.0


def test_smoothing_profile_decays_for_transversal_spec():
    spec = transversal_control()
    grid = cf.Grid(nx=16, ny=16, nt=16)
    rep = cf.smoothing_profile(spec, grid, powers=(0, 1, 3),
                               frequencies=(2, 4))
    m3_lo = rep.modulus(3, 2, 0.25)
    m3_hi = rep.modulus(3, 4, 0.125)
    assert m3_lo < 0.05
    assert m3_hi < 0.05
    # Higher frequency decays harder under K^3.
    assert m3_hi < 0.7 * m3_lo
    assert rep.modulus(1, 2, 0.25) == pytest.approx(1.0, rel=0.2)


def test_smoothing_profile_without_power_zero_keeps_its_rows():
    # the power-0 moduli still normalize every row when 0 is not requested
    spec = transversal_control()
    grid = cf.Grid(nx=8, ny=16, nt=8)
    kw = dict(frequencies=(2, 4))
    full = cf.smoothing_profile(spec, grid, powers=(0, 1, 3), **kw)
    part = cf.smoothing_profile(spec, grid, powers=(1, 3), **kw)
    assert part.rows == tuple(r for r in full.rows if r.power != 0)
    assert {r.power for r in part.rows} == {1, 3}


@pytest.mark.parametrize("powers", [(0, 1, 3), (1, 3)])
def test_smoothing_profile_measures_each_power_once(monkeypatch, powers):
    spec = transversal_control()
    grid = cf.Grid(nx=4, ny=16, nt=4)
    measure = diagnostics.shift_diff_norm
    calls = []

    def counting(field, hy):
        calls.append(hy)
        return measure(field, hy)

    monkeypatch.setattr(diagnostics, "shift_diff_norm", counting)
    cf.smoothing_profile(spec, grid, powers=powers, frequencies=(2, 4))
    # omega shifts by its half wavelength 1/(2 omega) and by SHIFTS, each
    # distinct shift once: 0.25 and 0.125 are both among SHIFTS
    per_power = sum(len({0.5 / w} | set(diagnostics.SHIFTS)) for w in (2, 4))
    assert per_power == 6
    assert len(calls) == per_power * len(set(powers) | {0})


def test_smoothing_profile_rejects_bad_requests():
    spec = degenerate_control()
    grid = cf.Grid(nx=4, ny=16, nt=4)
    with pytest.raises(ValueError, match="fewer than 4 nodes"):
        cf.smoothing_profile(spec, grid, frequencies=(8,))
    # the default (2, 4) keeps what ny resolves, and refuses omega = 2
    # when that is nothing
    with pytest.raises(ValueError, match="omega = 2 leaves fewer"):
        cf.smoothing_profile(spec, cf.Grid(nx=4, ny=7, nt=4))
    with pytest.raises(ValueError, match="positive integers"):
        cf.smoothing_profile(spec, grid, frequencies=(0,))
    with pytest.raises(ValueError, match="nonnegative"):
        cf.smoothing_profile(spec, grid, powers=(-1, 2), frequencies=(2,))


def test_smoothing_profile_profiles_a_repeated_frequency_once(monkeypatch):
    spec = transversal_control()
    grid = cf.Grid(nx=4, ny=16, nt=4)
    kw = dict(powers=(0, 1))
    once = cf.smoothing_profile(spec, grid, frequencies=(2,), **kw)
    calls = []
    group_block = diagnostics._group_block

    def counting(*args):
        calls.append(None)
        return group_block(*args)

    monkeypatch.setattr(diagnostics, "_group_block", counting)
    twice = cf.smoothing_profile(spec, grid, frequencies=(2, 2), **kw)
    assert twice.rows == once.rows
    assert len(calls) == 1


def test_smoothing_profile_checks_every_frequency_first(monkeypatch):
    def refuse(*args):
        raise AssertionError("K applied before the frequencies were checked")

    monkeypatch.setattr(diagnostics, "_group_block", refuse)
    grid = cf.Grid(nx=4, ny=16, nt=4)
    with pytest.raises(ValueError, match="omega = 99 leaves fewer"):
        cf.smoothing_profile(transversal_control(), grid,
                             frequencies=(2, 99))


def test_report_csv_and_lookup(tmp_path):
    spec = degenerate_control()
    grid = cf.Grid(nx=4, ny=16, nt=4)
    rep = cf.smoothing_profile(spec, grid, powers=(0, 1), frequencies=(2,))
    text = rep.csv_text()
    lines = text.splitlines()
    assert lines[0] == "power,omega,h,modulus,normalized"
    assert len(lines) == 1 + len(rep.rows)
    path = tmp_path / "diag.csv"
    rep.to_csv(str(path))
    assert path.read_text(encoding="utf-8") == text
    with pytest.raises(KeyError):
        rep.modulus(5, 2, 0.25)
    with pytest.raises(KeyError):
        rep.modulus(0, 3, 0.25)


def test_report_json_dict():
    spec = transversal_control()
    grid = cf.Grid(nx=4, ny=8, nt=4)
    rep = cf.smoothing_profile(spec, grid, powers=(0,), frequencies=(2,))
    doc = json.loads(json.dumps(dataclasses.asdict(rep)))
    assert set(doc) == {"feeding_component", "rows", "jacobians"}
    assert doc["jacobians"][0]["triple"] == [1, 2, 3]
    assert doc["rows"][0]["power"] == 0


def test_smoothing_profile_transports_one_group_per_k(monkeypatch):
    # the probe and every K^m of it live in one row group, of one row
    # here, so each K application transports that row alone
    spec = transversal_control()
    grid = cf.Grid(nx=4, ny=8, nt=4)
    applied, integrated = [], []

    def counting(fn, calls):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(diagnostics, "_group_block",
                        counting(diagnostics._group_block, applied))
    monkeypatch.setattr(characteristics, "_integrate_spectral_row", counting(
        characteristics._integrate_spectral_row, integrated))
    cf.smoothing_profile(spec, grid, frequencies=(1, 2))
    # powers 0 to 3 at two frequencies: three K applications each
    assert len(applied) == 6
    assert len(integrated) == len(applied)


def apply_k_profile(spec, grid, powers, frequencies):
    """smoothing_profile's report from a chain of apply_k on whole fields,
    every power measured."""
    plan = cf.TransportPlan.build(spec, grid)
    rows = []
    for omega in frequencies:
        probe = cf.oscillatory_probe(spec, grid, omega)
        hs = sorted({grid.period_y / (2 * omega)}
                    | {fr * grid.period_y for fr in diagnostics.SHIFTS},
                    reverse=True)
        field = probe
        for m in range(max(powers) + 1):
            if m:
                field = cf.apply_k(spec, field, plan)
            moduli = [cf.shift_diff_norm(field, h) / cf.sup_norm(probe)
                      for h in hs]
            if not m:
                base = moduli
            if m in powers:
                rows += [diagnostics.ModulusRow(
                    m, omega, h, mod,
                    mod / ref if ref > diagnostics.MODULUS_FLOOR else 0.0)
                    for h, mod, ref in zip(hs, moduli, base)]
    comp = spec.group_ranges()[spec.feeding_group()][0]
    return diagnostics.DiagnosticsReport(comp + 1, tuple(rows),
                                         cf.jacobian_table(spec))


@pytest.mark.parametrize("make_spec", (coupled_spec, block_coupled_spec,
                                       mirrored_spec))
def test_smoothing_profile_walks_the_groups_like_apply_k(make_spec):
    # K^m of the probe lies in group order[(m - 1) % 3] of the sweep order
    # that ends at the feeding group; powers past one cycle, under both
    # orientations and with a two-row group, give apply_k's bytes
    spec = make_spec()
    grid = cf.Grid(nx=4, ny=16, nt=4)
    kw = dict(powers=(0, 1, 2, 3, 4, 5, 7), frequencies=(1, 2, 4))
    got = cf.smoothing_profile(spec, grid, **kw)
    expect = apply_k_profile(spec, grid, **kw)
    assert got.feeding_component == expect.feeding_component
    assert got.csv_text() == expect.csv_text()
