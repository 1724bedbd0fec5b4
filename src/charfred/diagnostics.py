"""Desk-scale probes of the smoothing mechanism.

Two independent routes to the same transversality number: the algebraic
nondegeneracy value of a row triple, and the Jacobian determinant of the
change from two chained line parameters to the transversal (y, t) offsets.
They are the same polynomial in the slopes; the diagnostics table holds
both so a transcription slip in either one shows up as a mismatch.

The smoothing profile feeds a single-frequency oscillation through
powers of K and measures how much a half-wavelength shift still changes
the result. Raw moduli include interpolation smearing of the oscillation
itself, so each row is also reported normalized by its power-zero
counterpart, which measures exactly that smearing.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .characteristics import TransportPlan
from .fredholm import _group_block, _sweep_order
from .gridfield import (Grid, GridFunction, shift_diff_norm, sup_norm,
                        text_target)
from .system import EffectiveSlopes, SystemSpec, effective_slopes, nondegeneracy_value

MODULUS_FLOOR = 1e-12
# y shifts that every profile measures, as fractions of the y period, on
# top of each frequency's half wavelength
SHIFTS = (0.25, 0.125, 0.0625)


def transversal_jacobian(slopes: EffectiveSlopes, r: int, p: int, m: int) -> float:
    """det of d(transversal offsets)/d(line parameters) for rows r, p, m.

    Indices are 0-based rows; the first parameter runs along row r's
    line, the second along row p's, and row m closes the chain.
    """
    a, b = slopes.alpha, slopes.beta
    mat = np.array([[b[r] - b[p], b[p] - b[m]],
                    [a[r] - a[p], a[p] - a[m]]])
    return float(np.linalg.det(mat))


@dataclass(frozen=True)
class ModulusRow:
    power: int
    omega: int
    h: float
    modulus: float
    normalized: float


@dataclass(frozen=True)
class JacobianRow:
    """Triple indices are 1-based, as in validation reports."""
    triple: tuple[int, int, int]
    jacobian: float
    condition: float
    difference: float


@dataclass(frozen=True)
class DiagnosticsReport:
    feeding_component: int
    rows: tuple
    jacobians: tuple

    CSV_HEADER = "power,omega,h,modulus,normalized"

    def to_csv(self, target) -> None:
        with text_target(target) as fh:
            fh.write(self.CSV_HEADER + "\n")
            for r in self.rows:
                fh.write(f"{r.power},{r.omega},{r.h!r},{r.modulus!r},"
                         f"{r.normalized!r}\n")

    def csv_text(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()

    def modulus(self, power: int, omega: int, h: float,
                normalized: bool = True) -> float:
        for r in self.rows:
            if r.power == power and r.omega == omega and \
                    abs(r.h - h) <= 1e-12 * max(1.0, abs(h)):
                return r.normalized if normalized else r.modulus
        raise KeyError(f"no modulus row (power={power}, omega={omega}, h={h})")


def oscillatory_probe(spec: SystemSpec, grid: Grid, omega: int) -> GridFunction:
    """sin(2 pi omega y / Y) in the component feeding the coupling cycle."""
    comp = spec.group_ranges()[spec.feeding_group()][0]
    values = np.zeros((spec.n, grid.nx + 1, grid.ny, grid.nt))
    wave = np.sin(2.0 * np.pi * omega * grid.ys() / grid.period_y)
    values[comp] = wave[None, :, None]
    return GridFunction(grid, values)


def jacobian_table(spec: SystemSpec) -> tuple:
    slopes = effective_slopes(spec)
    g1, g2, g3 = spec.group_ranges()
    out = []
    for i in g1:
        for j in g2:
            for s in g3:
                jac = transversal_jacobian(slopes, i, j, s)
                cond = nondegeneracy_value(slopes, i, j, s)
                out.append(JacobianRow((i + 1, j + 1, s + 1), jac, cond,
                                       abs(jac - cond)))
    return tuple(out)


def smoothing_profile(spec: SystemSpec, grid: Grid, powers=(0, 1, 2, 3),
                      frequencies=None) -> DiagnosticsReport:
    """Shift-difference moduli of K^m applied to single-frequency probes.

    frequencies are integer wave counts per period; each must leave at
    least 4 nodes per wavelength (omega <= ny/4), and all are checked
    before any K is applied. Like powers, they are sorted and a repeated
    one is profiled once. None means 2 and 4, less any omega above ny/4;
    when neither is left, omega = 2 is refused as an explicit request
    would be. Each frequency is measured at its half-wavelength shift
    Y/(2 omega) and at the dyadic fractions SHIFTS of the period Y, one
    row per distinct shift h, largest first. The
    normalized column divides each modulus by its power-0 counterpart,
    cancelling interpolation smearing; rows whose reference modulus is
    below 1e-12 report 0 there. The power-0 moduli are measured once per
    frequency, in the same pass as the powers, also when 0 is not among
    them (then only its rows are left out).

    The probe lives in the feeding group p alone, and each K^m of it in
    one row group too: K maps a field held by group h to one held by the
    group that reads h. So K^m is walked by the one-group block
    K_{g<-h} (_group_block), one group's transport each, along the sweep
    order (b, c, p) that ends at p: K^m lies in group order[(m - 1) % 3].
    Its moduli are those of the n-row field, whose other groups are
    zero.
    """
    powers = sorted(set(int(p) for p in powers))
    if powers and powers[0] < 0:
        raise ValueError("powers must be nonnegative")
    if frequencies is None:
        frequencies = [w for w in (2, 4) if w <= grid.ny / 4] or [2]
    frequencies = sorted(set(int(w) for w in frequencies))
    if frequencies and frequencies[0] < 1:
        raise ValueError("frequencies must be positive integers")
    too_fine = [w for w in frequencies if w > grid.ny / 4]
    if too_fine:
        raise ValueError(f"omega = {too_fine[0]} leaves fewer than 4 nodes "
                         f"per wavelength on ny = {grid.ny}")
    plan = TransportPlan.build(spec, grid)
    order = _sweep_order(spec, spec.feeding_group())
    rows = []
    for omega in frequencies:
        probe = oscillatory_probe(spec, grid, omega)
        sup0 = sup_norm(probe)
        hs = [grid.period_y / (2 * omega)]
        hs += [fr * grid.period_y for fr in SHIFTS]
        hs = sorted(set(hs), reverse=True)
        # K^m f is measured as it is produced; only the latest stays alive
        field = GridFunction(grid, probe.values[plan.blocks[order[2]][0]])
        for m in range(max(powers, default=0) + 1):
            if m:
                dst, src = order[(m - 1) % 3], order[(m - 2) % 3]
                field = GridFunction(grid, _group_block(
                    plan, dst, src, field.values[None])[0])
                if m not in powers:
                    continue
            moduli = [shift_diff_norm(field, h) / sup0 for h in hs]
            if not m:
                base = moduli
            if m in powers:
                for h, modulus, ref in zip(hs, moduli, base):
                    normalized = modulus / ref if ref > MODULUS_FLOOR else 0.0
                    rows.append(ModulusRow(m, omega, h, modulus, normalized))
    comp = spec.group_ranges()[spec.feeding_group()][0]
    return DiagnosticsReport(comp + 1, tuple(rows), jacobian_table(spec))
