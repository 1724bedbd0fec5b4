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

from .characteristics import BlockAdjugates, sample_coupling
from .fredholm import apply_k
from .gridfield import (Grid, GridFunction, shift_diff_norm, sup_norm,
                        text_target)
from .system import EffectiveSlopes, SystemSpec, effective_slopes, nondegeneracy_value

MODULUS_FLOOR = 1e-12


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

    def to_dict(self):
        return {"power": self.power, "omega": self.omega, "h": self.h,
                "modulus": self.modulus, "normalized": self.normalized}


@dataclass(frozen=True)
class JacobianRow:
    """Triple indices are 1-based, as in validation reports."""
    i: int
    j: int
    s: int
    jacobian: float
    condition: float
    difference: float

    def to_dict(self):
        return {"triple": [self.i, self.j, self.s], "jacobian": self.jacobian,
                "condition": self.condition, "difference": self.difference}


@dataclass(frozen=True)
class DiagnosticsReport:
    feeding_component: int
    rows: tuple
    jacobians: tuple
    skipped_nodes: int

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

    def to_json_dict(self):
        return {
            "feeding_component": self.feeding_component,
            "rows": [r.to_dict() for r in self.rows],
            "jacobians": [j.to_dict() for j in self.jacobians],
            "skipped_nodes": self.skipped_nodes,
        }

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
                out.append(JacobianRow(i + 1, j + 1, s + 1, jac, cond,
                                       abs(jac - cond)))
    return tuple(out)


def smoothing_profile(spec: SystemSpec, grid: Grid, powers=(0, 1, 2, 3),
                      frequencies=(4, 8), shifts=(0.25, 0.125, 0.0625),
                      cache: BlockAdjugates | None = None) -> DiagnosticsReport:
    """Shift-difference moduli of K^m applied to single-frequency probes.

    frequencies are integer wave counts per period; each must leave at
    least 4 nodes per wavelength (omega <= ny/4). shifts are dyadic
    fractions of the y period; the half-wavelength shift Y/(2 omega) is
    always measured as well. The normalized column divides each modulus
    by its power-0 counterpart, cancelling interpolation smearing; rows
    whose reference modulus is below 1e-12 report 0 there.
    """
    powers = sorted(set(int(p) for p in powers))
    if powers and powers[0] < 0:
        raise ValueError("powers must be nonnegative")
    cache = cache or BlockAdjugates.from_spec(spec)
    coupling = sample_coupling(spec, grid)
    rows = []
    skipped_total = 0
    for omega in sorted(int(w) for w in frequencies):
        if omega < 1:
            raise ValueError("frequencies must be positive integers")
        if omega > grid.ny / 4:
            raise ValueError(f"omega = {omega} leaves fewer than 4 nodes "
                             f"per wavelength on ny = {grid.ny}")
        probe = oscillatory_probe(spec, grid, omega)
        sup0 = sup_norm(probe)
        hs = [grid.period_y / (2 * omega)]
        hs += [float(fr) * grid.period_y for fr in shifts]
        hs = sorted(set(hs), reverse=True)
        fields = {0: probe}
        for m in range(1, max(powers, default=0) + 1):
            fields[m] = apply_k(spec, fields[m - 1], cache, coupling)
        base = {}
        for h in hs:
            sd = shift_diff_norm(probe, (0.0, h, 0.0))
            base[h] = sd.value / sup0
        for m in powers:
            for h in hs:
                sd = shift_diff_norm(fields[m], (0.0, h, 0.0))
                skipped_total += sd.skipped
                modulus = sd.value / sup0
                if m == 0:
                    normalized = 1.0 if base[h] > MODULUS_FLOOR else 0.0
                elif base[h] > MODULUS_FLOOR:
                    normalized = modulus / base[h]
                else:
                    normalized = 0.0
                rows.append(ModulusRow(m, omega, h, modulus, normalized))
    comp = spec.group_ranges()[spec.feeding_group()][0]
    return DiagnosticsReport(comp + 1, tuple(rows), jacobian_table(spec),
                             skipped_total)
