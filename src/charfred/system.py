"""System descriptions: block coefficients, slopes, coupling pattern.

A system has n components split into three row groups, 1..l, l+1..k and
k+1..n (1-based). Each group carries an invertible coefficient block
(a1, a2, a3); per-row slopes alpha (in t) and beta (in y) set the
characteristic direction of that row. The coupling matrix b is cyclic
over the groups, in one of two orientations:

    forward:  rows of group 1 read group 3, group 2 reads group 1,
              group 3 reads group 2
    mirrored: rows of group 1 read group 2, group 2 reads group 3,
              group 3 reads group 1

coupling_pattern() is the one table of these pairs: feeding_group() and
every sweep order of the solvers are read from it, and a transport plan
refuses a nonzero b entry outside it.

Rows 1..k carry zero data on x = 0, rows k+1..n on x = 1.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .expressions import (Expression, EvalError, check_periodicity,
                          is_literal_zero, pretty)

FORWARD = "forward"
MIRRORED = "mirrored"

DET_FLOOR = 1e-12
DEGENERACY_RTOL = 1e-12


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SystemSpec:
    n: int
    k: int
    l: int
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: tuple
    b: tuple
    orientation: str = FORWARD
    period_y: float = 1.0
    period_t: float = 1.0

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "alpha", "beta"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        object.__setattr__(self, "gamma", tuple(self.gamma))
        object.__setattr__(self, "b", tuple(tuple(row) for row in self.b))

    def group_ranges(self):
        return (range(0, self.l), range(self.l, self.k), range(self.k, self.n))

    def group_of(self, i: int) -> int:
        if i < self.l:
            return 0
        return 1 if i < self.k else 2

    def blocks(self):
        return ((slice(0, self.l), self.a1),
                (slice(self.l, self.k), self.a2),
                (slice(self.k, self.n), self.a3))

    def full_matrix(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for sl, a in self.blocks():
            out[sl, sl] = a
        return out

    def coupling_pattern(self):
        """Allowed (row group, column group) pairs of the cyclic pattern."""
        if self.orientation == MIRRORED:
            return ((0, 1), (1, 2), (2, 0))
        return ((0, 2), (1, 0), (2, 1))

    def cell_allowed(self, i: int, j: int) -> bool:
        return (self.group_of(i), self.group_of(j)) in self.coupling_pattern()

    def feeding_group(self) -> int:
        """Group whose content the coupling reads into group 1 rows."""
        return dict(self.coupling_pattern())[0]

    def row_is_uncoupled(self, i: int) -> bool:
        return all(is_literal_zero(e) for e in self.b[i])


@dataclass(frozen=True)
class EffectiveSlopes:
    """Row slopes with uncoupled rows zeroed out."""
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", _readonly(self.alpha))
        object.__setattr__(self, "beta", _readonly(self.beta))


def effective_slopes(spec: SystemSpec) -> EffectiveSlopes:
    """Zero the slopes of rows whose coupling row is identically zero.

    'Identically zero' means every entry of the row is the literal 0,
    not merely an expression that happens to vanish.
    """
    alpha = np.array(spec.alpha, dtype=float)
    beta = np.array(spec.beta, dtype=float)
    for i in range(spec.n):
        if spec.row_is_uncoupled(i):
            alpha[i] = 0.0
            beta[i] = 0.0
    return EffectiveSlopes(alpha, beta)


def nondegeneracy_value(slopes: EffectiveSlopes, i: int, j: int, s: int) -> float:
    """Transversality determinant for rows (i, j, s), 0-based."""
    a, b = slopes.alpha, slopes.beta
    return float((b[i] - b[j]) * (a[j] - a[s]) - (b[j] - b[s]) * (a[i] - a[j]))


@dataclass(frozen=True)
class TripleCheck:
    """One (i, j, s) row triple; indices are 1-based as reported."""
    triple: tuple[int, int, int]
    value: float
    cyclic_value: float
    exempt: bool
    degenerate: bool


def check_nondegeneracy(spec: SystemSpec) -> list[TripleCheck]:
    """Evaluate the transversality determinant on every group triple.

    A triple is exempt when both first-group and second-group effective
    alpha vanish. The cyclic variant (roles rotated one step) is
    computed for reporting only; degeneracy is judged on the stated
    value against a slope-squared scale.
    """
    slopes = effective_slopes(spec)
    mags = np.concatenate([np.abs(slopes.alpha), np.abs(slopes.beta)])
    scale = max(1.0, float(mags.max(initial=0.0))) ** 2
    g1, g2, g3 = spec.group_ranges()
    out = []
    for i in g1:
        for j in g2:
            for s in g3:
                value = nondegeneracy_value(slopes, i, j, s)
                cyclic = nondegeneracy_value(slopes, j, s, i)
                exempt = bool(slopes.alpha[i] == 0.0
                              and slopes.alpha[j] == 0.0)
                degenerate = bool(abs(value) <= DEGENERACY_RTOL * scale)
                out.append(TripleCheck((i + 1, j + 1, s + 1), value, cyclic,
                                       exempt, degenerate))
    return out


@dataclass(frozen=True)
class Violation:
    rule: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple
    nondegeneracy: tuple


def validate_spec(spec: SystemSpec) -> ValidationReport:
    """Check structure, determinants, pattern, periodicity, nondegeneracy.

    Violations are collected, not thrown; ok is True iff none were found.
    """
    bad = []
    n, k, l = spec.n, spec.k, spec.l
    if not (n >= 3 and 2 <= k < n and 1 <= l <= k - 1):
        bad.append(Violation("dims", f"need n >= 3, 2 <= k < n, 1 <= l <= k-1;"
                                     f" got n={n}, k={k}, l={l}"))
    if spec.orientation not in (FORWARD, MIRRORED):
        bad.append(Violation("orientation",
                             f"unknown orientation {spec.orientation!r}"))
    if not (0 < spec.period_y < np.inf and 0 < spec.period_t < np.inf):
        bad.append(Violation("periods", "periods must be positive and finite"))

    structural = not bad
    sizes = (l, k - l, n - k)
    for name, a, size in (("a1", spec.a1, sizes[0]), ("a2", spec.a2, sizes[1]),
                          ("a3", spec.a3, sizes[2])):
        if structural and a.shape != (size, size):
            bad.append(Violation("block-shape",
                                 f"{name} must be {size}x{size}, got {a.shape}"))
        elif a.ndim != 2 or a.shape[0] != a.shape[1]:
            bad.append(Violation("block-shape", f"{name} must be square"))
    for name, vec in (("alpha", spec.alpha), ("beta", spec.beta)):
        if vec.shape != (n,):
            bad.append(Violation("slopes", f"{name} must have length {n}"))
    if len(spec.gamma) != n:
        bad.append(Violation("gamma-shape", f"gamma must have length {n}"))
    if len(spec.b) != n or any(len(row) != n for row in spec.b):
        bad.append(Violation("b-shape", "b must be an n by n expression table"))

    shapes_ok = not any(v.rule in ("block-shape", "slopes", "gamma-shape",
                                   "b-shape") for v in bad)
    blocks_ok = not any(v.rule == "block-shape" for v in bad)

    if blocks_ok:
        for name, a in (("a1", spec.a1), ("a2", spec.a2), ("a3", spec.a3)):
            if a.ndim == 2 and a.shape[0] == a.shape[1] and a.size:
                det = float(np.linalg.det(a))
                if abs(det) <= DET_FLOOR:
                    bad.append(Violation(f"det-{name}",
                                         f"|det {name}| = {abs(det):.3e} "
                                         f"<= {DET_FLOOR}"))

    if structural and shapes_ok:
        for i in range(n):
            for j in range(n):
                e = spec.b[i][j]
                if not spec.cell_allowed(i, j) and not is_literal_zero(e):
                    bad.append(Violation(
                        "pattern", f"b[{i + 1}][{j + 1}] = '{pretty(e)}' lies "
                                   f"outside the {spec.orientation} pattern"))
        for label, e in coefficient_entries(spec):
            try:
                if not check_periodicity(e, spec.period_y, spec.period_t):
                    bad.append(Violation("periodicity",
                                         f"{label} = '{pretty(e)}' is not "
                                         f"(period_y, period_t)-periodic"))
            except EvalError as err:
                bad.append(Violation("expr-eval", f"{label}: {err}"))

    triples = ()
    if structural and shapes_ok:
        triples = tuple(check_nondegeneracy(spec))
        for tc in triples:
            if tc.degenerate and not tc.exempt:
                bad.append(Violation(
                    "nondegeneracy",
                    f"triple ({','.join(map(str, tc.triple))}) value "
                    f"{tc.value:.3e}"))

    return ValidationReport(not bad, tuple(bad), triples)


def coefficient_entries(spec: SystemSpec):
    """(label, expression) for each gamma entry and nonzero b entry,
    labelled 1-based as gamma[i] and b[i][j]."""
    for i, e in enumerate(spec.gamma):
        yield f"gamma[{i + 1}]", e
    for i, row in enumerate(spec.b):
        for j, e in enumerate(row):
            if not is_literal_zero(e):
                yield f"b[{i + 1}][{j + 1}]", e


def spec_from_strings(n: int, k: int, l: int, a1, a2, a3, alpha, beta,
                      gamma: Sequence[str], b: Sequence[Sequence[str]],
                      orientation: str = FORWARD, period_y: float = 1.0,
                      period_t: float = 1.0) -> SystemSpec:
    """Build a spec parsing gamma and b entries from text."""
    from .expressions import parse
    return SystemSpec(n=n, k=k, l=l, a1=a1, a2=a2, a3=a3, alpha=alpha,
                      beta=beta, gamma=tuple(parse(s) for s in gamma),
                      b=tuple(tuple(parse(s) for s in row) for row in b),
                      orientation=orientation, period_y=period_y,
                      period_t=period_t)
