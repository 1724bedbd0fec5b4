"""Run configuration: one JSON document describing system, grid, rhs.

All problems with a document are collected and reported together, so a
config with three typos produces one ConfigError naming all three.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .expressions import ParseError, parse
from .gridfield import Grid
from .system import FORWARD, MIRRORED, SystemSpec

SCHEMA_VERSION = 1
SOLVE_UNKNOWN_CAP = 2_000_000
METHODS = ("auto", "neumann", "discrete")


class ConfigError(ValueError):
    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class RunConfig:
    spec: SystemSpec
    grid: Grid
    method: str
    tol: float
    max_iter: int
    rhs: tuple


def _entry_text(cell) -> str:
    if cell is None:
        return "0"
    if isinstance(cell, (int, float)) and not isinstance(cell, bool):
        return repr(cell)
    if isinstance(cell, str):
        return cell
    raise TypeError(f"expected string or number, got {type(cell).__name__}")


def _parse_entry(cell, where: str, problems: list):
    try:
        return parse(_entry_text(cell))
    except (ParseError, TypeError) as exc:
        problems.append(f"{where}: {exc}")
        return parse("0")


def _matrix(node, where: str, problems: list):
    try:
        arr = np.array(node, dtype=float)
    except (TypeError, ValueError):
        problems.append(f"{where}: not a numeric matrix")
        return np.eye(1)
    if arr.ndim != 2:
        problems.append(f"{where}: expected a 2-d array, got {arr.ndim}-d")
        return np.eye(1)
    return arr


def _vector(node, where: str, problems: list):
    try:
        arr = np.array(node, dtype=float)
    except (TypeError, ValueError):
        problems.append(f"{where}: not a numeric vector")
        return np.zeros(1)
    if arr.ndim != 1:
        problems.append(f"{where}: expected a 1-d array, got {arr.ndim}-d")
        return np.zeros(1)
    return arr


def _get(mapping, key, where, problems, default=None, required=True):
    if key in mapping:
        return mapping[key]
    if required:
        problems.append(f"{where}: missing key {key!r}")
    return default


def load_config(source) -> RunConfig:
    """Load a RunConfig from a path, a file object, or a parsed dict."""
    if isinstance(source, dict):
        doc = source
    elif isinstance(source, (str, bytes)):
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = json.load(source)
    problems: list = []
    if not isinstance(doc, dict):
        raise ConfigError(["top level: expected a JSON object"])
    if doc.get("schema") != SCHEMA_VERSION:
        problems.append(f"schema: expected {SCHEMA_VERSION}, "
                        f"got {doc.get('schema')!r}")

    sysnode = _get(doc, "system", "top level", problems, default={})
    gridnode = _get(doc, "grid", "top level", problems, default={})
    solvernode = doc.get("solver", {})
    rhsnode = _get(doc, "rhs", "top level", problems, default=[])
    if not isinstance(sysnode, dict):
        problems.append("system: expected an object")
        sysnode = {}
    if not isinstance(gridnode, dict):
        problems.append("grid: expected an object")
        gridnode = {}
    if not isinstance(solvernode, dict):
        problems.append("solver: expected an object")
        solvernode = {}

    n = _get(sysnode, "n", "system", problems, default=3)
    k = _get(sysnode, "k", "system", problems, default=2)
    l = _get(sysnode, "l", "system", problems, default=1)
    a1 = _matrix(_get(sysnode, "a1", "system", problems, default=[[1.0]]),
                 "system.a1", problems)
    a2 = _matrix(_get(sysnode, "a2", "system", problems, default=[[1.0]]),
                 "system.a2", problems)
    a3 = _matrix(_get(sysnode, "a3", "system", problems, default=[[1.0]]),
                 "system.a3", problems)
    alpha = _vector(_get(sysnode, "alpha", "system", problems,
                         default=[0.0] * 3), "system.alpha", problems)
    beta = _vector(_get(sysnode, "beta", "system", problems,
                        default=[0.0] * 3), "system.beta", problems)
    orientation = sysnode.get("orientation", FORWARD)
    if orientation not in (FORWARD, MIRRORED):
        problems.append(f"system.orientation: expected {FORWARD!r} or "
                        f"{MIRRORED!r}, got {orientation!r}")
        orientation = FORWARD
    period_y = sysnode.get("period_y", 1.0)
    period_t = sysnode.get("period_t", 1.0)

    gamma_node = _get(sysnode, "gamma", "system", problems, default=[])
    if not isinstance(gamma_node, list):
        problems.append("system.gamma: expected a list of expressions")
        gamma_node = []
    gamma = [_parse_entry(c, f"system.gamma[{i}]", problems)
             for i, c in enumerate(gamma_node)]
    while len(gamma) < (n if isinstance(n, int) else 3):
        gamma.append(parse("0"))

    b_node = _get(sysnode, "b", "system", problems, default=[])
    if not isinstance(b_node, list) or any(not isinstance(r, list)
                                           for r in b_node):
        problems.append("system.b: expected a list of rows")
        b_node = []
    nn = n if isinstance(n, int) and n >= 3 else 3
    b = [[parse("0")] * nn for _ in range(nn)]
    for i, row in enumerate(b_node[:nn]):
        for j, cell in enumerate(row[:nn]):
            b[i][j] = _parse_entry(cell, f"system.b[{i}][{j}]", problems)
    if len(b_node) != nn or any(len(r) != nn for r in b_node):
        problems.append(f"system.b: expected {nn} rows of {nn} entries")

    sizes = []
    for name in ("nx", "ny", "nt"):
        size = _get(gridnode, name, "grid", problems, default=4)
        if isinstance(size, bool) or not isinstance(size, Integral):
            problems.append(f"grid.{name}: expected an integer, got {size!r}")
            size = 4
        sizes.append(int(size))
    nx, ny, nt = sizes

    method = solvernode.get("method", "auto")
    if method not in METHODS:
        problems.append(f"solver.method: expected one of {METHODS}, "
                        f"got {method!r}")
        method = "auto"
    tol = solvernode.get("tol", 1e-10)
    max_iter = solvernode.get("max_iter", 200)
    if not isinstance(max_iter, int) or max_iter < 1:
        problems.append(f"solver.max_iter: expected a positive integer, "
                        f"got {max_iter!r}")
        max_iter = 200
    try:
        tol = float(tol)
        if not tol > 0:
            raise ValueError
    except (TypeError, ValueError):
        problems.append(f"solver.tol: expected a positive number, got {tol!r}")
        tol = 1e-10

    if not isinstance(rhsnode, list):
        problems.append("rhs: expected a list of expressions")
        rhsnode = []
    rhs = tuple(_parse_entry(c, f"rhs[{i}]", problems)
                for i, c in enumerate(rhsnode))
    if isinstance(n, int) and len(rhs) != n:
        problems.append(f"rhs: expected {n} components, got {len(rhs)}")

    spec = None
    if not problems:
        try:
            spec = SystemSpec(n=n, k=k, l=l, a1=a1, a2=a2, a3=a3,
                              alpha=alpha, beta=beta,
                              gamma=tuple(gamma[:n]),
                              b=tuple(tuple(r) for r in b),
                              orientation=orientation,
                              period_y=float(period_y),
                              period_t=float(period_t))
            grid = Grid(nx=nx, ny=ny, nt=nt,
                        period_y=float(period_y), period_t=float(period_t))
        except (TypeError, ValueError) as exc:
            problems.append(str(exc))
    if not problems:
        unknowns = spec.n * grid.node_count
        if unknowns > SOLVE_UNKNOWN_CAP:
            problems.append(f"grid: {unknowns} unknowns exceeds the solve "
                            f"cap of {SOLVE_UNKNOWN_CAP}")
    if problems:
        raise ConfigError(problems)
    return RunConfig(spec=spec, grid=grid, method=method, tol=tol,
                     max_iter=max_iter, rhs=rhs)
