"""Run configuration: one JSON document describing system, grid, rhs.

All problems with a document are collected and reported together, so a
config with three typos produces one ConfigError naming all three.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .expressions import EvalError, ParseError, parse
from .gridfield import Grid, evaluate_at_nodes, text_target
from .system import (FORWARD, MIRRORED, SystemSpec, ValidationReport,
                     Violation, coefficient_entries, validate_spec)

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


def _holds_bool(node) -> bool:
    if isinstance(node, list):
        return any(_holds_bool(cell) for cell in node)
    return isinstance(node, bool)


def _array(node, ndim: int, where: str, problems: list):
    """A finite numeric matrix (ndim 2) or vector (ndim 1); bools, which
    float() would read as 0 and 1, are not numbers here."""
    fallback = np.eye(1) if ndim == 2 else np.zeros(1)
    try:
        arr = np.array(node, dtype=float)
    except (TypeError, ValueError):
        kind = "matrix" if ndim == 2 else "vector"
        problems.append(f"{where}: not a numeric {kind}")
        return fallback
    if arr.ndim != ndim:
        problems.append(f"{where}: expected a {ndim}-d array, "
                        f"got {arr.ndim}-d")
        return fallback
    if _holds_bool(node) or not np.isfinite(arr).all():
        problems.append(f"{where}: expected finite numbers, got {node!r}")
        return fallback
    return arr


def _integer(value, where: str, problems: list, default: int) -> int:
    if isinstance(value, bool) or not isinstance(value, Integral):
        problems.append(f"{where}: expected an integer, got {value!r}")
        return default
    return int(value)


def _number(value, where: str, problems: list, default: float) -> float:
    """A finite float; bools, and whatever float() rejects, are not."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        problems.append(f"{where}: expected a finite number, got {value!r}")
        return default
    return number


def _get(mapping, key, where, problems, default=None):
    """mapping[key], or default after a missing-key problem; a mapping of
    None is a section already reported, so its keys add no problem."""
    if mapping is None:
        return default
    if key not in mapping:
        problems.append(f"{where}: missing key {key!r}")
    return mapping.get(key, default)


def _section(doc, key, problems):
    """doc[key] if it is an object; else None after one problem."""
    node = _get(doc, key, "top level", problems)
    if key in doc and not isinstance(node, dict):
        problems.append(f"{key}: expected an object")
        return None
    return node


def _get_list(mapping, key, where, problems, rows=False):
    """mapping[key] if it is a list (of lists, when rows); else None after
    at most one problem, as _get reports a missing key."""
    if mapping is None or key not in mapping:
        return _get(mapping, key, where, problems)
    node = mapping[key]
    if isinstance(node, list) and not (
            rows and any(not isinstance(r, list) for r in node)):
        return node
    label = key if where == "top level" else f"{where}.{key}"
    what = "rows" if rows else "expressions"
    problems.append(f"{label}: expected a list of {what}")
    return None


def load_config(source) -> RunConfig:
    """Load a RunConfig from a path (a str, bytes or os.PathLike), a file
    object, or a parsed dict.

    A source that cannot be read, or whose text is not UTF-8 JSON, raises
    ConfigError like every other problem with the document. Its message
    shows a path as text (os.fsdecode), so a Path, a str and bytes naming
    one file read the same.
    """
    if isinstance(source, dict):
        doc = source
    else:
        if isinstance(source, (bytes, os.PathLike)):
            source = os.fsdecode(source)
        try:
            with text_target(source, "r") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ConfigError([f"no such file: {source}"]) from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError([f"invalid JSON: {exc}"]) from None
        except OSError as exc:
            raise ConfigError([f"cannot read {source!r}: {exc.strerror}"]) \
                from None
    problems: list = []
    if not isinstance(doc, dict):
        raise ConfigError(["top level: expected a JSON object"])
    if doc.get("schema") != SCHEMA_VERSION:
        problems.append(f"schema: expected {SCHEMA_VERSION}, "
                        f"got {doc.get('schema')!r}")

    # a section or list that is missing or malformed is reported once:
    # it reads as None below, and nothing checks its keys or length
    sysnode = _section(doc, "system", problems)
    gridnode = _section(doc, "grid", problems)
    solvernode = doc.get("solver", {})
    rhsnode = _get_list(doc, "rhs", "top level", problems)
    if not isinstance(solvernode, dict):
        problems.append("solver: expected an object")
        solvernode = {}

    reported = len(problems)
    n = _integer(_get(sysnode, "n", "system", problems, default=3),
                 "system.n", problems, 3)
    if n < 1:
        problems.append(f"system.n: expected a positive integer, got {n!r}")
        n = 3
    # gamma, b and rhs are measured against n only when n itself was read
    # from a system section, not taken as the fallback of a missing one
    n_read = sysnode is not None and len(problems) == reported
    k, l = (_integer(_get(sysnode, key, "system", problems,
                          default=default), f"system.{key}", problems,
                     default)
            for key, default in (("k", 2), ("l", 1)))
    a1, a2, a3 = (_array(_get(sysnode, key, "system", problems,
                              default=[[1.0]]), 2, f"system.{key}", problems)
                  for key in ("a1", "a2", "a3"))
    alpha, beta = (_array(_get(sysnode, key, "system", problems,
                               default=[0.0] * 3), 1, f"system.{key}",
                          problems)
                   for key in ("alpha", "beta"))
    optional = sysnode or {}
    orientation = optional.get("orientation", FORWARD)
    if orientation not in (FORWARD, MIRRORED):
        problems.append(f"system.orientation: expected {FORWARD!r} or "
                        f"{MIRRORED!r}, got {orientation!r}")
        orientation = FORWARD
    period_y, period_t = (_number(optional.get(key, 1.0), f"system.{key}",
                                  problems, 1.0)
                          for key in ("period_y", "period_t"))

    gamma_node = _get_list(sysnode, "gamma", "system", problems)
    gamma = tuple(_parse_entry(c, f"system.gamma[{i}]", problems)
                  for i, c in enumerate(gamma_node or []))
    if n_read and gamma_node is not None and len(gamma) != n:
        problems.append(f"system.gamma: expected {n} entries, "
                        f"got {len(gamma)}")

    b_node = _get_list(sysnode, "b", "system", problems, rows=True)
    nn = max(n, 3)
    b = [[parse("0")] * nn for _ in range(nn)]
    for i, row in enumerate((b_node or [])[:nn]):
        for j, cell in enumerate(row[:nn]):
            b[i][j] = _parse_entry(cell, f"system.b[{i}][{j}]", problems)
    if n_read and b_node is not None and (
            len(b_node) != nn or any(len(r) != nn for r in b_node)):
        problems.append(f"system.b: expected {nn} rows of {nn} entries")

    nx, ny, nt = (_integer(_get(gridnode, key, "grid", problems, default=4),
                           f"grid.{key}", problems, 4)
                  for key in ("nx", "ny", "nt"))

    method = solvernode.get("method", "auto")
    if method not in METHODS:
        problems.append(f"solver.method: expected one of {METHODS}, "
                        f"got {method!r}")
        method = "auto"
    max_iter = _integer(solvernode.get("max_iter", 200), "solver.max_iter",
                        problems, 200)
    if max_iter < 1:
        problems.append(f"solver.max_iter: expected a positive integer, "
                        f"got {max_iter!r}")
        max_iter = 200
    tol = _number(solvernode.get("tol", 1e-10), "solver.tol", problems,
                  1e-10)
    if tol <= 0:
        problems.append(f"solver.tol: expected a positive number, got {tol!r}")
        tol = 1e-10

    rhs = tuple(_parse_entry(c, f"rhs[{i}]", problems)
                for i, c in enumerate(rhsnode or []))
    if n_read and rhsnode is not None and len(rhs) != n:
        problems.append(f"rhs: expected {n} components, got {len(rhs)}")

    spec = None
    if not problems:
        try:
            spec = SystemSpec(n=n, k=k, l=l, a1=a1, a2=a2, a3=a3,
                              alpha=alpha, beta=beta,
                              gamma=gamma,
                              b=tuple(tuple(r) for r in b),
                              orientation=orientation,
                              period_y=period_y, period_t=period_t)
            grid = Grid(nx=nx, ny=ny, nt=nt,
                        period_y=period_y, period_t=period_t)
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


def validate_config(cfg: RunConfig) -> ValidationReport:
    """validate_spec, plus rhs, gamma and b evaluated at the grid's nodes,
    which the spec's own sample points can miss; each entry undefined at
    a node adds one expr-eval violation naming it and the node."""
    report = validate_spec(cfg.spec)
    entries = [(f"rhs[{i + 1}]", e) for i, e in enumerate(cfg.rhs)]
    bad = []
    for label, e in entries + list(coefficient_entries(cfg.spec)):
        try:
            evaluate_at_nodes(e, cfg.grid, label)
        except EvalError as err:
            bad.append(Violation("expr-eval", str(err)))
    if not bad:
        return report
    return replace(report, ok=False, violations=report.violations + tuple(bad))
