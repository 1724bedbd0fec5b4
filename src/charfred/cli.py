"""Command-line front end.

Subcommands: validate (structural checks and the nondegeneracy table),
solve (transport-reduced second-kind solve, CSV + JSON reports),
diagnose (smoothing profile and Jacobian table), testbed (randomized
kernel-dimension inequality checks on small dense sections).

Exit codes: 0 success, 1 malformed config or unusable request,
2 validation failure, 3 non-convergence, 4 testbed violation.

CHARFRED_THREADS caps worker threads for dense assembly (default 1).
Reports are deterministic: rerunning a subcommand with the same config
and seed must produce byte-identical CSV/JSON. Wall-clock timings go to
a separate timings.json that makes no such promise.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .config import ConfigError, load_config
from .diagnostics import smoothing_profile
from .fredholm import (DISCRETE_UNKNOWN_CAP, NonConvergence,
                       finite_section_kernel_check, solve_discrete,
                       solve_neumann)
from .gridfield import sample, to_csv
from .system import validate_spec


def _threads() -> int:
    raw = os.environ.get("CHARFRED_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _write_json(payload, path: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load(args):
    try:
        return load_config(args.config), 0
    except FileNotFoundError:
        print(f"config: no such file: {args.config}", file=sys.stderr)
    except json.JSONDecodeError as exc:
        print(f"config: invalid JSON: {exc}", file=sys.stderr)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config: {problem}", file=sys.stderr)
    return None, 1


def _rejected(report) -> int:
    """Print a failed validation to stderr; 2 if it failed, else 0."""
    if report.ok:
        return 0
    for v in report.violations:
        print(f"validation: {v.rule}: {v.detail}", file=sys.stderr)
    return 2


def _load_valid(args):
    """The config if it loads and validates, else (None, exit code)."""
    cfg, code = _load(args)
    if cfg is None:
        return None, code
    code = _rejected(validate_spec(cfg.spec))
    return (None, code) if code else (cfg, 0)


def _int_list(text: str) -> list:
    return [int(part) for part in text.split(",") if part.strip()]


def cmd_validate(args) -> int:
    cfg, code = _load(args)
    if cfg is None:
        return code
    report = validate_spec(cfg.spec)
    payload = report.to_dict()
    if args.out:
        _write_json(payload, args.out)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return _rejected(report)


def cmd_solve(args) -> int:
    cfg, code = _load_valid(args)
    if cfg is None:
        return code
    start = time.perf_counter()
    f = sample(cfg.rhs, cfg.grid)
    method = args.method or cfg.method
    size = cfg.spec.n * cfg.grid.node_count
    threads = _threads()
    try:
        if method == "neumann":
            outcome = solve_neumann(cfg.spec, f, cfg.tol, cfg.max_iter)
        elif method == "discrete":
            outcome = solve_discrete(cfg.spec, f, threads=threads)
        else:
            try:
                outcome = solve_neumann(cfg.spec, f, cfg.tol, cfg.max_iter)
            except NonConvergence as exc:
                if size > DISCRETE_UNKNOWN_CAP:
                    print(f"solve: no convergence after {exc.iterations} "
                          f"iterations and {size} unknowns exceed the "
                          f"dense fallback cap", file=sys.stderr)
                    return 3
                state = "diverged" if exc.diverged else "stalled"
                print(f"solve: iteration {state} (last update "
                      f"{exc.last_diff:.3e}), falling back to the dense "
                      f"section", file=sys.stderr)
                outcome = solve_discrete(cfg.spec, f, threads=threads)
    except NonConvergence as exc:
        print(f"solve: no convergence after {exc.iterations} iterations "
              f"(last update {exc.last_diff:.3e})", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"solve: {exc}", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    to_csv(outcome.u, os.path.join(args.out, "solution.csv"))
    _write_json(outcome.to_json_dict(), os.path.join(args.out, "outcome.json"))
    _write_json({"solve_seconds": outcome.timing_seconds,
                 "total_seconds": time.perf_counter() - start},
                os.path.join(args.out, "timings.json"))
    print(f"method={outcome.method} iterations={outcome.iterations} "
          f"residual_sup={outcome.residual_sup:.3e}")
    return 0


def cmd_diagnose(args) -> int:
    cfg, code = _load_valid(args)
    if cfg is None:
        return code
    start = time.perf_counter()
    try:
        diag = smoothing_profile(cfg.spec, cfg.grid,
                                 powers=_int_list(args.powers),
                                 frequencies=_int_list(args.frequencies))
    except ValueError as exc:
        print(f"diagnose: {exc}", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    diag.to_csv(os.path.join(args.out, "diagnostics.csv"))
    _write_json(diag.to_json_dict(),
                os.path.join(args.out, "diagnostics.json"))
    _write_json({"total_seconds": time.perf_counter() - start},
                os.path.join(args.out, "timings.json"))
    worst = max((j.difference for j in diag.jacobians), default=0.0)
    print(f"rows={len(diag.rows)} triples={len(diag.jacobians)} "
          f"max_route_difference={worst:.3e}")
    return 0


def _crafted_sections(rng: np.random.Generator, powers) -> list:
    """Small matrices with eigenvalue 1 in interesting configurations."""
    cases = [("identity-3", np.eye(3)),
             ("jordan-2", np.array([[1.0, 1.0], [0.0, 1.0]]))]
    for p in powers:
        theta = 2.0 * np.pi / p
        c, s = np.cos(theta), np.sin(theta)
        cases.append((f"rotation-{p}", np.array([[c, -s], [s, c]])))
        perm = np.zeros((p, p))
        perm[np.arange(p), (np.arange(p) + 1) % p] = 1.0
        cases.append((f"cycle-{p}", perm))
    while len(cases) < 20:
        d = int(rng.integers(2, 7))
        fixed = int(rng.integers(1, d + 1))
        eig = rng.uniform(-0.9, 0.9, d)
        eig[:fixed] = 1.0
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        cases.append((f"conjugated-{len(cases)}", q @ np.diag(eig) @ q.T))
    return cases


def cmd_testbed(args) -> int:
    powers = _int_list(args.powers)
    if not powers or any(p < 2 for p in powers):
        print("testbed: powers must all be at least 2", file=sys.stderr)
        return 1
    if args.max_dim < 1 or args.count < 0:
        print("testbed: count must be nonnegative and max-dim positive",
              file=sys.stderr)
        return 1
    rng = np.random.default_rng(args.seed)
    violations = []
    checks = 0
    for index in range(args.count):
        d = int(rng.integers(1, args.max_dim + 1))
        m = rng.standard_normal((d, d))
        if rng.uniform() < 0.5:
            radius = max(np.abs(np.linalg.eigvals(m)))
            if radius > 0:
                m *= rng.uniform(0.2, 1.2) / radius
        for p in powers:
            d1, dp = finite_section_kernel_check(m, p)
            checks += 1
            if d1 > dp:
                violations.append({"case": f"random-{index}", "power": p,
                                   "dim_first": d1, "dim_power": dp})
    crafted = _crafted_sections(rng, powers)
    for name, m in crafted:
        for p in powers:
            d1, dp = finite_section_kernel_check(m, p)
            checks += 1
            if d1 > dp:
                violations.append({"case": name, "power": p,
                                   "dim_first": d1, "dim_power": dp})
    payload = {"seed": args.seed, "count": args.count,
               "max_dim": args.max_dim, "powers": powers,
               "crafted_cases": len(crafted), "checks": checks,
               "violations": violations, "ok": not violations}
    if args.out:
        _write_json(payload, args.out)
    print(f"checks={checks} violations={len(violations)}")
    for v in violations:
        print(f"testbed: {v['case']} power={v['power']}: "
              f"dim(I-M)={v['dim_first']} > dim(I-M^p)={v['dim_power']}",
              file=sys.stderr)
    return 4 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charfred",
        description="Characteristic-integral solver and operator "
                    "diagnostics for periodic hyperbolic systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a config and report "
                                        "structural and nondegeneracy "
                                        "violations")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="write the JSON report here instead of "
                                 "stdout")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="solve the boundary value problem "
                                     "and write solution.csv plus "
                                     "outcome.json")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--method", choices=("auto", "neumann", "discrete"),
                   help="override the method in the config")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("diagnose", help="measure oscillation damping "
                                        "under powers of the composed "
                                        "operator")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--powers", default="0,1,2,3")
    p.add_argument("--frequencies", default="2,4")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("testbed", help="randomized checks of the "
                                       "kernel-dimension inequality on "
                                       "dense sections")
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--max-dim", type=int, default=8)
    p.add_argument("--powers", default="2,3,4")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_testbed)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
