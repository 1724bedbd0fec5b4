"""Command-line front end.

Subcommands: validate (structural checks, the nondegeneracy table and
rhs, gamma and b evaluated at every grid node),
solve (transport-reduced second-kind solve, CSV + JSON reports),
diagnose (smoothing profile and Jacobian table), testbed (randomized
kernel-dimension inequality checks on small dense sections).

solve runs the configured method: neumann sweeps the row groups in their
coupling cycle, w_g <- f_g - (K w)_g, and counts sweeps; discrete
eliminates two row groups, solves the one-group system I + S (S the
group's block of K^3) by restarted GMRES, back-substitutes, refines
while the full residual is above its target and falling, and estimates
the kernel dimension. fredholm.solve_discrete alone decides how: the
structural certificate from powers of |K| runs at every size, and the
dense steps (the N/3-row section of I + S, its SVD, a direct solve by
LU when the count is 0 or by gelsy least squares when it finds a kernel;
O(N^2) memory, O(N^3) time) only up to its dense-section cap, so the
estimate is null only above that cap when the certificate declines.
auto runs neumann and, when it stalls or diverges, falls back to
discrete at any size. A GMRES stall is reported on stderr with its full
relative residual and GMRES iteration count. Below the cap the count is
always known, and GMRES runs only when it is 0, so a stall is solved by
LU. outcome.json carries refinements and stalled_residual. solve and
diagnose run the same validate_config as validate, and make the --out
directory, before any work, so a coefficient or right-hand side
undefined at a grid node fails all three alike. Each solve and each diagnose run builds one
TransportPlan for its grid and applies K through it; everything runs on
one thread, and no environment variable changes what is computed.

Exit codes, each failure reported in stderr lines with the prefix shown;
main alone turns an exception into a code:
0 success;
1 a config that cannot be read or is malformed ("config: "), an output
  that cannot be written ("<command>: cannot write '<path>': "), or an
  unusable request ("<command>: ");
2 a failed validation ("validation: <rule>: "), the report still written;
3 non-convergence ("solve: ");
4 a testbed violation ("testbed: ").

Reports are deterministic: rerunning a subcommand with the same config
and seed must produce byte-identical CSV/JSON. Wall-clock timings go to
a separate timings.json that makes no such promise; its phases are read
from one clock and sum to its total. A JSON report of a
record (validate, diagnostics.json) has the record's dataclass fields as
its keys; outcome.json holds norms derived from the solution instead.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from .config import ConfigError, load_config, validate_config
from .diagnostics import smoothing_profile
from .expressions import EvalError
from .fredholm import (NonConvergence, finite_section_kernel_check,
                       solve_discrete, solve_neumann)
from .gridfield import sample, text_target, to_csv


def _write_json(payload, path: str | None = None) -> None:
    """payload as sorted, indented JSON to the file at path, or to stdout;
    a dataclass is written with its fields as the keys."""
    if dataclasses.is_dataclass(payload):
        payload = dataclasses.asdict(payload)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with text_target(sys.stdout if path is None else path) as fh:
        fh.write(text)


def _rejected(report) -> int:
    """Print a failed validation to stderr; 2 if it failed, else 0."""
    if report.ok:
        return 0
    for v in report.violations:
        print(f"validation: {v.rule}: {v.detail}", file=sys.stderr)
    return 2


def _load_valid(args):
    """The config and 0 if it loads and passes validate_config, after the
    --out directory is made; else the exit code of the failed validation."""
    cfg = load_config(args.config)
    code = _rejected(validate_config(cfg))
    if not code:
        os.makedirs(args.out, exist_ok=True)
    return cfg, code


def _int_list(text: str) -> list:
    return [int(part) for part in text.split(",") if part.strip()]


def cmd_validate(args) -> int:
    report = validate_config(load_config(args.config))
    _write_json(report, args.out)
    return _rejected(report)


def cmd_solve(args) -> int:
    cfg, code = _load_valid(args)
    if code:
        return code
    method = args.method or cfg.method
    start = time.perf_counter()
    f = sample(cfg.rhs, cfg.grid)
    sampled = time.perf_counter()
    if method == "neumann":
        outcome = solve_neumann(cfg.spec, f, cfg.tol, cfg.max_iter)
    elif method == "discrete":
        outcome = solve_discrete(cfg.spec, f)
    else:
        try:
            outcome = solve_neumann(cfg.spec, f, cfg.tol, cfg.max_iter)
        except NonConvergence as exc:
            state = "diverged" if exc.diverged else "stalled"
            print(f"solve: iteration {state} (last update "
                  f"{exc.last_diff:.3e}), falling back to the discrete "
                  f"method", file=sys.stderr)
            outcome = solve_discrete(cfg.spec, f)
    if outcome.stalled_residual is not None:
        print(f"solve: GMRES stalled after {outcome.iterations} "
              f"iterations (relative residual "
              f"{outcome.stalled_residual:.3e}), solved the dense "
              f"section directly", file=sys.stderr)
    solved = time.perf_counter()
    to_csv(outcome.u, os.path.join(args.out, "solution.csv"))
    _write_json(outcome.to_json_dict(), os.path.join(args.out, "outcome.json"))
    written = time.perf_counter()
    _write_json({"sample_seconds": sampled - start,
                 "solve_seconds": solved - sampled,
                 "write_seconds": written - solved,
                 "total_seconds": written - start},
                os.path.join(args.out, "timings.json"))
    print(f"method={outcome.method} iterations={outcome.iterations} "
          f"residual_sup={outcome.residual_sup:.3e}")
    return 0


def cmd_diagnose(args) -> int:
    cfg, code = _load_valid(args)
    if code:
        return code
    start = time.perf_counter()
    # an option left out is left to smoothing_profile's default
    lists = {name: _int_list(text) for name, text in
             (("powers", args.powers), ("frequencies", args.frequencies))
             if text is not None}
    diag = smoothing_profile(cfg.spec, cfg.grid, **lists)
    profiled = time.perf_counter()
    diag.to_csv(os.path.join(args.out, "diagnostics.csv"))
    _write_json(diag, os.path.join(args.out, "diagnostics.json"))
    written = time.perf_counter()
    _write_json({"profile_seconds": profiled - start,
                 "write_seconds": written - profiled,
                 "total_seconds": written - start},
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
        raise ValueError("powers must all be at least 2")
    if args.max_dim < 1 or args.count < 0:
        raise ValueError("count must be nonnegative and max-dim positive")
    rng = np.random.default_rng(args.seed)
    # the random cases draw from rng before the crafted ones do
    cases = []
    for index in range(args.count):
        d = int(rng.integers(1, args.max_dim + 1))
        m = rng.standard_normal((d, d))
        if rng.uniform() < 0.5:
            radius = max(np.abs(np.linalg.eigvals(m)))
            if radius > 0:
                m *= rng.uniform(0.2, 1.2) / radius
        cases.append((f"random-{index}", m))
    crafted = _crafted_sections(rng, powers)
    violations = []
    checks = 0
    for name, m in cases + crafted:
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
    p.add_argument("--powers",
                   help="powers of K to measure; by default 0,1,2,3")
    p.add_argument("--frequencies",
                   help="wave counts per y period; by default 2 and 4, "
                        "less any that ny cannot resolve")
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
    """Run one subcommand; the one place an exception becomes an exit
    code and a stderr line."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config: {problem}", file=sys.stderr)
    except NonConvergence as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"{args.command}: cannot write {exc.filename!r}: "
              f"{exc.strerror}", file=sys.stderr)
    except (ValueError, EvalError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
