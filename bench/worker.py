"""One workload in a fresh interpreter: set up, run, check, report.

    python -m bench.worker INPUTS WORKDIR WORKLOAD SECONDS TRACE SETUP_ONLY

The parent starts its clock before starting this process; the line
``ready`` on stdout marks the end of set-up (import, config write and
load, validation, right-hand-side sampling), right before the first
solver call. Unless SETUP_ONLY is 1, operations then repeat until
SECONDS would be exceeded by one more (at least MIN_OPS timed ones),
each checked outside its timed region. The calibration kernel runs
between operations, so each operation also gets a calibrated time (see
``bench/calibration.py``). The first operation is a warm-up:
it is checked and counted as attempted, but not timed into the metrics,
since glibc's malloc and numpy's lazy imports settle during it. The last
stdout line is a JSON report.

With TRACE 1, set-up is traced, and after the warm-up traced and
untraced operations alternate so the tracing overhead can be measured in
the same process; spans go to WORKDIR/spans-<pid>.json once, at the end.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback

import charfred as cf

from bench import calibration, metrics, tracing, workloads

MIN_OPS = 2


def _setup(workload, inputs_path: str, workdir: str) -> workloads.Context:
    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    config_path = os.path.join(workdir, f"config-{os.getpid()}.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(inputs["config"], fh)
    cfg = cf.load_config(config_path)
    report = cf.validate_spec(cfg.spec)
    if not report.ok:
        raise ValueError(f"{workload.name}: generated spec fails validation:"
                         f" {report.violations}")
    f = cf.sample(cfg.rhs, cfg.grid)
    return workloads.Context(workdir, inputs, config_path, cfg, f)


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        deps = mod.show_config(mode="dicts")["Build Dependencies"]
        info = deps.get("blas", {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    threads = {k: os.environ.get(k) for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "CHARFRED_THREADS")}
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
            "thread_env": threads,
            "charfred": os.path.dirname(cf.__file__)}


def main(argv) -> int:
    inputs_path, workdir, name, seconds, trace, setup_only = argv
    seconds = float(seconds)
    trace, setup_only = trace == "1", setup_only == "1"
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer(metrics.named_spans()) if trace else None
    if tracer:
        tracer.op = "setup"
        tracer.install()
    ctx = _setup(workload, inputs_path, workdir)
    if tracer:
        tracer.uninstall()
    print("ready", flush=True)
    ops = []
    if not setup_only:
        ops.append(_one_op(workload, ctx, None, "warmup"))
        calibration.kernel_s()
        before = calibration.kernel_s()
        start = time.perf_counter()
        while (len(ops) <= MIN_OPS or time.perf_counter() - start
               + ops[-1]["wall_s"] <= seconds):
            ops.append(_one_op(workload, ctx, tracer, len(ops), before))
            before = ops[-1]["calibration_after_s"]
    report = {"ops": ops,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "environment": environment() if not setup_only else None}
    if tracer:
        tracer.dump(os.path.join(workdir, f"spans-{os.getpid()}.json"))
        report["spans"] = f"spans-{os.getpid()}.json"
    print(json.dumps(report), flush=True)
    return 0


def _one_op(workload, ctx, tracer, index, before=None) -> dict:
    """Run, time and check one operation.

    With ``before`` (the calibration kernel's time right before it), the
    kernel runs again right after, and the record gets the calibrated
    time as "seconds".
    """
    traced = tracer is not None and index % 2 == 1
    if traced:
        tracer.op = index
        tracer.install()
    error = None
    start = time.perf_counter()
    try:
        result = workload.run(ctx)
    except Exception:
        error = traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    if traced:
        tracer.uninstall()
    record = {"index": index, "seconds": elapsed, "wall_s": elapsed,
              "traced": traced}
    if before is not None:
        after = calibration.kernel_s()
        record.update(seconds=elapsed * calibration.scale(before, after),
                      calibration_after_s=after)
    if error is None:
        try:
            check = workload.check(ctx, result)
        except Exception:
            error = traceback.format_exc(limit=3)
    if error is not None:
        record.update(ok=False, detail=error)
        print(f"{workload.name} op {index} failed:\n{error}", file=sys.stderr)
    else:
        record.update(ok=check.ok, detail=check.detail,
                      accuracy_err=check.accuracy_err)
        if not check.ok:
            print(f"{workload.name} op {index} failed its check: "
                  f"{check.detail}", file=sys.stderr)
    return record


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
