"""charfred benchmark: one seeded workload, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``, nothing needs installing. The seed builds the inputs here,
in the parent process; each workload then runs single-process in fresh
subprocesses (see ``bench/worker.py``):

- SETUP_REPEATS set-up-only interpreters plus the measuring one give
  the set-up samples, timed from process start to the ``ready`` line;
- the measuring interpreter repeats the operation for S seconds and
  checks every result outside the timed region.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run, in
which traced and untraced operations alternate. The line before it,
``record {...}``, holds everything else: per-operation samples, the tail
percentile and its sample count, accuracy, error rate, work counts and
the environment.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import calibration, metrics, tracing  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 4
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # One BLAS thread unless the caller chose a number: the whole program
    # then runs on one core, like the calibration kernel, and load on the
    # other core cannot slow the dense solves of solve-section.
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    return env


def _run_worker(inputs: Path, workdir: Path, workload: str, seconds: float,
                trace: bool, setup_only: bool):
    """(calibrated set-up s, wall set-up s, report) of one fresh worker.

    The set-up time is calibrated by the import reference timed right
    before the process starts.
    """
    env = _child_env()
    reference = calibration.import_s(env, ROOT)
    cmd = [sys.executable, "-m", "bench.worker", str(inputs), str(workdir),
           workload, repr(seconds), "1" if trace else "0",
           "1" if setup_only else "0"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"worker for {workload} exited with code {code}")
    factor = calibration.IMPORT_REFERENCE_S / reference
    return setup_s * factor, setup_s, json.loads(rest.strip().splitlines()[-1])


def _traced_tables(workdir: Path, report: dict):
    spans = tracing.load_spans(str(workdir / report["spans"]))
    return tracing.per_op(spans)


def _calibrated(table: dict, factor: float) -> dict:
    """A per_op row set with its self times scaled like its operation."""
    return {span: {k: v * factor if k == "self_s" else v
                   for k, v in row.items()}
            for span, row in table.items()}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    inputs = wl.make_inputs(seed)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
        workdir = Path(tmp)
        inputs_path = workdir / "inputs.json"
        inputs_path.write_text(json.dumps(inputs), encoding="utf-8")
        setups, setup_walls, setup_tables, tables = [], [], [], {}
        # set-up-only workers first; the last one measures the operations
        for i in range(SETUP_REPEATS + 1):
            setup_s, wall_s, report = _run_worker(
                inputs_path, workdir, workload, seconds, trace,
                setup_only=i < SETUP_REPEATS)
            setups.append(setup_s)
            setup_walls.append(wall_s)
            if trace:
                tables = _traced_tables(workdir, report)
                setup_tables.append(_calibrated(tables.get("setup", {}),
                                                setup_s / wall_s))
    charfred_dir = Path(report["environment"]["charfred"]).resolve()
    if charfred_dir != ROOT / "src" / "charfred":
        raise BenchError(f"imported charfred from {charfred_dir}, not from "
                         f"this checkout")
    return summarize(wl, seed, seconds, trace, inputs, setups, setup_walls,
                     report, tables, setup_tables)


def summarize(wl, seed, seconds, trace, inputs, setups, setup_walls, report,
              tables, setup_tables) -> dict:
    """The record and the result line; every time in them is calibrated,
    except the *_wall_s entries of the record."""
    ops = report["ops"]
    failed = sum(not op["ok"] for op in ops)
    timed = [op for op in ops if op["index"] != "warmup"]
    plain = [op["seconds"] for op in timed if not op["traced"]]
    tail_value, tail_pct, beyond = metrics.tail(plain)
    grid = inputs["config"]["grid"]
    nodes = (grid["nx"] + 1) * grid["ny"] * grid["nt"]
    accuracy = [op["accuracy_err"] for op in ops
                if op.get("accuracy_err") is not None]
    record = {
        "workload": wl.name, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "grid": grid, "unknowns": inputs["config"]["system"]["n"] * nodes,
        "attempted": len(ops), "failed": failed,
        "error_rate": failed / len(ops),
        "accuracy_err": statistics.median(accuracy) if accuracy else None,
        "warmup_wall_s": ops[0]["wall_s"],
        "op_samples_s": plain,
        "op_samples_wall_s": [op["wall_s"] for op in timed
                              if not op["traced"]],
        "calibration_s": [op["calibration_after_s"] for op in timed],
        "op_s_tail": tail_value,
        "op_s_tail_percentile": tail_pct, "op_s_tail_beyond": beyond,
        "op_s_tail_samples": len(plain),
        "setup_samples_s": setups,
        "setup_samples_wall_s": setup_walls,
        "checks": sorted({op["detail"] for op in ops}),
        "environment": report["environment"],
    }
    e2e = {"op_s": statistics.median(plain),
           "setup_s": statistics.median(setups),
           "peak_rss_mb": report["peak_rss_mb"]}
    correct = failed == 0
    if trace:
        traced_ops = {op["index"]: _calibrated(tables.get(op["index"], {}),
                                               op["seconds"] / op["wall_s"])
                      for op in timed if op["traced"]}
        counts = [metrics.count_fields(t) for t in traced_ops.values()]
        repeat = all(c == counts[0] for c in counts)
        correct = correct and repeat
        record["work_counts"] = counts[0]
        record["work_counts_repeat"] = repeat
        layers = metrics.layer_values(traced_ops, setup_tables)
        traced_s = [op["seconds"] for op in timed if op["traced"]]
        layers["trace.overhead_s"] = (statistics.median(traced_s)
                                      - statistics.median(plain))
        record["end_to_end_untraced_ops"] = e2e
        record["op_s_traced"] = statistics.median(traced_s)
        values = {(m, u): layers[m] for m, u in metrics.PER_LAYER}
    else:
        values = {(m, u): e2e[m] for m, u, _, _ in metrics.END_TO_END}
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": {m: {"value": v, "unit": u}
                          for (m, u), v in values.items()}}
    return {"record": record, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "charfred" / "__init__.py").is_file():
        print(f"bench: no charfred sources under {ROOT / 'src'}; run from "
              f"the root of a source checkout", file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("record " + json.dumps(out["record"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
