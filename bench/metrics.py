"""Metric names, units and the arithmetic that turns samples into them.

These names are the interface later changes cite; ``BENCHMARK.json``
lists the same ones and a test keeps the two in step.
"""
from __future__ import annotations

import statistics

# name, unit, better, bound (the share of the parent's median by which the
# metric may worsen before a change counts as a regression). op_s_tail is
# computed and recorded but not gated: with 20 or fewer operations in a
# run it is the run's maximum, whose spread between runs exceeds what the
# largest permitted bound (0.25) can hold; see bench/README.md.
END_TO_END = (
    ("op_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Per-layer metrics of the traced run. "<module>.<function>.<field>",
# where field is calls, self_s or a work counter from tracing.COUNTERS.
PER_LAYER = (
    ("characteristics.solve_transport_stack.calls", "count"),
    ("characteristics.solve_transport_stack.columns", "count"),
    ("characteristics.solve_transport_stack.self_s", "s"),
    ("characteristics.apply_coupling_stack.self_s", "s"),
    ("fredholm.apply_k.calls", "count"),
    ("fredholm.solve_neumann.iterations", "count"),
    ("fredholm.assemble_dense.self_s", "s"),
    ("fredholm.assemble_dense.columns", "count"),
    ("fredholm.assemble_dense.matrix_bytes", "bytes"),
    ("fredholm.section_solve.self_s", "s"),
    ("fredholm.kernel_svd.self_s", "s"),
    ("fredholm.apply_k_cubed_fused.self_s", "s"),
    ("expressions.evaluate_on.calls", "count"),
    ("expressions.evaluate_on.points", "count"),
    ("expressions.evaluate_on.self_s", "s"),
    ("gridfield.interpolate_many.calls", "count"),
    ("gridfield.interpolate_many.points", "count"),
    ("gridfield.interpolate_many.self_s", "s"),
    ("gridfield.shift_diff_norm.self_s", "s"),
    ("diagnostics.smoothing_profile.self_s", "s"),
    ("gridfield.to_csv.self_s", "s"),
    ("gridfield.to_csv.bytes", "bytes"),
    ("gridfield.sample.self_s", "s"),
    ("config.load_config.self_s", "s"),
    ("system.validate_spec.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# Layers whose metric belongs to set-up (setup_s), not to one operation.
SETUP_SPANS = frozenset({"gridfield.sample", "config.load_config",
                         "system.validate_spec"})

TAIL_BEYOND = 10


def split(metric: str):
    """'a.b.field' -> ('a.b', 'field')."""
    span, _, field = metric.rpartition(".")
    return span, field


def named_spans() -> frozenset:
    return frozenset(split(m)[0] for m, _ in PER_LAYER
                     if not m.startswith("trace."))


def tail(samples):
    """(value, percentile, samples beyond it) of the tail statistic.

    The highest percentile with at least TAIL_BEYOND samples above it.
    Below 2 * TAIL_BEYOND + 1 samples that percentile would not lie above
    the median, so such a run reports its maximum, as percentile 100
    with none beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_BEYOND          # 1-based rank of the tail sample
    return ordered[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def layer_values(op_tables: dict, setup_tables: list) -> dict:
    """Median over operations (or set-ups) of every per-layer field.

    op_tables maps each traced operation to its tracing.per_op row set;
    setup_tables holds one such row set per traced set-up. A layer the
    workload never calls reads 0.
    """
    out = {}
    for metric, _ in PER_LAYER:
        span, field = split(metric)
        if span == "trace":
            continue
        tables = setup_tables if span in SETUP_SPANS else list(
            op_tables.values())
        values = [t.get(span, {}).get(field, 0) for t in tables]
        out[metric] = statistics.median(values) if values else 0
    return out


def count_fields(table: dict) -> dict:
    """The deterministic work counts of one operation."""
    return {f"{span}.{key}": value
            for span, row in sorted(table.items())
            for key, value in sorted(row.items()) if key != "self_s"}
