"""End-to-end and per-layer metrics computed from checked operations.

Times are calibrated seconds (see calibrate.py). End-to-end timings count
the operations that completed (see operations.py); failures are reported
as `error_rate`, the share of inputs whose operation failed. Per-layer
values are per pass over the workload's inputs: counts are exact, times are
the mean over the traced passes.
"""

from __future__ import annotations

import resource
import statistics

import tracing


def percentile(values, q: int) -> float | None:
    """Inclusive percentile `q` in 1..99 of `values`."""
    if not values:
        return None
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(timed, attempted) -> dict:
    """`timed` are the measured operations; `attempted` adds the warm-up."""
    inputs = {o.key for o in attempted}
    failed = len({o.key for o in attempted if o.failure is not None})
    done = [o for o in timed if o.completed]
    norm = [o.norm_s for o in done]
    slots = sum(o.vehicle_slots for o in done)
    points = sum(o.oracle_points for o in done)
    n = len(done)
    metrics = {"op_s_p50": {"value": percentile(norm, 50), "unit": "s", "n": n}}
    if n >= 20:  # the highest percentile with at least ten operations beyond it
        tail = int(100 * (1 - 10 / n))
        metrics[f"op_s_p{tail}"] = {"value": percentile(norm, tail), "unit": "s", "n": n}
    return metrics | {
        "op_wall_s_p50": {"value": percentile([o.wall_s for o in done], 50), "unit": "s", "n": n},
        "us_per_vehicle_slot": {
            "value": 1e6 * sum(norm) / slots if slots else None,
            "unit": "us", "n": n, "base": slots,
        },
        "us_per_oracle_point": {
            "value": 1e6 * sum(norm) / points if points else None,
            "unit": "us", "n": n, "base": points,
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB", "n": 1,
        },
        "error_rate": {
            "value": failed / len(inputs), "unit": "1", "n": len(inputs), "base": failed,
        },
    }


def per_layer(tracer, traced, untraced, n_passes: int) -> dict:
    """Per-layer metrics of the traced operations, the calibrated profile
    per span name, the tracer's counters and the self-time closure of
    `sim.run_clustered` (percent by which its subtree's self times miss
    its duration)."""
    factors = {i: o.norm_s / o.wall_s for i, o in enumerate(traced)}
    summary = tracing.summarize(tracer.spans, tracer.raised, factors)
    counts = tracer.counts

    def calls(*names):
        return sum(summary.get(n, {}).get("calls", 0) for n in names) / n_passes

    def secs(*names, kind="s"):
        return sum(summary.get(n, {}).get(kind, 0.0) for n in names) / n_passes

    def count(*names):
        return sum(counts.get(n, 0) for n in names) / n_passes

    closed = [f"analytics.{n}" for n in tracing.CLOSED_FORMS]
    closed_in_checks = tracing.child_seconds(
        tracer.spans, factors, tracing.VALIDATE_CHECKS, closed
    )
    point_ms = sorted(
        1e3 * d
        for n in ("sim.paired_comparison", "cli.paired_comparison")
        for d in summary.get(n, {}).get("completed", [])
    )
    head_changes = calls("controller.apply_change")
    candidates = count("controller.candidates_built")
    decide_failures = sum(
        v for k, v in counts.items() if k.startswith("controller.decide.raised.")
    )
    traced_p50 = percentile([o.norm_s for o in traced if o.completed], 50)
    untraced_p50 = percentile([o.norm_s for o in untraced if o.completed], 50)
    metrics = {
        "controller.evaluate_slot.calls": calls("controller.evaluate_slot"),
        "controller.evaluate_slot.self_s": secs("controller.evaluate_slot", kind="self_s"),
        "controller.decide.calls": calls("controller.decide"),
        "controller.decide.s": secs("controller.decide"),
        "controller.pre_decay_check.calls": calls("controller.pre_decay_check"),
        "controller.pre_decay_check.s": secs("controller.pre_decay_check"),
        "controller.candidates_built": candidates,
        "controller.head_changes": head_changes,
        "controller.candidate_use_ratio": head_changes / candidates if candidates else 0.0,
        "controller.decide_failures": decide_failures / n_passes,
        "sim.run_baseline.self_s": secs("sim.run_baseline", kind="self_s"),
        "sim.run_clustered.self_s": secs("sim.run_clustered", kind="self_s"),
        "sim.init_vehicles_s": secs("sim.init_vehicles"),
        "sim.constraints_s": secs("sim.check_constraints"),
        "sim.comparison_csv_s": secs("sim.comparison_csv", "cli.comparison_csv"),
        "sim.point_ms_p50": percentile(point_ms, 50) or 0.0,
        "sim.point_ms_p90": percentile(point_ms, 90) or 0.0,
        "sim.vehicle_slots": sum(o.vehicle_slots for o in traced) / n_passes,
        "sim.trace_rows": count("controller.trace_rows"),
        "sim.deactivations": sum(o.deactivations for o in traced) / n_passes,
        "mobility.range_mass.calls": calls("mobility.range_mass", "sim.range_mass"),
        "mobility.range_mass.s": secs("mobility.range_mass", "sim.range_mass"),
        "mobility.pdf_evals": count("mobility.pdf_evals"),
        "quadrature.adaptive_simpson.s": secs("quadrature.adaptive_simpson"),
        "analytics.closed_form.calls": calls(*closed, "sim.energy_decay"),
        "analytics.closed_form.s": secs(*closed, "sim.energy_decay"),
        "validate.decay.s": secs("validate.decay"),
        "validate.synchronized.s": secs("validate.synchronized"),
        "validate.rate_roundtrip.s": secs("validate.rate_roundtrip"),
        "validate.tx_ceiling.s": secs("validate.tx_ceiling"),
        "validate.in_range.s": secs("validate.in_range"),
        "validate.oracle_s": secs(*tracing.VALIDATE_CHECKS) - closed_in_checks / n_passes,
        "validate.points": count("validate.points"),
        "validate.failures": count("validate.failures"),
        "scenario.load_s": secs("scenario.load"),
        "scenario.expand_s": secs("scenario.expand"),
        "scenario.points": count("scenario.points"),
        "cli.self_s": secs("cli.main", kind="self_s"),
        "cli.write_s": secs("cli.write"),
        "cli.bytes_written": count("cli.bytes_written"),
        "cli.files_written": count("cli.files_written"),
        "energy.calls": count("energy.calls.transmission", "energy.calls.ledger_update"),
        "trace.overhead_pct": 100.0 * (traced_p50 / untraced_p50 - 1.0)
        if traced_p50 and untraced_p50 else 0.0,
    }
    profile = {
        name: {
            "calls": e["calls"] / n_passes,
            "s": e["s"] / n_passes,
            "self_s": e["self_s"] / n_passes,
        }
        for name, e in sorted(summary.items())
    }
    return {
        "metrics": metrics,
        "profile": profile,
        "counts": {k: v / n_passes for k, v in sorted(counts.items())},
        "run_clustered_closure_pct": tracing.subtree_closure(tracer.spans, "sim.run_clustered"),
    }
