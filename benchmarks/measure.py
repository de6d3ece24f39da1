"""Measuring process of the benchmark: one workload and one seed.

Started by run.py:

    python measure.py --root CHECKOUT --inputs INPUTS.json [--setup-only]
                      [--seconds S --trace 0|1 --result OUT.json --spans SPANS.csv]

It imports fleetchain from CHECKOUT/src, builds the workload's configs and
prints `ready`; the launcher times set-up up to that line. With
`--setup-only` it exits there. Otherwise it runs one checked warm-up
operation, then whole passes over the inputs until S seconds have passed
and every input has run at least twice, and writes the result as JSON.
With `--trace 1` it measures untraced passes for 40 % of the time, then
installs the tracer for the rest and derives the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

UNTRACED_SHARE = 0.4
MIN_PASSES = 2


def _environment() -> dict:
    import numpy
    import scipy

    import fleetchain

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fleetchain": fleetchain.__version__,
        "thread_pins": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def _measure(runner, ops, args) -> dict:
    import metrics
    import tracing

    start = time.perf_counter()
    key, item = ops.items[0]
    runner.one(key, item)  # warm-up: first calls and caches; checked, not timed
    if args.trace == 0:
        timed = runner.phase(start + args.seconds, MIN_PASSES)
        return {
            "passes": {"measured": len(timed) // len(ops.items)},
            "end_to_end": metrics.end_to_end(timed, runner.outcomes),
        }
    untraced = runner.phase(start + UNTRACED_SHARE * args.seconds, 1)
    tracer = tracing.Tracer()
    root = tracer.span(ops.ROOT_SPAN, ops.run)

    def run_traced(item):
        tracer.op_id += 1
        return root(item)

    tracer.install()
    try:
        traced = runner.phase(start + args.seconds, 1, run_traced)
    finally:
        tracer.uninstall()
    n_passes = len(traced) // len(ops.items)
    if args.spans:
        tracer.write_spans(args.spans)
    return {
        "passes": {"untraced": len(untraced) // len(ops.items), "traced": n_passes},
        "per_layer": metrics.per_layer(tracer, traced, untraced, n_passes),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="measuring process of the benchmark")
    parser.add_argument("--root", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args()

    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    import fleetchain

    if Path(fleetchain.__file__).resolve().parent.parent != src:
        print(f"fleetchain comes from {fleetchain.__file__}, not {src}", file=sys.stderr)
        return 2
    import operations

    inputs = json.loads(Path(args.inputs).read_text())["inputs"]
    ops = operations.FleetOps(inputs) if "config" in inputs[0] else operations.CliOps(inputs)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    runner = operations.Runner(ops)
    result = _measure(runner, ops, args)
    outcomes = runner.outcomes
    failures: dict[str, int] = {}
    for o in outcomes:
        if o.failure:
            failures[o.failure] = failures.get(o.failure, 0) + 1
    problems = [p for o in outcomes for p in o.problems]
    stats: dict[str, dict] = {}
    for o in outcomes:
        stats.setdefault(o.key, o.stats if o.completed else {"raised": o.error})
    # An operation is one input: every execution of it repeats the same
    # work and must repeat its outcome, so the counts depend on the seed
    # alone and not on how many passes fit into the run.
    inputs = {o.key for o in outcomes}
    failed_inputs = {o.key for o in outcomes if o.failure is not None}
    result.update(
        environment=_environment(),
        attempted=len(inputs),
        failed=len(failed_inputs),
        executions=len(outcomes),
        failed_executions=sum(o.failure is not None for o in outcomes),
        correct=not problems,
        problems=problems[:20],
        failures=failures,
        digests=dict(runner.signatures),
        stats=stats,
        ops=[[o.key, o.wall_s, o.norm_s, o.failure] for o in outcomes],
        kernels=runner.kernels,
    )
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
