"""Time two fleetchain trees on one workload's inputs, alternated, each run in
a process of its own, and print the in-process minima and medians.

    python tools/ab.py PARENT CHANGE --workload NAME [--seed N] [--rounds R]
                                                    [--passes P]

PARENT and CHANGE are checkouts, each with `src/` and `benchmarks/`. The
inputs are those CHANGE's `benchmarks/workloads.py` builds from the seed
(default 1), so both sides run the same configs and scenario files. Each
round starts one interpreter per side, the parent first in odd rounds and
the change first in even ones. An interpreter imports fleetchain and the
benchmark's operations from its own tree, with BLAS and OpenMP pinned to one
thread, runs one untimed pass over the inputs, then P timed passes (default
5), and checks every timed operation's output as the benchmark does.

The report gives, per side and round, the minimum and the median of the
operation times in ms, and over the rounds the median of each. It counts the
rounds in which the change's median was lower. No calibration is applied:
the two sides run interleaved on one host, so a drift of the host's speed
reaches both alike. A difference of a few per cent that calibrated
benchmark medians cannot resolve shows here, or is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child(tree: Path, inputs_path: Path, passes: int) -> None:
    """Time `passes` passes over the inputs with `tree`'s fleetchain and
    print the op times, in s, and the problems the checks found, as JSON."""
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmarks")]
    import operations

    inputs = json.loads(inputs_path.read_text())
    ops = operations.FleetOps(inputs) if "config" in inputs[0] else operations.CliOps(inputs)
    times, problems = [], []
    for timed in [False] + [True] * passes:
        for key, item in ops.items:
            ops.prepare(item)
            start = time.perf_counter()
            output = ops.run(item)
            wall = time.perf_counter() - start
            if timed:
                times.append(wall)
                outcome = operations.Outcome(key, wall, wall)
                ops.check(item, output, outcome)
                if outcome.failure:
                    problems.append(f"{key}: {outcome.failure}")
    print(json.dumps({"op_s": times, "problems": problems}))


def run_side(tree: Path, inputs_path: Path, passes: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **{name: "1" for name in THREAD_PINS})
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        [sys.executable, __file__, "--child", str(tree), str(inputs_path), str(passes)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--child"]:
        child(Path(argv[1]), Path(argv[2]), int(argv[3]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    sys.path.insert(0, str(sides["change"] / "benchmarks"))
    import workloads

    stats = {name: {"min_ms": [], "median_ms": []} for name in sides}
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        inputs = workloads.generate(args.workload, args.seed, Path(tmp))["inputs"]
        inputs_path = Path(tmp) / "inputs.json"
        inputs_path.write_text(json.dumps(inputs))
        print(f"{args.workload}, seed {args.seed}: {len(inputs)} inputs, {args.rounds} rounds "
              f"of {args.passes} timed passes a side")
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            line = [f"round {r + 1:2d}:"]
            for name in order:
                result = run_side(sides[name], inputs_path, args.passes)
                times = [1e3 * t for t in result["op_s"]]
                stats[name]["min_ms"].append(min(times))
                stats[name]["median_ms"].append(statistics.median(times))
                line.append(f"{name} min {min(times):.3f} median {statistics.median(times):.3f} ms")
                for problem in result["problems"]:
                    failed = True
                    print(f"  {name}: {problem}")
            print("  ".join(line))
    for name in sides:
        print(f"{name}: median over rounds of the min {statistics.median(stats[name]['min_ms']):.3f}"
              f" ms, of the median {statistics.median(stats[name]['median_ms']):.3f} ms")
    lower = sum(c < p for c, p in zip(stats["change"]["median_ms"], stats["parent"]["median_ms"]))
    ratio = (statistics.median(stats["change"]["median_ms"])
             / statistics.median(stats["parent"]["median_ms"]))
    print(f"change / parent, medians: {ratio:.4f}; change lower in {lower}/{args.rounds} rounds")
    print(json.dumps(stats))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
