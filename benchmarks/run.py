"""fleetchain benchmark launcher.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a fleetchain checkout; fleetchain is imported from its
`src/`. The launcher builds the workload's inputs from the seed, times
set-up in fresh interpreters, runs one measuring process, prints a report
and, as its last line, a JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`. `attempted` and `failed` count inputs: each
input's operation runs in every pass and must repeat its outcome, so both
depend on the seed only. The full result, and with `--trace 1` the spans,
are written under `.bench_results/`.

BLAS and OpenMP are pinned to one thread, so every workload runs in one
single-threaded process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
THREAD_PINS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_PINS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


class Child:
    """One interpreter running measure.py; `wall_s` is its set-up time, from
    start to its `ready` line."""

    def __init__(self, argv: list[str], env: dict):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "measure.py"), *argv],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        self.ready = self.proc.stdout.readline().strip() == "ready"
        self.wall_s = time.perf_counter() - start

    def finish(self) -> int:
        try:
            self.proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return self.proc.returncode


def _setup_times(argv: list[str], env: dict) -> list[float] | None:
    """Calibrated set-up times of fresh interpreters that exit once ready.

    The kernel runs before each start and after each exit, while no other
    process of the benchmark runs."""
    calibrate.kernel()  # the first run also faults the kernel's memory in
    kernel_before = calibrate.kernel()
    times = []
    for _ in range(SETUP_SAMPLES):
        child = Child(argv + ["--setup-only"], env)
        if child.finish() != 0 or not child.ready:
            return None
        kernel_after = calibrate.kernel()
        times.append(calibrate.normalise(child.wall_s, kernel_before, kernel_after))
        kernel_before = kernel_after
    return times


def _report(name: str, seed: int, result: dict) -> None:
    env = result["environment"]
    print(f"workload {name}  seed {seed}  why: {workloads.WHY[name]}")
    pins = ",".join(f"{k}={v}" for k, v in env["thread_pins"].items())
    print(
        f"environment: python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
        f"cpu {env['cpu']!r} nproc {env['nproc']} loadavg {env['loadavg_at_start']} pins {pins}"
    )
    print(f"passes: {result['passes']}")
    setup = result["setup_s"]
    print(f"  setup_s = {setup['value']:.6g} s  (n={setup['n']}, median)")
    for key, m in result.get("end_to_end", {}).items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        base = f", base {m['base']}" if "base" in m else ""
        print(f"  {key} = {value} {m['unit']}  (n={m['n']}{base})")
    layer = result.get("per_layer")
    if layer:
        metrics = layer["metrics"]
        for key, value in metrics.items():
            print(f"  {key} = {value:.6g}")
        if metrics["controller.candidates_built"]:
            print(f"  (controller.candidate_use_ratio = controller.head_changes / "
                  f"{metrics['controller.candidates_built']:.0f} candidates built)")
        print(f"  run_clustered self-time closure: {layer['run_clustered_closure_pct']:.3g} %")
    status = "passed" if result["correct"] else "FAILED: " + "; ".join(result["problems"])
    print(
        f"checks: {status}  ({result['attempted']} ops attempted, {result['failed']} failed; "
        f"{result['executions']} executions, {result['failed_executions']} failed; "
        f"outputs repeat by sha256)"
    )
    for error, n in result["failures"].items():
        print(f"  failed x{n}: {error}")


def main() -> int:
    parser = argparse.ArgumentParser(description="fleetchain benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "fleetchain" / "__init__.py").is_file():
        print(f"no fleetchain sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    loadavg = os.getloadavg()
    results = root / ".bench_results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / ".bench_work" / f"{stem}-{os.getpid()}"
    try:
        spec = workloads.generate(args.workload, args.seed, work)
        inputs = work / "inputs.json"
        inputs.write_text(json.dumps(spec, indent=1))
        env = _child_env()
        base = ["--root", str(root), "--inputs", str(inputs)]
        setup = _setup_times(base, env)
        if setup is None:
            print("set-up failed", file=sys.stderr)
            return 1
        result_path = results / f"{stem}.json"
        child = Child(
            base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--result", str(result_path), "--spans", str(results / f"{stem}-spans.csv")],
            env,
        )
        code = child.finish()
        if code != 0 or not child.ready:
            print(f"measuring process exited with {code}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = json.loads(result_path.read_text())
    result["environment"].update(
        cpu=_cpu_model(), nproc=len(os.sched_getaffinity(0)),
        loadavg_at_start=" ".join(f"{x:.2f}" for x in loadavg),
    )
    result["setup_s"] = {"value": statistics.median(setup), "unit": "s", "n": len(setup),
                         "samples": setup}
    result_path.write_text(json.dumps(result, indent=1, sort_keys=True))
    _report(args.workload, args.seed, result)

    if args.trace == 0:
        values = {k: m["value"] for k, m in result["end_to_end"].items()}
        values["setup_s"] = result["setup_s"]["value"]
        declared = _declared("end_to_end")
    else:
        values = result["per_layer"]["metrics"]
        declared = _declared("per_layer")
    missing = [k for k in declared if values.get(k) is None]
    if missing:
        print(f"no value for {missing}: no operation completed", file=sys.stderr)
        return 1
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in declared.items()}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
