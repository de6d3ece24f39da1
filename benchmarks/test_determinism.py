"""Same-seed benchmark runs repeat every count and simulated statistic.

    python -m pytest benchmarks/test_determinism.py

Each workload runs twice, traced, with the same seed. Per-layer counts,
tracer counters, simulated statistics (transactions, energy, head changes
and deactivations per regime), output digests, failure reasons and the
attempted and failed operation counts must be identical. Timings are not
compared. Takes about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

SEED = 11
EXACT_UNITS = ("count", "bytes")


def _traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"], proc.stdout
    return json.loads((ROOT / ".bench_results" / f"{workload}-seed{SEED}-trace1.json").read_text())


def _exact(result: dict) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    layer = result["per_layer"]
    return {
        "metrics": {k: v for k, v in layer["metrics"].items() if units[k] in EXACT_UNITS},
        "counters": layer["counts"],
        "calls": {k: v["calls"] for k, v in layer["profile"].items()},
        "stats": result["stats"],
        "digests": result["digests"],
        "failure_reasons": sorted(result["failures"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_repeats_counts_and_statistics(workload):
    first, second = _traced_run(workload), _traced_run(workload)
    assert _exact(first) == _exact(second)


def test_run_clustered_self_times_add_up():
    result = _traced_run("fleet-steady")
    layer = result["per_layer"]
    assert layer["run_clustered_closure_pct"] <= abs(layer["metrics"]["trace.overhead_pct"])
