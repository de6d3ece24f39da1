"""Seeded inputs of the four benchmark workloads.

`generate(name, seed, work_dir)` builds every input of one workload from the
seed alone and returns it as plain JSON data; the sweep scenario is written
as a file into `work_dir`. Only the standard library is used, so the
launcher can build inputs without importing numpy.

Every workload runs its inputs as passes: one pass executes each input once,
in order, and a run repeats whole passes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Why each workload is in the benchmark, one line each.
WHY = {
    "fleet-steady": "scaled paired run at the reference point: all time is in the slot loop and no head ever changes (lam 2 is the exact OST tie)",
    "fleet-churn": "lam 1.5 changes every head on every slot and drained energies reach the handover path and the known decide ValueError",
    "sweep-many": "100 short reference-size points through `fleetchain simulate`, where per-point quadrature, CSV and file costs weigh",
    "oracle-validate": "`fleetchain validate` on a larger grid: closed forms, scipy oracles and quadrature with no slot loop",
}

WORKLOADS = tuple(WHY)

# scenarios/reference.json differs from the SimConfig defaults only here.
REFERENCE = {"lam": 2.0, "hops": 10, "initial_energy": 1.0e9, "global_exchange_period": 10}

# fleet-steady: baseline vehicles run dry at slot 554, so 200 slots keep
# every vehicle alive in both regimes.
STEADY_SHAPE = {"cluster_count": 20, "vehicles_per_cluster": 50, "horizon": 200.0}
STEADY_INPUTS = 4

# fleet-churn: at lam 1.5 a member pays 141 906 J per slot, so every energy
# in the range crosses the 10 % critical fraction and runs dry before slot
# 200. The exchange period is left at its default (one exchange, at the
# horizon). One stratum per input keeps the energy mix, and so the work per
# pass, alike across seeds; the range holds energies on which
# `controller.decide` raises for every seed.
CHURN_SHAPE = {"cluster_count": 10, "vehicles_per_cluster": 50, "lam": 1.5, "horizon": 200.0}
CHURN_ENERGY = (1.5e7, 2.8e7)
CHURN_INPUTS = 24

# sweep-many: lam on both sides of the tie at 2, the range deviation at 1
# (adaptive Simpson stops after 5 evaluations) and at 60 (about 3000), and
# ten vehicle seeds: 100 points of 5 x 10 vehicles x 100 slots per pass.
# They are split over five scenario files of 20 points, one `simulate` call
# each: on a shared host the calibration kernel only tracks the host speed
# over operations of well under a second or two (see calibrate.py).
SWEEP_LAM = (1.5, 1.75, 2.0, 2.5, 3.0)
SWEEP_STDDEV = (1.0, 60.0)
SWEEP_FILES = 5
SWEEP_SEEDS_PER_FILE = 2

# oracle-validate: the CLI default grid is 100. The oracle work differs by
# about 8 % from one validate seed to the next, so a pass runs several.
VALIDATE_GRID = 300
VALIDATE_SEEDS = 4

_SEED_MAX = 2**31 - 1


def _seeds(rng: random.Random, n: int) -> list[int]:
    return [rng.randrange(_SEED_MAX) for _ in range(n)]


def _fleet_steady(rng: random.Random, work_dir: Path) -> list[dict]:
    return [
        {"key": f"seed={s}", "config": {**REFERENCE, **STEADY_SHAPE, "seed": s}}
        for s in _seeds(rng, STEADY_INPUTS)
    ]


def _fleet_churn(rng: random.Random, work_dir: Path) -> list[dict]:
    lo, hi = CHURN_ENERGY
    width = (hi - lo) / CHURN_INPUTS
    inputs = []
    for k, s in enumerate(_seeds(rng, CHURN_INPUTS)):
        energy = lo + (k + rng.random()) * width
        config = {**REFERENCE, **CHURN_SHAPE, "initial_energy": energy, "seed": s}
        del config["global_exchange_period"]
        inputs.append({"key": f"energy={energy!r}_seed={s}", "config": config})
    return inputs


def _sweep_many(rng: random.Random, work_dir: Path) -> list[dict]:
    inputs = []
    for i in range(1, SWEEP_FILES + 1):
        name = f"sweep{i}"
        scenario = {
            "name": name,
            "params": {**REFERENCE, "seed": 0},
            "sweeps": [
                {"param": "lam", "values": list(SWEEP_LAM)},
                {"param": "range_stddev", "values": list(SWEEP_STDDEV)},
                {"param": "seed", "values": _seeds(rng, SWEEP_SEEDS_PER_FILE)},
            ],
        }
        path = work_dir / f"{name}.json"
        path.write_text(json.dumps(scenario, indent=1))
        out = str(work_dir / f"out-{name}")
        inputs.append(
            {"key": name, "argv": ["simulate", "--config", str(path), "--out", out], "out": out}
        )
    return inputs


def _oracle_validate(rng: random.Random, work_dir: Path) -> list[dict]:
    return [
        {
            "key": f"validate_seed={seed}",
            "argv": ["validate", "--grid", str(VALIDATE_GRID), "--seed", str(seed)],
        }
        for seed in _seeds(rng, VALIDATE_SEEDS)
    ]


_BUILDERS = {
    "fleet-steady": _fleet_steady,
    "fleet-churn": _fleet_churn,
    "sweep-many": _sweep_many,
    "oracle-validate": _oracle_validate,
}


def generate(name: str, seed: int, work_dir: Path) -> dict:
    """Inputs of workload `name` for `seed`; the same seed gives the same data."""
    rng = random.Random(f"{name}:{seed}")
    work_dir.mkdir(parents=True, exist_ok=True)
    return {"workload": name, "seed": seed, "inputs": _BUILDERS[name](rng, work_dir)}
