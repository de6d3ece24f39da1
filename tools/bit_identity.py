"""Hash the outputs of a fixed set of paired runs and `validate` reports, to
show that a change to the slot loop or to the oracles keeps every bit.

    python tools/bit_identity.py write OUT.json [--bench-seeds 1,2,3]
                                                [--random N] [--random-seed S]
    python tools/bit_identity.py check OUT.json

Run it from a checkout; fleetchain is imported from its `src/`. `write` runs
every config of the set and records, per config, one sha256 for each
`SlotColumns` list of both regimes, for the clustered trace rows, for the
final vehicles of both regimes and for the comparison CSV; per `validate`
run, one sha256 for each check's error list, as `float.hex` strings, and one
for the report text. `check` runs the set that OUT.json names again and
prints each config or run whose hashes differ; it exits 1 if any does. So
write the file at the parent commit and check it at the change.

The set:
- the golden configs of `tests/test_golden.py`;
- for each benchmark seed, the fleet-steady and fleet-churn configs and
  every point of the sweep-many scenario files that
  `benchmarks/workloads.py` builds;
- wide swap fleets at lam 1.5 whose blocks reach their size cap, with
  exchanges every 2 to 11 slots, the 100 x 100 fleet among them;
- N random configs drawn from the random seed, all at lam < 2, where heads
  swap between two vehicles: exchange periods 1 to 10, the load model,
  drains, critical fractions, tx limits, and security costs that tie the
  returning head with a member as rich;
- `validate` at grid 300 on the validate seeds of the oracle-validate inputs
  for each benchmark seed, and at grids 1 to 30 on seeds 0 to 40;
- `simulate` through `cli.main`, one sha256 for its exit code and stdout
  and one for each file it writes, on both shipped scenarios, on every
  sweep-many scenario file of each benchmark seed and on the sweeps of
  `SWEEPS`: the `per_kind_cost` list sweep of `tests/test_cli.py`, and
  sweeps whose points share a baseline, or hold values equal as numbers but
  not in bits, which must not share one.

Each group also records four counts: its baseline runs (`run_baseline`
calls), and of its clustered runs the zero-length block attempts
(`_SlotLoop._block` calls that stepped no slot, after which the slot runs
alone), and the breaks of swap blocks carried on and declined. A break is a
`FleetState.handed_on` call; one carried on starts a trace run of a new
cycle inside the block, and a declined one ends the block. `check` prints
each count with the recorded one; a different count is a cost, not a
difference in the outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "benchmarks")]

import workloads  # noqa: E402
from test_cli import LIST_SWEEP  # noqa: E402
from test_golden import CONFIGS  # noqa: E402

import fleetchain.cli as cli  # noqa: E402
import fleetchain.sim as sim  # noqa: E402
import fleetchain.validate as validate  # noqa: E402
from fleetchain.scenario import expand, load_scenario, make_config  # noqa: E402

# (clusters, vehicles per cluster, exchange period, horizon) of the wide
# swap fleets, all at lam 1.5.
WIDE = [(20, 4, 2, 300.0), (23, 4, 2, 300.0), (20, 5, 3, 300.0), (41, 3, 11, 300.0),
        (100, 100, 10, 100.0)]

# `simulate` scenarios beyond the shipped and the benchmark's: points that
# share a baseline across clustered-regime knobs, and points whose baseline
# fields differ only in the sign of a zero or in int against float.
SWEEPS = {
    "kinds": LIST_SWEEP,
    "int-kinds": {"name": "intkinds", "params": {"horizon": 5},
                  "sweeps": [{"param": "per_kind_cost", "values": [[1, 2, 3], [1.0, 2.0, 3.0]]}]},
    "signed-zeros": {"name": "zeros", "params": {"horizon": 20, "lam": 1.5},
                     "sweeps": [{"param": "security_cost", "values": [0.0, -0.0]},
                                {"param": "initial_energy", "values": [0.0, -0.0, 3e6]}]},
    "clustered-knobs": {"name": "knobs", "params": {"horizon": 40, "lam": 1.5},
                        "sweeps": [{"param": "critical_fraction", "values": [0.0, 0.5]},
                                   {"param": "global_exchange_period", "values": [1, 7]},
                                   {"param": "range_stddev", "values": [1.0, 60.0]},
                                   {"param": "hops", "values": [2, 10]}]},
}

COLUMNS = ("t", "transactions_cum", "energy_cum", "ch_changes", "security_j", "transmission_j",
           "update_j")


def random_config(rng: random.Random) -> sim.SimConfig:
    """One small config at lam < 2."""
    slot = rng.choice([1.0, 1.0, 0.5, 0.3, 2.5])
    tie = rng.random() < 0.25  # app_count 1 and a security cost equal to the local charge
    load_model = rng.random() < 0.2
    return sim.SimConfig(
        cluster_count=rng.randint(1, 6),
        vehicles_per_cluster=rng.randint(2, 8),
        app_count=1 if tie else rng.randint(1, 4),
        lam=rng.choice([0.1, 0.5, 1.0, 1.5, 1.5, 1.75, 1.75, 1.9]),
        hops=rng.randint(0, 10),
        slot=slot,
        horizon=rng.randint(1, 120) * slot,
        energy_per_record=rng.choice([2580.0, 2580.3]),
        security_cost=11610.0 if tie else rng.choice([0.0, 0.1, 0.625, 3e3, 11610.0]),
        initial_energy=rng.choice([3e4, 3.3e5 + 0.1, 1e6, 3e6, 1e7, 2.5e7, 1e9]),
        critical_fraction=rng.choice([0.0, 0.1, 0.1, 0.5, 1.0]),
        global_exchange_period=None if load_model else rng.choice([None, *range(1, 11)]),
        use_load_model_exchange=load_model,
        presence=rng.choice([1.0, 0.01]) if load_model else 1.0,
        vehicle_tx_limit=rng.choice([None, None, 10.0, 60.0]),
        required_tx_limit=rng.choice([None, None, 50.0]),
        radio_range=rng.choice([300.0, 300.0, 600.0]),
        expected_score=rng.choice([None, None, None, 0.0, 5.0]),
    )


def config_set(bench_seeds: list[int], n_random: int, random_seed: int):
    """(group, name, config) of every config of the set, in a fixed order."""
    for name, params in CONFIGS.items():
        yield "golden", name, sim.SimConfig(**params)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in bench_seeds:
            for workload in ("fleet-steady", "fleet-churn", "sweep-many"):
                inputs = workloads.generate(workload, seed, Path(tmp) / str(seed))["inputs"]
                for item in inputs:
                    if "config" in item:
                        yield workload, f"{seed}:{item['key']}", make_config(item["config"])
                        continue
                    scenario = load_scenario(item["argv"][item["argv"].index("--config") + 1])
                    for label, cfg in expand(scenario):
                        yield workload, f"{seed}:{item['key']}:{label}", cfg
    for clusters, size, period, horizon in WIDE:
        yield "wide", f"{clusters}x{size}:period={period}", sim.SimConfig(
            cluster_count=clusters, vehicles_per_cluster=size, lam=1.5, horizon=horizon,
            global_exchange_period=period)
    rng = random.Random(random_seed)
    for i in range(n_random):
        yield "random", str(i), random_config(rng)


def validate_set(bench_seeds: list[int]):
    """(name, grid, seed) of every `validate` run of the set, in a fixed order."""
    with tempfile.TemporaryDirectory() as tmp:
        for bench_seed in bench_seeds:
            for item in workloads.generate("oracle-validate", bench_seed, Path(tmp))["inputs"]:
                argv = item["argv"]
                grid, seed = (int(argv[argv.index(flag) + 1]) for flag in ("--grid", "--seed"))
                yield f"{bench_seed}:{item['key']}", grid, seed
    for seed in range(41):
        for grid in range(1, 31):
            yield f"grid={grid}:seed={seed}", grid, seed


def simulate_set(bench_seeds: list[int], work_dir: Path):
    """(name, scenario path) of every `simulate` run of the set, in a fixed
    order; generated scenario files are written under `work_dir`."""
    for name in ("reference", "small"):
        yield name, ROOT / "scenarios" / f"{name}.json"
    for seed in bench_seeds:
        for item in workloads.generate("sweep-many", seed, work_dir / str(seed))["inputs"]:
            yield f"{seed}:{item['key']}", Path(item["argv"][item["argv"].index("--config") + 1])
    for name, scenario in SWEEPS.items():
        path = work_dir / f"{name}.json"
        path.write_text(json.dumps(scenario))
        yield name, path


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def hashes(cfg: sim.SimConfig) -> dict[str, str]:
    """A sha256 per output of the paired run of `cfg`."""
    comp = sim.paired_comparison(cfg)
    out = {"comparison_csv": _digest(sim.comparison_csv(comp))}
    for regime, report in (("baseline", comp.baseline), ("clustered", comp.clustered)):
        for column in COLUMNS:
            # repr keeps every bit, and tells -0.0 from 0.0.
            out[f"{regime}.{column}"] = _digest(repr(getattr(report.slots, column)))
        out[f"{regime}.vehicles"] = _digest(repr(report.vehicles))
    out["clustered.trace"] = _digest(repr(comp.clustered.trace))
    return out


def simulate_hashes(path: Path, out: Path) -> dict[str, str]:
    """A sha256 of the exit code and stdout of `fleetchain simulate` on the
    scenario at `path`, and one of each file it writes into `out`."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["simulate", "--config", str(path), "--out", str(out)])
    result = {"stdout": _digest(f"{code}\n{buf.getvalue()}")}
    for file in sorted(out.iterdir()):
        result[file.name] = hashlib.sha256(file.read_bytes()).hexdigest()
    return result


def validate_hashes(grid: int, seed: int) -> dict[str, str]:
    """A sha256 per check's error list, and one of the report text, of
    `validate` at `grid` and `seed`; the errors are read as the checks pass
    them to `validate._result`."""
    result, out = validate._result, {}

    def recording(name, errors, *args):
        out[name] = _digest(repr([float(err).hex() for err in errors]))
        return result(name, errors, *args)

    validate._result = recording
    try:
        report = validate.run_validation(grid=grid, seed=seed)
    finally:
        validate._result = result
    out["report"] = _digest("\n".join(report.lines()))
    return out


COUNTS = ("baseline_runs", "zero_length_blocks", "breaks_carried", "breaks_declined")


def run_set(options: dict) -> tuple[dict, dict[str, Counter]]:
    """The hashes of every config, `simulate` and `validate` run of the set,
    and each group's `COUNTS`."""
    counts, group = {name: Counter() for name in COUNTS}, None
    baselines, attempts, carried, declined = (counts[name] for name in COUNTS)
    run_baseline, block, handed_on = sim.run_baseline, sim._SlotLoop._block, sim.FleetState.handed_on

    def baseline(cfg):
        baselines[group] += 1
        return run_baseline(cfg)

    def counting(loop, s, k):
        runs, cycle = len(loop.trace_runs), loop.cycle
        ran = block(loop, s, k)
        if loop.controller is not None:
            attempts[group] += ran == 0
            # A break carried on starts a run of its own cycle; the block's
            # other runs repeat the cycle it started with.
            breaks = sum(traces is not cycle for traces, _, _ in loop.trace_runs[runs:])
            carried[group] += breaks
            declined[group] -= breaks
        return ran

    def breaking(fleet, *args):
        declined[group] += 1
        return handed_on(fleet, *args)

    sim.run_baseline, sim._SlotLoop._block, sim.FleetState.handed_on = baseline, counting, breaking
    try:
        result = {}
        for group, name, cfg in config_set(**options):
            for counter in counts.values():
                counter[group] += 0
            result[f"{group}:{name}"] = hashes(cfg)
        group = "simulate"
        for counter in counts.values():
            counter[group] += 0
        with tempfile.TemporaryDirectory() as tmp:
            for name, path in simulate_set(options["bench_seeds"], Path(tmp)):
                result[f"simulate:{name}"] = simulate_hashes(path, Path(tmp) / "out" / name)
    finally:
        sim.run_baseline, sim._SlotLoop._block, sim.FleetState.handed_on = (
            run_baseline, block, handed_on)
    for name, grid, seed in validate_set(options["bench_seeds"]):
        result[f"validate:{name}"] = validate_hashes(grid, seed)
    return result, counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", choices=("write", "check"))
    parser.add_argument("file", type=Path)
    parser.add_argument("--bench-seeds", default="1",
                        help="comma-separated benchmark seeds (write only; default 1)")
    parser.add_argument("--random", type=int, default=600,
                        help="random lam < 2 configs (write only; default 600)")
    parser.add_argument("--random-seed", type=int, default=0, help="(write only; default 0)")
    args = parser.parse_args(argv)
    if args.command == "write":
        options = {"bench_seeds": [int(s) for s in args.bench_seeds.split(",")],
                   "n_random": args.random, "random_seed": args.random_seed}
        result, counts = run_set(options)
        args.file.write_text(json.dumps({"options": options, **counts, "hashes": result},
                                        indent=1, sort_keys=True))
        print(f"wrote {len(result)} configs and runs to {args.file}")
        return 0
    recorded = json.loads(args.file.read_text())
    result, counts = run_set(recorded["options"])
    differ = [name for name, want in recorded["hashes"].items() if result.get(name) != want]
    for name in differ:
        got = result.get(name, {})
        outputs = [k for k, v in recorded["hashes"][name].items() if got.get(k) != v]
        print(f"differs: {name}: {', '.join(outputs)}")
    for name in COUNTS:
        for group, count in sorted(counts[name].items()):
            print(f"{name.replace('_', ' ')}, {group}: {count} (recorded "
                  f"{recorded.get(name, {}).get(group, 0)})")
    print(f"{len(recorded['hashes']) - len(differ)} of {len(recorded['hashes'])} configs and "
          "runs match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
