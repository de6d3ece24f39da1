"""The timed operations of each workload, their checks and the pass loop.

An operation is one paired run plus its comparison CSV (`fleet-*`
workloads) or one `fleetchain` command through `cli.main` (`sweep-many`,
`oracle-validate`). Every operation is checked after its timer stops.

An operation fails when it raises, exits with a code other than 0, or an
output check finds a problem; the reason is recorded, never dropped. One
that raised did not complete, so its time is not used. One that exited
with an error code, such as `validate` finding a value out of tolerance,
ran to the end and its time is used. A problem found by an output check
also makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import checks
import fleetchain.cli
import fleetchain.sim

VALIDATE_LINE = re.compile(r"^\[(PASS|FAIL)\] .*?: (\d+)/(\d+) within")


@dataclass
class Outcome:
    key: str
    wall_s: float
    norm_s: float
    error: str | None = None
    exit_reason: str | None = None
    problems: list[str] = field(default_factory=list)
    signature: str = ""
    stats: dict | None = None
    vehicle_slots: int = 0
    oracle_points: int = 0
    deactivations: int = 0

    @property
    def completed(self) -> bool:
        return self.error is None

    @property
    def failure(self) -> str | None:
        """Why the operation failed, or None."""
        if self.error:
            return self.error
        if self.exit_reason:
            return self.exit_reason
        if self.problems:
            return "output check: " + self.problems[0]
        return None


class FleetOps:
    """One paired run plus its comparison CSV per input."""

    ROOT_SPAN = "op"

    def __init__(self, inputs):
        self.items = [(inp["key"], fleetchain.sim.SimConfig(**inp["config"])) for inp in inputs]

    def prepare(self, cfg) -> None:
        pass

    def run(self, cfg):
        comp = fleetchain.sim.paired_comparison(cfg)
        return comp, fleetchain.sim.comparison_csv(comp)

    def check(self, cfg, output, outcome: Outcome) -> None:
        comp, text = output
        outcome.problems += checks.check_comparison(comp) + checks.check_csv(text)
        outcome.signature = checks.digest(text.encode())
        outcome.stats = checks.comparison_stats(comp)
        outcome.vehicle_slots = 2 * cfg.n_vehicles * cfg.n_slots
        outcome.deactivations = sum(r["deactivations"] for r in outcome.stats.values())


class CliOps:
    """One `fleetchain` command through `cli.main` per input."""

    ROOT_SPAN = "cli.main"

    def __init__(self, inputs):
        parser = fleetchain.cli.build_parser()
        self.items = []
        for inp in inputs:
            args = parser.parse_args(inp["argv"])
            if args.command == "simulate":
                fleetchain.cli.expand(fleetchain.cli.load_scenario(args.config))
            self.items.append((inp["key"], (args.command, inp["argv"], inp.get("out"))))
        # Keep the comparisons `simulate` computes, for the itemisation check.
        self.captured = []
        compute = fleetchain.cli.paired_comparison

        def paired_comparison(cfg):
            comp = compute(cfg)
            self.captured.append(comp)
            return comp

        fleetchain.cli.paired_comparison = paired_comparison

    def prepare(self, item) -> None:
        self.captured.clear()
        _, _, out = item
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)

    def run(self, item):
        _, argv, _ = item
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = fleetchain.cli.main(argv)
        return code, buf.getvalue()

    def check(self, item, output, outcome: Outcome) -> None:
        command, _, out = item
        code, text = output
        if code != 0:
            lines = [line for line in text.splitlines() if line.startswith("[FAIL]")]
            outcome.exit_reason = f"exit code {code}" + "".join(f"; {line}" for line in lines)
        if command == "validate":
            self._check_validate(code, text, outcome)
        elif code == 0:
            self._check_simulate(Path(out), text, outcome)

    def _check_validate(self, code: int, text: str, outcome: Outcome) -> None:
        lines = text.splitlines()
        if (code == 0) != ("validation passed" in lines):
            outcome.problems.append(f"exit code {code} disagrees with the validation report")
        matches = [VALIDATE_LINE.match(line) for line in lines]
        outcome.oracle_points = sum(int(m.group(3)) for m in matches if m)
        outcome.signature = checks.digest(text.encode())
        outcome.stats = {"oracle_points": outcome.oracle_points}

    def _check_simulate(self, out: Path, text: str, outcome: Outcome) -> None:
        csvs = sorted(out.glob("comparison_*.csv"))
        if len(csvs) != len(self.captured):
            outcome.problems.append(f"{len(csvs)} comparison files for {len(self.captured)} points")
        for path in csvs:
            outcome.problems += checks.check_csv(path.read_text(), path.name)
        outcome.stats = {}
        for comp in self.captured:
            outcome.problems += checks.check_comparison(comp)
            cfg = comp.config
            stats = checks.comparison_stats(comp)
            outcome.vehicle_slots += 2 * cfg.n_vehicles * cfg.n_slots
            outcome.deactivations += sum(r["deactivations"] for r in stats.values())
            outcome.stats[f"lam={cfg.lam:g}_range_stddev={cfg.range_stddev:g}_seed={cfg.seed}"] = stats
        outcome.signature = checks.digest(text.encode(), checks.digest_dir(out).encode())


class Runner:
    """Runs operations between calibration kernels and checks each one.

    The kernel runs after every operation; an operation is scaled by the
    mean of the kernel times on either side of it."""

    def __init__(self, ops):
        self.ops = ops
        self.signatures: dict[str, str] = {}
        self.outcomes: list[Outcome] = []
        calibrate.kernel()  # the first run also faults its memory in
        self.kernels = [calibrate.kernel()]

    def one(self, key, item, run=None) -> Outcome:
        self.ops.prepare(item)
        run = run or self.ops.run
        error = output = None
        start = time.perf_counter()
        try:
            output = run(item)
        except Exception as exc:  # the operation failed: record it, go on
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        self.kernels.append(calibrate.kernel())
        outcome = Outcome(key, wall, calibrate.normalise(wall, *self.kernels[-2:]))
        if error is None:
            self.ops.check(item, output, outcome)
        else:
            outcome.error = error
            outcome.signature = "raised " + error
        if self.signatures.setdefault(key, outcome.signature) != outcome.signature:
            outcome.problems.append(f"{key}: output differs from its first run")
        self.outcomes.append(outcome)
        return outcome

    def phase(self, deadline: float, min_passes: int, run=None) -> list[Outcome]:
        """Whole passes over the inputs until `deadline` and `min_passes`."""
        done: list[Outcome] = []
        count = 0
        while count < min_passes or time.perf_counter() < deadline:
            for key, item in self.ops.items:
                done.append(self.one(key, item, run))
            count += 1
        return done
