"""Names that other code looks up by string must keep resolving, and the
benchmark's inputs must stay valid configs and command lines."""

import ast
from pathlib import Path

import pytest

import fleetchain
from fleetchain.cli import build_parser
from fleetchain.scenario import expand, load_scenario
from fleetchain.sim import SimConfig

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SPEC = Path(__file__).resolve().parent / "test_slot_loop_spec.py"


def test_every_exported_name_resolves():
    missing = [name for name in fleetchain.__all__ if not hasattr(fleetchain, name)]
    assert missing == []


def test_the_specification_takes_no_cascade_code_from_the_controller():
    # The slot-loop specification writes the keep-or-change cascade out
    # itself; from the controller it takes only names and closed forms.
    allowed = {"ACTION_CHANGE", "ACTION_KEEP", "RULE_LIMIT", "RULE_OST", "RULE_PRE_DECAY",
               "TraceRow", "ost_score", "ost_threshold", "pre_decay_check"}
    taken = set()
    for node in ast.walk(ast.parse(SPEC.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "fleetchain.controller":
            taken |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "fleetchain":
            assert "controller" not in {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("fleetchain.controller")
                           for alias in node.names)
    assert taken <= allowed, taken - allowed


def test_tracer_installs_and_restores_every_patched_attribute(monkeypatch):
    # `benchmarks/run.py --trace 1` wraps these attributes; a deleted one
    # makes `install` raise.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    targets = list(tracing.SPANS.values()) + list(tracing.COUNTS.values())
    originals = [getattr(owner, attr) for owner, attr in targets]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in zip(targets, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original
               for (owner, attr), original in zip(targets, originals))


@pytest.mark.parametrize("workload", ["fleet-steady", "fleet-churn", "sweep-many",
                                      "oracle-validate"])
def test_benchmark_inputs_are_accepted(workload, monkeypatch, tmp_path):
    # `benchmarks/run.py` builds these inputs; a field or flag they pass that
    # no longer exists makes every benchmark operation fail.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads

    inputs = workloads.generate(workload, 1, tmp_path)["inputs"]
    assert inputs
    for inp in inputs:
        if "config" in inp:
            SimConfig(**inp["config"])
            continue
        args = build_parser().parse_args(inp["argv"])
        if args.command == "simulate":
            assert expand(load_scenario(args.config))


def test_simulate_shares_baselines_under_the_benchmarks_operation(monkeypatch, tmp_path):
    # `benchmarks/operations.py:CliOps` replaces `cli.paired_comparison` with
    # a one-argument wrapper and expects one comparison per comparison CSV;
    # the run stays within one `simulate` call.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import operations
    import workloads

    import fleetchain.cli
    import fleetchain.sim

    monkeypatch.setattr(fleetchain.cli, "paired_comparison", fleetchain.cli.paired_comparison)
    run_baseline, calls = fleetchain.sim.run_baseline, []
    monkeypatch.setattr(fleetchain.sim, "run_baseline",
                        lambda cfg: calls.append(cfg) or run_baseline(cfg))
    inputs = workloads.generate("sweep-many", 1, tmp_path)["inputs"][:1]
    ops = operations.CliOps(inputs)
    (key, item), = ops.items
    for run in (1, 2):  # nothing is shared from one `simulate` call to the next
        ops.prepare(item)
        output = ops.run(item)
        outcome = operations.Outcome(key, 0.0, 0.0)
        ops.check(item, output, outcome)
        assert outcome.failure is None
        assert (len(ops.captured), len(calls)) == (20, 5 * run)
    # Outside `simulate`, every paired run runs its own baseline.
    cfg = ops.captured[0].config
    first, second = (fleetchain.sim.paired_comparison(cfg) for _ in range(2))
    assert first.baseline is not second.baseline
    assert len(calls) == 12
