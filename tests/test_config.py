"""The config boundary: every scenario file or flag value is either rejected
with one `config error:` line and exit code 1, or runs to completion."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetchain.cli import main
from fleetchain.scenario import ConfigError, load_scenario, make_config
from fleetchain.sim import MAX_VEHICLE_SLOTS, SimConfig

SMALL = Path(__file__).resolve().parent.parent / "scenarios" / "small.json"
HUGE_INT = "1" + "0" * 400  # 401 digits: past the range of a float

# `params` that each ended in a traceback or ran with a value it should have
# rejected, or ask for more vehicles, slots or vehicle-slots than a run may
# hold (the last three).
BAD_PARAMS = [
    '"hops": 10.0',
    '"cluster_count": 2.5',
    '"message_kinds": 2.0',
    '"records_per_tx": 1.5',
    '"lam": NaN',
    '"security_cost": NaN',
    '"expected_score": NaN',
    '"horizon": 1e400',
    f'"horizon": {HUGE_INT}',
    '"slot": 1e-320',
    '"initial_energy": -5',
    '"seed": -1',
    '"global_exchange_period": 0',
    '"op_frequency1": 5.0',
    '"op_sigma1": 0',
    '"presence": 2',
    '"threshold_prob": 3',
    '"range_stddev": 0',
    '"mean_range": -1',
    '"stay_time": -1',
    '"per_kind_cost": [1, 2]',
    '"vehicle_tx_limit": -1',
    '"energy_per_record": -1',
    '"stay_time": 1e308, "slot": 0.001',
    '"use_load_model_exchange": true, "links_per_ledger": 1%s' % ("0" * 307),
    '"use_load_model_exchange": "no"',
    '"hops": true',
    '"records_per_tx": true',
    '"links_per_ledger": 2.5',
    '"parallel_links": 1.5',
    '"critical_fraction": -3',
    '"initial_energy": 1e308',
    '"cluster_count": 10001',
    '"horizon": 100001',
    '"vehicles_per_cluster": 20000, "horizon": 101',
]

# Whole scenario files with a bad structure or a bad sweep value.
BAD_SCENARIOS = [
    '"sweeps": [{"param": "lam", "values": [-1]}]',
    '"sweeps": [{"param": "lam", "values": ["x"]}]',
    '"sweeps": [{"param": "lam", "values": 5}]',
    '"sweeps": [{"param": ["lam"], "values": [1]}]',
    '"sweeps": 5',
    '"output": 5',
    '"name": 5',
    '"name": "x\\u0000y"',
    '"name": "x/y"',
    '"output": "x\\u0000y"',
    '"name": "%s"' % ("x" * 300),  # an output file name past the name limit
    '"name": "a\\ud800b"',  # a lone surrogate: no file name can hold it
    '"params": {"lam": 1%s}' % ("0" * 5000),  # past the int parser's digit limit
]


def run_command(command: str, path: Path, *argv: str) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([command, "--config", str(path), *argv])
    return code, err.getvalue()


def assert_one_config_error(code: int, err: str) -> None:
    # An uncaught exception also ends with exit code 1, so the code alone
    # proves nothing; the single `config error:` line does.
    assert code == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), err


@pytest.mark.parametrize(
    "text, argv",
    [pytest.param('{"params": {%s}}' % p, (), id=p[:32]) for p in BAD_PARAMS]
    + [pytest.param("{%s}" % s, (), id=s[:48]) for s in BAD_SCENARIOS]
    + [pytest.param("{}", ("--seed", "-1"), id="--seed -1")],
)
def test_bad_input_is_one_config_error_line(tmp_path, text, argv):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert_one_config_error(*run_command("simulate", path, "--out", str(out), *argv))
    # Rejected before any comparison or summary file is written.
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "body", ['"params": {"formula_variant": "as-printed"}', '"params": {"receiver_prob": 0.5}',
             '"variant": "as-printed"', '"params": {"regime": "baseline"}']
)
def test_deleted_knobs_are_unknown(tmp_path, body):
    path = tmp_path / "scenario.json"
    path.write_text("{" + body + "}")
    with pytest.raises(ConfigError, match="unknown"):
        load_scenario(path)


@pytest.mark.parametrize(
    "argv",
    [["analytics", "--seed", "1"], ["analytics", "--variant", "as-printed"],
     ["simulate", "--variant", "as-printed"]],
)
def test_deleted_flags_are_unknown(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", str(SMALL)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_scenario_output_applies_unless_out_given(tmp_path, capsys):
    from_scenario = tmp_path / "from_scenario"
    from_flag = tmp_path / "from_flag"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "name": "tiny",
        "params": {"cluster_count": 1, "vehicles_per_cluster": 2, "horizon": 3},
        "output": str(from_scenario),
    }))
    assert main(["simulate", "--config", str(path)]) == 0
    assert main(["analytics", "--config", str(path)]) == 0
    assert sorted(p.name for p in from_scenario.iterdir()) == [
        "analytics_tiny.csv", "comparison_tiny.csv", "fig_conservation_tiny.csv",
        "fig_transactions_tiny.csv", "summary_tiny.txt",
    ]
    for child in from_scenario.iterdir():
        child.unlink()
    assert main(["simulate", "--config", str(path), "--out", str(from_flag)]) == 0
    assert main(["analytics", "--config", str(path), "--out", str(from_flag)]) == 0
    assert (from_flag / "summary_tiny.txt").exists()
    assert (from_flag / "analytics_tiny.csv").exists()
    assert not any(from_scenario.iterdir())


def test_run_size_caps_admit_the_scaled_run():
    cfg = make_config({"cluster_count": 100, "vehicles_per_cluster": 100, "horizon": 1000})
    assert cfg.n_vehicles * cfg.n_slots <= MAX_VEHICLE_SLOTS


def test_far_connect_range_runs(tmp_path):
    # The adaptive Simpson range mass raised on this range, so `simulate`
    # ended in a traceback.
    params = {"cluster_count": 2, "vehicles_per_cluster": 3, "horizon": 10,
              "connect_range": 1.7077776297938038e17, "range_stddev": 73.92677562436383}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"params": params}))
    assert run_command("simulate", path, "--out", str(tmp_path / "out")) == (0, "")


# Small base, so an accepted config runs at most a few hundred slots.
BASE = {"cluster_count": 2, "vehicles_per_cluster": 3, "horizon": 10}
VALUES = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -1, 0, 0.5, 2.5, 1e-320,
                     1e308, 1e300, 5e-324, 10**200, int(HUGE_INT), True, None, "x", [1, 2]]),
    st.integers(0, 12),
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.sampled_from([f.name for f in fields(SimConfig)]), VALUES,
                       min_size=1, max_size=2))
def test_any_config_is_rejected_or_runs(overrides):
    params = {**BASE, **overrides}
    try:
        make_config(params)
        accepted = True
    except ConfigError:
        accepted = False
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps({"params": params}))
        for command in ("simulate", "analytics"):
            code, err = run_command(command, path, "--out", tmp)
            if accepted and code == 0:
                assert err == ""
            else:
                assert_one_config_error(code, err)
