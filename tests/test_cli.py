import csv
import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fleetchain.cli import main
from fleetchain.scenario import ConfigError, expand, load_scenario, make_config

REPO = Path(__file__).resolve().parent.parent
REFERENCE = REPO / "scenarios" / "reference.json"
SMALL = REPO / "scenarios" / "small.json"


def write_scenario(tmp_path: Path, payload: dict) -> Path:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    return path


# --- scenario loading -----------------------------------------------------

def test_load_reference_scenario():
    scenario = load_scenario(REFERENCE)
    assert scenario.name == "reference"
    assert scenario.config.cluster_count == 5
    assert scenario.config.seed == 42
    points = expand(scenario)
    assert [cfg.lam for _, cfg in points] == [2, 3, 4, 5]
    assert points[0][0] == "lam=2"


def test_unknown_param_rejected(tmp_path):
    path = write_scenario(tmp_path, {"params": {"warp_factor": 9}})
    with pytest.raises(ConfigError):
        load_scenario(path)


def test_unknown_sweep_axis_rejected(tmp_path):
    path = write_scenario(
        tmp_path, {"params": {}, "sweeps": [{"param": "nonsense", "values": [1]}]}
    )
    with pytest.raises(ConfigError):
        load_scenario(path)


def test_invalid_param_value_rejected():
    with pytest.raises(ConfigError):
        make_config({"cluster_count": 0})


def test_multi_axis_sweep_is_cartesian(tmp_path):
    path = write_scenario(
        tmp_path,
        {
            "params": {"horizon": 10},
            "sweeps": [
                {"param": "lam", "values": [1, 2]},
                {"param": "hops", "values": [1, 2, 3]},
            ],
        },
    )
    points = expand(load_scenario(path))
    assert len(points) == 6
    assert points[0][0] == "lam=1_hops=1"


# --- command behaviour (in-process) ----------------------------------------

def test_simulate_writes_deterministic_files(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["simulate", "--config", str(SMALL), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(SMALL), "--out", str(out2)]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_analytics_monotone_horizon_sweep(tmp_path, capsys):
    assert main(["analytics", "--config", str(SMALL), "--out", str(tmp_path)]) == 0
    csv_path = tmp_path / "analytics_small.csv"
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 11  # header + 10 sweep rows
    counts = [int(line.split(",")[4]) for line in lines[1:]]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    # as-printed diverges from as-derived on these inputs
    printed = [int(line.split(",")[5]) for line in lines[1:]]
    assert printed != counts


def test_analytics_reports_infeasible_rows_and_continues(tmp_path):
    path = write_scenario(
        tmp_path,
        {
            "name": "odd",
            # frequency above the attainable peak makes the decay infeasible
            "params": {"horizon": 10, "op_frequency1": 1.0},
        },
    )
    assert main(["analytics", "--config", str(path), "--out", str(tmp_path)]) == 0
    content = (tmp_path / "analytics_odd.csv").read_text()
    assert "infeasible" in content


@pytest.mark.parametrize("params, tx_cells", [
    # Each ended in a traceback from `math.ceil` of an infinite or NaN load.
    ({"lam": 1e308}, ["", "", ""]),
    ({"range_stddev": 5e-324}, ["", "", ""]),
    ({"mean_range": 1e300}, ["1", "1", "1"]),
])
def test_analytics_reports_an_infinite_ceiling_as_an_infeasible_row(tmp_path, capsys, params,
                                                                    tx_cells):
    path = write_scenario(tmp_path, {"name": "edge", "params": {"horizon": 10, **params}})
    assert main(["analytics", "--config", str(path), "--out", str(tmp_path)]) == 0
    row = list(csv.reader((tmp_path / "analytics_edge.csv").read_text().splitlines()))[1]
    assert row[4:7] == tx_cells
    assert ("txcount infeasible: " in row[7]) == (tx_cells[0] == "")


def test_validate_passes_inprocess(capsys):
    assert main(["validate", "--grid", "10"]) == 0
    out = capsys.readouterr().out
    assert "validation passed" in out


def test_validate_zero_tolerance_fails(capsys):
    assert main(["validate", "--grid", "5", "--tolerance", "0"]) == 2


@pytest.mark.parametrize("flags", [
    pytest.param(["--grid", "0"], id="0"),
    pytest.param(["--grid", "-3"], id="-3"),
    pytest.param(["--grid", "5", "--tolerance", "nan"], id="tolerance-nan"),
    pytest.param(["--grid", "5", "--tolerance", "-1"], id="tolerance--1"),
    pytest.param(["--grid", "5", "--tolerance", "inf"], id="tolerance-inf"),
])
def test_validate_rejects_a_grid_under_one(capsys, flags):
    # `--grid -3` printed "validation passed" after checking nothing; a NaN
    # or negative tolerance failed every value, and an infinite one passed
    # every value.
    assert main(["validate", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), captured.err


def test_config_error_exit_code(tmp_path, capsys):
    path = write_scenario(tmp_path, {"params": {"bogus": 1}})
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert main(["simulate", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 1


def test_io_error_exit_code(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    # output dir path runs through an existing file -> OSError -> exit 3
    assert main(["simulate", "--config", str(SMALL), "--out", str(blocker / "sub")]) == 3


# --- console entry point ---------------------------------------------------

def test_subprocess_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "fleetchain", "simulate", "--config", str(SMALL),
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert result.returncode == 0
    assert "modelling assumptions" in result.stdout


def test_simulate_imports_no_scipy(tmp_path):
    # Only the oracle checks need scipy, whose import costs more than a
    # small simulation.
    script = (
        "import sys\n"
        "from fleetchain.cli import main\n"
        f"code = main(['simulate', '--config', {str(SMALL)!r}, '--out', {str(tmp_path)!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            cwd=REPO)
    assert result.stdout.splitlines()[-1] == "0 []", result.stderr


def test_subprocess_validate_tolerance_zero(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "fleetchain", "validate", "--grid", "5",
         "--tolerance", "0"],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert result.returncode == 2


def test_fig_transactions_cells_are_the_comparison_cells(tmp_path):
    # At lam 1.75 the baseline count of slot 99 is 424462.5, which `:g`
    # wrote as 424462.
    path = write_scenario(tmp_path, {"name": "f", "params": {"lam": 1.75}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    with open(out / "comparison_f.csv") as f:
        comparison = list(csv.DictReader(f))
    with open(out / "fig_transactions_f.csv") as f:
        figure = list(csv.DictReader(f))
    base = [r for r in comparison if r["regime"] == "baseline"]
    clus = [r for r in comparison if r["regime"] == "clustered"]
    assert [(r["t"], r["baseline_transactions"], r["clustered_transactions"]) for r in figure] == [
        (b["t"], b["transactions_cum"], c["transactions_cum"]) for b, c in zip(base, clus)]
    assert figure[98]["baseline_transactions"] == "424462.5"


def test_integer_sweep_values_are_labelled_in_full(tmp_path):
    path = write_scenario(tmp_path, {"name": "s", "params": {"horizon": 5},
                                     "sweeps": [{"param": "seed",
                                                 "values": [123456789, 123456790]}]})
    assert [label for label, _ in expand(load_scenario(path))] == [
        "seed=123456789", "seed=123456790"]
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("comparison_*")) == [
        "comparison_s_seed=123456789.csv", "comparison_s_seed=123456790.csv"]


def test_summary_totals_are_the_comparison_cells(tmp_path, capsys):
    # `:g` wrote the lam 5 baseline count 1225000 as 1.225e+06 and every
    # energy total to six digits.
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(REFERENCE), "--out", str(out)]) == 0
    summary = (out / "summary_reference.txt").read_text()
    assert capsys.readouterr().out.startswith(summary)
    totals = {}
    for label, metric, base, clus in re.findall(
            r"^\[(\S+)\] (transactions|energy): baseline=(\S+)(?: J)? clustered=(\S+)",
            summary, flags=re.MULTILINE):
        totals[label, metric] = (base, clus)
    assert totals["lam=5", "transactions"] == ("1225000", "22700")
    for label in ("lam=2", "lam=3", "lam=4", "lam=5"):
        with open(out / f"comparison_reference_{label}.csv") as f:
            rows = list(csv.DictReader(f))
        last = {r["regime"]: r for r in rows}
        for metric, column in (("transactions", "transactions_cum"), ("energy", "energy_cum_J")):
            assert totals[label, metric] == (last["baseline"][column], last["clustered"][column])


@pytest.mark.parametrize("params, digest", [
    ({"energy_per_request": 1e307, "hops": 10},
     "dd104ca16c305f5021e8e3c238bf47393a1b0c8aa0345c1c76464ad52c34d729"),
    ({"energy_per_record": 1e308},
     "f23a5860f287d3cfc72612aa3b0b3720c014366bf2463f877ab85cf0ddcfaa0c"),
    ({"security_cost": 1e308},
     "f23a5860f287d3cfc72612aa3b0b3720c014366bf2463f877ab85cf0ddcfaa0c"),
])
def test_non_finite_charges_run_to_completion(tmp_path, params, digest):
    # Each config's slot charges overflow to inf, so no vehicle pays slot 1
    # and the blocks after it have no paying column. The digests are those
    # of the sequential slot loop.
    path = write_scenario(tmp_path, {"name": "x", "params": params})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "comparison_x.csv").read_bytes()).hexdigest() == digest
