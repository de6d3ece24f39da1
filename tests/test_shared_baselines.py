"""One baseline run per distinct baseline within a `simulate` command.

The baseline regime reads only `BASELINE_FIELDS`, so the points of a sweep
that agree on them share one `run_baseline` report and the baseline half of
its comparison CSV. These tests hold the key to what the baseline reads, and
the sharing to one `shared_baselines` block."""

import json
from dataclasses import fields

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fleetchain.sim as sim
from fleetchain.cli import main
from fleetchain.scenario import expand, load_scenario, make_config
from fleetchain.sim import (
    BASELINE_FIELDS,
    SimConfig,
    baseline_key,
    comparison_csv,
    paired_comparison,
    run_baseline,
    shared_baselines,
)

# A value other than the default for each field outside the key.
OUTSIDE_VALUES = {
    "lam1": st.sampled_from([0.0, 0.5, 3.0]),
    "lam2": st.sampled_from([0.5, 1.0, 4.0]),
    "excess_ratio": st.sampled_from([1.5, 4.0]),
    "energy_stddev": st.sampled_from([0.5, 3.0]),
    "request_change_rate": st.sampled_from([0.5, 2.0]),
    "connect_range": st.sampled_from([300.0, 800.0]),
    "mean_range": st.sampled_from([100.0, 450.0]),
    "range_stddev": st.sampled_from([0.5, 60.0]),
    "presence": st.sampled_from([0.01, 0.5]),
    "threshold_prob": st.sampled_from([0.3, 0.9]),
    "links_per_ledger": st.integers(2, 4),
    "parallel_links": st.integers(2, 4),
    "critical_fraction": st.sampled_from([0.0, 0.5, 1.0]),
    "seed": st.integers(1, 1000),
    "global_exchange_period": st.integers(1, 12),
    "use_load_model_exchange": st.just(True),
    "expected_rate": st.sampled_from([0.5, 3.0]),
    "expected_score": st.sampled_from([0.0, 5.0]),
    "required_tx_limit": st.sampled_from([0.0, 50.0]),
    "op_mean1": st.sampled_from([-1.0, 1.0]),
    "op_sigma1": st.sampled_from([0.5, 2.0]),
    "op_mean2": st.sampled_from([-1.0, 1.0]),
    "op_sigma2": st.sampled_from([0.5, 2.0]),
    "op_frequency1": st.sampled_from([0.1, 0.3]),
    "op_frequency2": st.sampled_from([0.1, 0.3]),
}

# Small baselines over the key fields: drains, tx limits and stay times.
base_configs = st.fixed_dictionaries({
    "cluster_count": st.integers(1, 4),
    "vehicles_per_cluster": st.integers(1, 6),
    "app_count": st.integers(1, 4),
    "lam": st.sampled_from([0.0, 0.5, 1.5, 2.0, 3.0]),
    "hops": st.integers(0, 10),
    "horizon": st.integers(1, 40).map(float),
    "slot": st.sampled_from([1.0, 0.5]),
    "security_cost": st.sampled_from([0.0, 0.625, 3e3]),
    "initial_energy": st.sampled_from([7e4, 3e5, 1e6, 1e9]),
    "stay_time": st.sampled_from([None, 5.0]),
    "vehicle_tx_limit": st.sampled_from([None, 10.0]),
})


def outputs(report) -> tuple:
    # repr keeps every bit, and tells -0.0 from 0.0.
    return repr(report.rows), report.spans, repr(report.vehicles)


def test_every_field_is_in_the_key_or_perturbed():
    names = {f.name for f in fields(SimConfig)}
    assert set(BASELINE_FIELDS) <= names
    assert set(OUTSIDE_VALUES) == names - set(BASELINE_FIELDS)


@settings(max_examples=200, deadline=None)
@given(base_configs, st.fixed_dictionaries({}, optional=OUTSIDE_VALUES))
def test_fields_outside_the_key_leave_the_baseline_unchanged(base, perturbed):
    try:
        cfg = SimConfig(**base)
        other = SimConfig(**base, **perturbed)
    except ValueError:
        assume(False)
    assert baseline_key(cfg) == baseline_key(other)
    assert outputs(run_baseline(cfg)) == outputs(run_baseline(other))


# A change of each key field from the defaults at a short horizon, and the
# baseline output it shows in. `stay_time`, `radio_range`, `vehicle_tx_limit`
# and `initial_energy` show only in `RunReport.vehicles`, which reads them
# from the report's config, so configs that differ in them cannot share one.
KEY_CHANGES = {
    "cluster_count": (4, "slots"),
    "vehicles_per_cluster": (9, "slots"),
    "app_count": (9, "slots"),
    "lam": (3.0, "slots"),
    "gamma": (3.0, "slots"),
    "message_kinds": (2, "slots"),
    "hops": (4, "slots"),
    "energy_per_record": (100.0, "slots"),
    "energy_per_request": (100.0, "slots"),
    "security_cost": (1.0, "slots"),
    "horizon": (5.0, "slots"),
    "slot": (0.5, "slots"),
    "records_per_tx": (2, "slots"),
    "per_kind_cost": ((1.0, 2.0, 3.0), "slots"),
    "radio_range": (400.0, "vehicles"),
    "stay_time": (5.0, "vehicles"),
    "vehicle_tx_limit": (10.0, "vehicles"),
    "initial_energy": (1e8, "vehicles"),
}


def test_every_key_field_changes_a_baseline_output():
    assert set(KEY_CHANGES) == set(BASELINE_FIELDS)
    reference = run_baseline(SimConfig(horizon=10.0))
    for name, (value, shown_in) in KEY_CHANGES.items():
        report = run_baseline(SimConfig(**{"horizon": 10.0, name: value}))
        slots_differ = repr(report.rows) != repr(reference.rows)
        vehicles_differ = repr(report.vehicles) != repr(reference.vehicles)
        assert (slots_differ, vehicles_differ) == (shown_in == "slots", True), name


def test_values_equal_only_as_numbers_get_different_keys():
    pairs = [({"initial_energy": 0.0}, {"initial_energy": -0.0}),
             ({"per_kind_cost": (1, 2, 3)}, {"per_kind_cost": (1.0, 2.0, 3.0)}),
             ({"security_cost": 0.0}, {"security_cost": -0.0})]
    for a, b in pairs:
        assert baseline_key(SimConfig(**a)) != baseline_key(SimConfig(**b))
    # Signed zeros reach the vehicles a report gives.
    assert (repr(run_baseline(SimConfig(horizon=3.0, initial_energy=0.0)).vehicles)
            != repr(run_baseline(SimConfig(horizon=3.0, initial_energy=-0.0)).vehicles))


def test_a_block_shares_one_report_per_key_and_nothing_outside(monkeypatch):
    calls = []

    def counting(cfg):
        calls.append(cfg)
        return run_baseline(cfg)

    monkeypatch.setattr(sim, "run_baseline", counting)
    small = {"cluster_count": 2, "vehicles_per_cluster": 3, "horizon": 8.0, "lam": 1.5}
    a = SimConfig(**small)
    b = SimConfig(**small, range_stddev=60.0, global_exchange_period=3)
    c = SimConfig(**small, initial_energy=-0.0)
    with shared_baselines():
        ca, cb, cc = (paired_comparison(cfg) for cfg in (a, b, c))
        with shared_baselines():  # a block inside another starts empty
            inner = paired_comparison(a)
        again = paired_comparison(a)
    assert ca.baseline is cb.baseline is again.baseline
    assert cc.baseline is not ca.baseline and inner.baseline is not ca.baseline
    assert len(calls) == 3
    outside = paired_comparison(a)
    assert outside.baseline is not ca.baseline and len(calls) == 4
    # The shared report is the one each config runs on its own, and each
    # comparison keeps its own config.
    for comp in (ca, cb, cc):
        alone = sim.paired_comparison(comp.config)
        assert outputs(comp.baseline) == outputs(alone.baseline)
        assert comparison_csv(comp) == comparison_csv(alone)
    assert cb.config is b


def test_the_baseline_half_is_formatted_once():
    comp = paired_comparison(SimConfig(horizon=5.0))
    half = comp.baseline.csv_half
    assert comp.baseline.csv_half is half
    text = comparison_csv(comp)
    assert comparison_csv(comp) == text
    assert text.splitlines(keepends=True)[1:6] == half[2].splitlines(keepends=True)


SWEEP = {"name": "shared", "params": {"horizon": 20.0, "lam": 1.5},
         "sweeps": [{"param": "global_exchange_period", "values": [1, 7]},
                    {"param": "range_stddev", "values": [1.0, 60.0]},
                    {"param": "initial_energy", "values": [0.0, -0.0, 3e6]},
                    {"param": "per_kind_cost", "values": [[1, 2, 3], [1.0, 2.0, 3.0]]}]}


def test_simulate_writes_what_unshared_runs_write(tmp_path, capsys, monkeypatch):
    path = tmp_path / "shared.json"
    path.write_text(json.dumps(SWEEP))
    calls = []
    monkeypatch.setattr(sim, "run_baseline", lambda cfg: calls.append(cfg) or run_baseline(cfg))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    points = expand(load_scenario(path))
    assert (len(points), len(calls)) == (24, 6)
    for label, cfg in points:
        text = (tmp_path / "out" / f"comparison_shared_{label}.csv").read_bytes().decode()
        assert text == comparison_csv(paired_comparison(cfg)), label


def test_a_list_per_kind_cost_is_stored_as_a_tuple():
    listed = SimConfig(per_kind_cost=[1.0, 2.0, 3.0])
    tupled = SimConfig(per_kind_cost=(1.0, 2.0, 3.0))
    assert listed.per_kind_cost == (1.0, 2.0, 3.0)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert make_config({"per_kind_cost": [1.0, 2.0, 3.0]}) == tupled

