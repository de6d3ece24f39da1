import math
import struct
from dataclasses import replace
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_golden import CONFIGS

from fleetchain.analytics import transaction_count
from fleetchain.sim import (
    COMPARISON_EXTRA_COLUMNS,
    RUN_CSV_COLUMNS,
    SimConfig,
    _cells,
    _reduction_pct,
    _reduction_pcts,
    baseline_assumptions,
    compare_reports,
    comparison_csv,
    csv_text,
    paired_comparison,
    run_baseline,
    run_clustered,
)


def small_cfg(**overrides) -> SimConfig:
    base = dict(
        cluster_count=2,
        vehicles_per_cluster=2,
        app_count=2,
        lam=1.0,
        hops=4,
        horizon=10.0,
        slot=1.0,
        global_exchange_period=1,
        initial_energy=1e7,
        seed=5,
    )
    base.update(overrides)
    return SimConfig(**base)


# --- transaction counting -------------------------------------------------

def test_baseline_two_vehicles_one_slot():
    cfg = SimConfig(cluster_count=1, vehicles_per_cluster=2, lam=1.0, horizon=1.0,
                    app_count=1, initial_energy=1e9)
    report = run_baseline(cfg)
    assert report.transactions_total == 2.0  # N * lam * (N-1)


def test_baseline_zero_rate_is_free():
    report = run_baseline(small_cfg(lam=0.0))
    assert report.transactions_total == 0.0
    assert report.energy_total == 0.0


def test_baseline_linear_growth():
    cfg = small_cfg(horizon=20.0)
    report = run_baseline(cfg)
    n = cfg.n_vehicles
    per_slot = n * cfg.lam * (n - 1)
    for i, row in enumerate(report.rows, start=1):
        assert row.transactions_cum == pytest.approx(i * per_slot)


def test_clustered_counting_example():
    # 2 clusters of 2, exchange every slot: 2 local + 2 global = 4 per slot,
    # against a baseline of 4 * 1 * 3 = 12.
    cfg = small_cfg()
    clustered = run_clustered(cfg)
    assert clustered.rows[0].transactions_cum == 4.0
    assert clustered.transactions_total == 40.0
    baseline = run_baseline(cfg)
    assert baseline.rows[0].transactions_cum == 12.0


def test_clustered_degenerate_single_vehicle():
    cfg = SimConfig(cluster_count=1, vehicles_per_cluster=1, lam=1.0, horizon=5.0,
                    app_count=1, initial_energy=1e9)
    report = run_clustered(cfg)
    assert report.transactions_total == 0.0


def test_clustered_every_vehicle_a_head_matches_baseline():
    # |C| == N with one-hop exchanges every slot reproduces the baseline.
    cfg = SimConfig(cluster_count=6, vehicles_per_cluster=1, lam=1.0, hops=1,
                    horizon=10.0, app_count=2, global_exchange_period=1,
                    initial_energy=1e7, seed=3)
    comp = paired_comparison(cfg)
    assert comp.tx_reduction_pct == 0.0
    assert comp.energy_reduction_pct == 0.0


def test_monotone_dominance_grid():
    n = 20
    for clusters, per_cluster in ((2, 10), (4, 5), (10, 2)):
        for lam in (1.0, 3.0, 5.0):
            cfg = SimConfig(
                cluster_count=clusters,
                vehicles_per_cluster=per_cluster,
                lam=lam,
                horizon=20.0,
                app_count=2,
                initial_energy=1e9,
                global_exchange_period=4,
            )
            comp = paired_comparison(cfg)
            assert comp.clustered.transactions_total <= comp.baseline.transactions_total
            if clusters < n:
                assert comp.clustered.transactions_total < comp.baseline.transactions_total


# --- load-model exchange mode ------------------------------------------------

def test_load_model_mode_matches_analytic_ceiling():
    for seed, stddev, mean in ((1, 80.0, 250.0), (2, 120.0, 400.0), (3, 30.0, 150.0)):
        cfg = SimConfig(
            lam=2.0,
            seed=seed,
            use_load_model_exchange=True,
            horizon=50.0,
            range_stddev=stddev,
            mean_range=mean,
            radio_range=300.0,
            initial_energy=1e9,
        )
        report = run_clustered(cfg)
        ceiling = transaction_count(cfg.tx_count_params())
        tolerance = cfg.cluster_count * cfg.links_per_ledger
        assert abs(report.transactions_total - ceiling) <= tolerance


def test_load_model_mode_emission_is_monotone():
    cfg = SimConfig(lam=1.0, use_load_model_exchange=True, horizon=30.0,
                    range_stddev=50.0, initial_energy=1e9)
    report = run_clustered(cfg)
    counts = [r.transactions_cum for r in report.rows]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


# --- energy bookkeeping ---------------------------------------------------

def test_energy_itemisation_balances_every_slot():
    for runner in (run_baseline, run_clustered):
        report = runner(small_cfg(horizon=15.0))
        prev = 0.0
        for row in report.rows:
            itemised = row.security_j + row.transmission_j + row.update_j
            assert abs(row.energy_cum - prev - itemised) <= 1e-12 * max(1.0, row.energy_cum)
            prev = row.energy_cum
        initial = report.vehicles[0].initial_energy * len(report.vehicles)
        residual = 0.0
        for v in report.vehicles:
            residual += v.residual_energy
        assert abs(initial - residual - report.energy_total) <= 1e-12 * max(1.0, initial)


def test_residual_energy_never_increases():
    # The fleet's residual is its initial energy less `energy_cum`.
    report = run_clustered(small_cfg(horizon=20.0))
    energy = [r.energy_cum for r in report.rows]
    assert all(b >= a for a, b in zip(energy, energy[1:]))
    assert all(0.0 <= v.residual_energy <= v.initial_energy for v in report.vehicles)


def test_vehicles_deactivate_instead_of_going_negative():
    # budget funds only a handful of slots
    cfg = small_cfg(initial_energy=300000.0, horizon=10.0)
    report = run_baseline(cfg)
    assert all(v.residual_energy >= 0.0 for v in report.vehicles)
    assert not any(v.active for v in report.vehicles)  # all drained and parked
    # cumulative transactions freeze once everyone is inactive
    totals = [r.transactions_cum for r in report.rows]
    assert totals[-1] == totals[-2]


def test_exactly_one_head_per_cluster():
    report = run_clustered(small_cfg(horizon=12.0))
    for cluster in range(2):
        heads = [v for v in report.vehicles if v.cluster == cluster and v.role == "ch"]
        assert len(heads) == 1


def test_head_rotation_on_energy_drain():
    # tiny budget forces the head into the critical band, triggering handover
    cfg = SimConfig(
        cluster_count=1,
        vehicles_per_cluster=3,
        app_count=1,
        lam=1.0,
        hops=2,
        horizon=10.0,
        global_exchange_period=1,
        initial_energy=70000.0,
        critical_fraction=0.5,
        seed=1,
    )
    report = run_clustered(cfg)
    assert report.ch_changes_total >= 1
    change_rows = [r for r in report.trace if r.action == "change"]
    assert change_rows
    for row in change_rows:
        assert row.offload_slot == (row.slot - 1) * cfg.slot


# --- determinism and comparison -------------------------------------------

def test_same_seed_identical_csv():
    cfg = small_cfg(seed=99)
    ca = comparison_csv(paired_comparison(cfg))
    cb = comparison_csv(paired_comparison(cfg))
    assert ca == cb


def test_self_comparison_is_zero_delta():
    cfg = small_cfg()
    a = run_baseline(cfg)
    b = run_baseline(cfg)
    tx_pct, energy_pct = compare_reports(a, b)
    assert tx_pct == 0.0
    assert energy_pct == 0.0


def test_comparison_csv_layout():
    comp = paired_comparison(small_cfg(horizon=3.0))
    lines = comparison_csv(comp).splitlines()
    assert lines[0] == "t,regime,transactions_cum,energy_cum_J,ch_changes,offloads,tx_reduction_pct,energy_conservation_pct"
    assert len(lines) == 1 + 2 * 3
    assert lines[1].split(",")[1] == "baseline"
    assert lines[4].split(",")[1] == "clustered"


# Charges that overflow to inf: no vehicle can pay them.
NON_FINITE = {"request-1e307": {"energy_per_request": 1e307, "hops": 10},
              "record-1e308": {"energy_per_record": 1e308},
              "security-1e308": {"security_cost": 1e308}}


@pytest.mark.parametrize("name", [*sorted(CONFIGS), *NON_FINITE, "set-cells"])
def test_comparison_csv_is_what_csv_writer_writes(name):
    if name == "set-cells":
        # Cells that no run writes: inf, nan, -0.0 and large and small floats.
        comp = paired_comparison(small_cfg(horizon=4.0))
        comp.baseline.slots.transactions_cum[:] = [math.inf, 1e16, 0.0, -0.0]
        comp.baseline.slots.energy_cum[:] = [math.inf, 5e-324, 2.5, 1e300]
        comp.clustered.slots.transactions_cum[:] = [math.inf, math.nan, -1e16, 3.0]
    else:
        comp = paired_comparison(SimConfig(**CONFIGS.get(name, NON_FINITE.get(name))))
    base, clus = comp.baseline.slots, comp.clustered.slots
    reductions = [_cells([_reduction_pct(b, c) for b, c in zip(base_col, clus_col)])
                  for base_col, clus_col in ((base.transactions_cum, clus.transactions_cum),
                                             (base.energy_cum, clus.energy_cum))]
    rows = []
    for report, extra in ((comp.baseline, (repeat(""), repeat(""))),
                          (comp.clustered, reductions)):
        c = report.slots
        rows += zip(_cells(c.t), repeat(report.regime), _cells(c.transactions_cum),
                    _cells(c.energy_cum), c.ch_changes, c.ch_changes, *extra)
    text = comparison_csv(comp)
    assert text == csv_text(RUN_CSV_COLUMNS + COMPARISON_EXTRA_COLUMNS, rows)
    if name == "set-cells":
        assert "inf" in text and "nan" in text and "e-324" in text



# Bases and others at the edges: zeros of both signs, infinities, NaN,
# subnormals, the float range's ends, and others above their base.
EDGES = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
         2.2250738585072014e-308, 1e-300, 1.0, 3.0, 7.5, 1e16, 1e300, 1.7976931348623157e308,
         -1.0, -1e308)


def assert_pcts_match(bases, others):
    got = _reduction_pcts(np.array(bases), np.array(others)).tolist()
    want = [_reduction_pct(b, o) for b, o in zip(bases, others)]
    assert [struct.pack("<d", x) for x in got] == [struct.pack("<d", x) for x in want]
    assert all(type(x) is float for x in want)


def test_array_percentages_are_the_scalar_formula_bit_for_bit():
    assert_pcts_match([b for b in EDGES for _ in EDGES], [o for _ in EDGES for o in EDGES])


@given(st.lists(st.tuples(st.floats(), st.floats()), max_size=20))
def test_array_percentages_are_the_scalar_formula_on_any_floats(pairs):
    assert_pcts_match([b for b, _ in pairs], [o for _, o in pairs])

def test_conservation_factor_series():
    factors = []
    for lam in (2.0, 3.0, 4.0, 5.0):
        comp = paired_comparison(SimConfig(lam=lam, horizon=5.0, initial_energy=1e9))
        factors.append(comp.conservation_factor_pct)
    expected = [100.0 / 3.0, 40.0, 300.0 / 7.0, 400.0 / 9.0]
    for got, want in zip(factors, expected):
        assert math.isclose(got, want, rel_tol=1e-9)
    assert all(b > a for a, b in zip(factors, factors[1:]))


def test_assumption_ledger_names_the_head_capacity_choice_only_under_a_limit():
    plain = baseline_assumptions(small_cfg())
    assert not any("split" in line for line in plain)
    limited = baseline_assumptions(small_cfg(vehicle_tx_limit=10.0, required_tx_limit=50.0))
    assert limited[:-1] == plain
    assert limited[-1].startswith("head capacity: a head whose tx limit is under 50 ")
    assert limited[-1].endswith("else stays; no cluster split is modelled")


def test_cumulative_columns_monotone():
    for runner in (run_baseline, run_clustered):
        report = runner(small_cfg(horizon=15.0))
        tx = [r.transactions_cum for r in report.rows]
        energy = [r.energy_cum for r in report.rows]
        assert all(b >= a for a, b in zip(tx, tx[1:]))
        assert all(b >= a for a, b in zip(energy, energy[1:]))


def test_per_kind_cost_override_in_config():
    cfg = small_cfg(
        message_kinds=3,
        per_kind_cost=(1.0, 2.0, 3.0),
        energy_per_record=0.0,
        security_cost=0.0,
        app_count=1,
        cluster_count=1,
        vehicles_per_cluster=2,
        hops=2,
        horizon=1.0,
        initial_energy=100.0,
    )
    report = run_baseline(cfg)
    # 2 vehicles * hops 2 * (1 + 2 + 3)
    assert report.energy_total == 24.0


def test_constraint_report_attached():
    comp = paired_comparison(small_cfg())
    assert comp.constraints is not None
    assert comp.constraints.stay_time_ok


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(cluster_count=0)
    with pytest.raises(ValueError):
        SimConfig(horizon=0.0)


def test_all_critical_candidates_keep_the_head():
    # Every candidate drains into the critical band while lam 1.5 keeps
    # indicating a change: the heads stay instead of the cascade raising.
    cfg = SimConfig(cluster_count=2, vehicles_per_cluster=5, lam=1.5,
                    initial_energy=2.5e7, horizon=400.0)
    report = run_clustered(cfg)
    for cluster in range(cfg.cluster_count):
        heads = [v for v in report.vehicles if v.cluster == cluster and v.role == "ch"]
        assert len(heads) == 1
    kept = [r for r in report.trace if r.action == "keep"]
    assert kept and all(r.rule_used == "OST" and r.new_ch is None for r in kept)
