"""Invariants of the array-backed slot loop over random small configs, the
work the controller does on runs where no head or every head changes, the
slots the event-blocked loop steps alone, the rows a run builds only when
read, the slot counts of a run and of an exchange period, the active
counts the controller keeps while vehicles stop, and the exact-grid rule
that lets the loop take its sums in any order."""

import math

import fleetchain.controller
import fleetchain.sim
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import CONFIGS, OBJECT_FLEET_SEEDS, object_fleet

from fleetchain.controller import (
    ControllerConfig,
    FleetState,
    VehicleArrays,
    evaluate_slot,
    run_controller,
    slot_count,
)
from fleetchain.sim import (
    SimConfig,
    _on_grid,
    comparison_csv,
    paired_comparison,
    run_baseline,
    run_clustered,
)

configs = st.builds(
    SimConfig,
    cluster_count=st.integers(1, 4),
    vehicles_per_cluster=st.integers(1, 6),
    app_count=st.integers(1, 4),
    lam=st.sampled_from([0.0, 0.1, 1.0, 1.5, 2.0, 3.0]),
    hops=st.integers(0, 10),
    horizon=st.integers(1, 40).map(float),
    initial_energy=st.sampled_from([7e4, 3e5, 1e6, 2.5e7, 1e9]),
    critical_fraction=st.sampled_from([0.0, 0.1, 0.5, 0.9]),
    global_exchange_period=st.one_of(st.none(), st.integers(1, 5)),
    use_load_model_exchange=st.booleans(),
    vehicle_tx_limit=st.sampled_from([None, 10.0, 60.0]),
    required_tx_limit=st.sampled_from([None, 50.0]),
    seed=st.integers(0, 1000),
)


@settings(max_examples=60, deadline=None)
@given(configs)
def test_slot_loop_invariants(cfg):
    comp = paired_comparison(cfg)
    heads = [v.cluster for v in comp.clustered.vehicles if v.role == "ch"]
    assert sorted(heads) == list(range(cfg.cluster_count))
    initial = cfg.initial_energy * cfg.n_vehicles
    for report in (comp.baseline, comp.clustered):
        residual = 0.0
        for v in report.vehicles:
            residual += v.residual_energy
        assert abs(initial - residual - report.energy_total) <= 1e-12 * max(1.0, initial)
        prev_energy = 0.0
        for row in report.rows:
            itemised = row.security_j + row.transmission_j + row.update_j
            assert abs(row.energy_cum - prev_energy - itemised) <= 1e-12 * max(1.0, row.energy_cum)
            prev_energy = row.energy_cum


def test_steady_run_builds_no_candidates(monkeypatch):
    counts = {"candidates": 0, "pre_decay": 0}
    candidate = fleetchain.controller.Candidate
    pre_decay_check = fleetchain.controller.pre_decay_check

    def counting_candidate(*args, **kwargs):
        counts["candidates"] += 1
        return candidate(*args, **kwargs)

    def counting_pre_decay(*args, **kwargs):
        counts["pre_decay"] += 1
        return pre_decay_check(*args, **kwargs)

    monkeypatch.setattr(fleetchain.controller, "Candidate", counting_candidate)
    monkeypatch.setattr(fleetchain.controller, "pre_decay_check", counting_pre_decay)
    # 5 clusters x 10 vehicles x 100 slots at the lam 2 tie: every head stays.
    comp = paired_comparison(SimConfig(lam=2.0, horizon=100.0))
    assert len(comp.clustered.trace) == 5 * 100
    assert comp.clustered.ch_changes_total == 0
    assert counts == {"candidates": 0, "pre_decay": 1}


def test_churn_run_selects_heads_without_candidates(monkeypatch):
    counts = {"candidates": 0, "decide": 0, "apply_change": 0}
    originals = {name: getattr(fleetchain.controller, attr)
                 for name, attr in (("candidates", "Candidate"), ("decide", "decide"),
                                    ("apply_change", "_apply_change"))}

    def counting(name):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return originals[name](*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fleetchain.controller, "Candidate", counting("candidates"))
    monkeypatch.setattr(fleetchain.controller, "decide", counting("decide"))
    monkeypatch.setattr(fleetchain.controller, "_apply_change", counting("apply_change"))
    # 5 clusters x 10 vehicles x 100 slots at lam 1.5: every head changes on
    # every slot.
    comp = paired_comparison(SimConfig(lam=1.5, horizon=100.0))
    assert comp.clustered.ch_changes_total == 5 * 100
    assert counts == {"candidates": 0, "decide": 0, "apply_change": 5 * 100}


def test_churn_run_builds_rows_only_when_read(monkeypatch):
    built = {"TraceRow": 0, "SlotRow": 0}
    for module, name in ((fleetchain.controller, "TraceRow"), (fleetchain.sim, "TraceRow"),
                         (fleetchain.sim, "SlotRow")):
        cls = getattr(module, name)

        def counting(*args, _cls=cls, _name=name, **kwargs):
            built[_name] += 1
            return _cls(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    # Every head changes on every slot, so every slot is stepped alone.
    comp = paired_comparison(SimConfig(lam=1.5, horizon=100.0))
    comparison_csv(comp)
    assert comp.clustered.ch_changes_total == 5 * 100
    assert built == {"TraceRow": 0, "SlotRow": 0}
    assert len(comp.clustered.trace) == 5 * 100
    assert built == {"TraceRow": 5 * 100, "SlotRow": 0}
    assert len(comp.baseline.rows) + len(comp.clustered.rows) == 2 * 100
    assert built == {"TraceRow": 5 * 100, "SlotRow": 2 * 100}


@pytest.mark.parametrize("seed", OBJECT_FLEET_SEEDS)
def test_slot_trace_length_is_its_row_count(seed):
    # Two identical fleets stepped alike: what `evaluate_slot` returns has
    # as many rows by `len()` as it yields.
    fleets = [object_fleet(seed), object_fleet(seed)]
    for fleet in fleets:
        fleet.vehicles = VehicleArrays.of(fleet.vehicles)
    cfg = ControllerConfig(slot=1.0, horizon=12.0, expected_score=1.0)
    for slot in range(1, 13):
        trace = evaluate_slot(fleets[0], cfg, slot)
        rows = list(evaluate_slot(fleets[1], cfg, slot))
        assert len(trace) == len(rows) > 0
        assert list(trace) == rows


def evaluated_slots(monkeypatch, cfg: SimConfig) -> list[int]:
    """The slots on which a paired run of `cfg` called `evaluate_slot`."""
    slots = []
    evaluate_slot = fleetchain.sim.evaluate_slot

    def counting(fleet, ctrl, slot_index):
        slots.append(slot_index)
        return evaluate_slot(fleet, ctrl, slot_index)

    monkeypatch.setattr(fleetchain.sim, "evaluate_slot", counting)
    paired_comparison(cfg)
    return slots


def test_steady_run_evaluates_the_heads_once_per_stretch(monkeypatch):
    # No event after slot 1: the other 99 slots repeat its keep rows.
    assert len(evaluated_slots(monkeypatch, SimConfig(lam=2.0, horizon=100.0))) <= 5


def test_churn_run_evaluates_every_slot(monkeypatch):
    # Every head changes on every slot, so no slot joins a block.
    assert len(evaluated_slots(monkeypatch, SimConfig(lam=1.5, horizon=100.0))) == 100


@pytest.mark.parametrize("name, slots", [
    # Slot 1 carries the join charge; the members cannot pay at slot 28 and
    # the heads not the exchange at slot 30.
    ("member-dry", [1, 28, 30]),
    # Heads fall below the critical level at slots 25 and 48; the slot after
    # each handover runs alone too, and the first heads, members since slot
    # 25, cannot pay at slot 52.
    ("head-critical", [1, 25, 26, 48, 49, 52]),
    ("lam-0.1-keep", [1]),
    ("large-fleet", [1]),
])
def test_events_are_stepped_alone(monkeypatch, name, slots):
    cfg = SimConfig(**CONFIGS[name])
    if name == "large-fleet":
        # The 2000 vehicles' members share one residual: a block's columns
        # are it and the 8 heads, and one block holds the run after slot 1.
        assert fleetchain.sim.BLOCK_CELLS // (1 + cfg.cluster_count + 1) >= cfg.n_slots - 1
    assert evaluated_slots(monkeypatch, cfg) == slots


def block_calls(monkeypatch) -> list[tuple[int, int, int]]:
    """Filled, as runs go, with the (first slot, slots asked, slots
    stepped) of every `_SlotLoop._block` call."""
    calls = []
    block = fleetchain.sim._SlotLoop._block

    def counting(loop, s, k):
        ran = block(loop, s, k)
        calls.append((s, k, ran))
        return ran

    monkeypatch.setattr(fleetchain.sim._SlotLoop, "_block", counting)
    return calls


def test_steady_grid_run_is_one_block_after_slot_one(monkeypatch):
    # The fleet-steady shape is on the exact transaction grid and its
    # members share one residual: each regime steps slot 1 alone and the
    # other 199 slots as one block whose columns are that residual and the
    # 20 heads.
    blocks = block_calls(monkeypatch)
    cfg = SimConfig(cluster_count=20, vehicles_per_cluster=50, lam=2.0, horizon=200.0,
                    global_exchange_period=10)
    assert fleetchain.sim.BLOCK_CELLS // (1 + cfg.cluster_count + 1) >= 199
    assert evaluated_slots(monkeypatch, cfg) == [1]
    assert blocks == [(2, 199, 199)] * 2


@pytest.mark.parametrize("name, slots", [
    ("member-dry", [1, 28, 30]),
    ("head-critical", [1, 25, 26, 48, 49, 52]),
])
def test_late_events_on_the_grid_are_stepped_alone(monkeypatch, name, slots):
    # 1000 vehicles per cluster, whose members share one residual: a block
    # whose columns are that residual and the 3 heads holds the run after
    # slot 1, so the first event falls inside one block on the exact
    # transaction grid. The slots stepped alone are those of the 5-vehicle
    # clusters.
    blocks = block_calls(monkeypatch)
    cfg = SimConfig(**{**CONFIGS[name], "vehicles_per_cluster": 1000})
    assert fleetchain.sim.BLOCK_CELLS // (1 + cfg.cluster_count + 1) >= cfg.n_slots - 1
    assert evaluated_slots(monkeypatch, cfg) == slots
    assert (2, cfg.n_slots - 1, slots[1] - 2) in blocks


def test_off_energy_grid_run_is_one_block_after_slot_one(monkeypatch):
    # 1e9 / 3 J is on no exact energy grid. The baseline's 500 vehicles pay
    # alike, so they are one block column, and the 199 slots after slot 1
    # are one block.
    blocks = block_calls(monkeypatch)
    cfg = SimConfig(cluster_count=10, vehicles_per_cluster=50, lam=1.5, horizon=200.0,
                    initial_energy=1e9 / 3)
    run_baseline(cfg)
    assert blocks == [(2, 199, 199)]


def test_blocks_cut_by_their_size_cap_are_followed_by_blocks(monkeypatch):
    # 100 clusters x 100 vehicles x 1000 slots at the lam 2 tie: a clustered
    # block of one member residual and 100 heads is capped at 321 slots, and
    # the next block starts where it stopped; only slot 1 runs alone. The
    # baseline's vehicles run dry at slot 554, which runs alone.
    blocks = block_calls(monkeypatch)
    cfg = SimConfig(cluster_count=100, vehicles_per_cluster=100, lam=2.0, horizon=1000.0)
    assert fleetchain.sim.BLOCK_CELLS // (1 + cfg.cluster_count + 1) == 321
    assert evaluated_slots(monkeypatch, cfg) == [1]
    assert blocks == [(2, 999, 552), (555, 446, 446),
                      (2, 999, 321), (323, 678, 321), (644, 357, 321), (965, 36, 36)]
    assert [(first, last) for _, first, last in run_clustered(cfg).trace_runs] == [(1, 1000)]


@pytest.mark.parametrize(
    "horizon, slot, n", [(14.0, 4.0, 3), (10.0, 4.0, 2), (0.3, 0.1, 3), (100.0, 1.0, 100)]
)
def test_clock_never_passes_the_horizon(horizon, slot, n):
    assert slot_count(horizon, slot) == n
    cfg = SimConfig(cluster_count=2, vehicles_per_cluster=3, horizon=horizon, slot=slot)
    assert cfg.n_slots == n
    for report in (run_baseline(cfg), run_clustered(cfg)):
        assert len(report.rows) == n
        assert report.rows[-1].t == n * slot
    fleet = FleetState(
        vehicles=run_clustered(cfg).vehicles,
        mobility=cfg.mobility(),
        connectivity=cfg.connectivity(),
    )
    rows = run_controller(fleet, ControllerConfig(slot=slot, horizon=horizon))
    assert max(r.slot for r in rows) == n
    assert max(r.slot for r in rows) * slot <= horizon * (1 + 1e-9)


@pytest.mark.parametrize("stay_time, slot, period", [(2.1, 0.7, 3), (10.0, 1.0, 10), (2.5, 1.0, 3)])
def test_exchange_period_in_whole_slots(stay_time, slot, period):
    # 2.1 / 0.7 is 3.0000000000000004 in floating point: still 3 slots.
    cfg = SimConfig(stay_time=stay_time, slot=slot, horizon=20.0)
    assert cfg.period_value == period



def run_checking_counts(monkeypatch, cfg: SimConfig):
    """`run_clustered(cfg)`, checking around every slot stepped alone that
    the active counts the controller keeps equal a fresh count of the
    `active` flags."""
    evaluate_slot = fleetchain.sim.evaluate_slot

    def check(fleet):
        fresh = np.bincount(fleet._cluster_of, weights=fleet.vehicles.active,
                            minlength=fleet._active_count.size)
        assert fleet._active_count.tolist() == fresh.tolist()

    def checking(fleet, ctrl, slot_index):
        if slot_index > 1:  # the counts are taken on slot 1
            check(fleet)
        trace = evaluate_slot(fleet, ctrl, slot_index)
        check(fleet)
        return trace

    monkeypatch.setattr(fleetchain.sim, "evaluate_slot", checking)
    return run_clustered(cfg)


@pytest.mark.parametrize("name", ["churn-drain", "full-drain", "head-critical"])
def test_active_counts_follow_the_vehicles_that_stop(monkeypatch, name):
    report = run_checking_counts(monkeypatch, SimConfig(**CONFIGS[name]))
    assert not all(v.active for v in report.vehicles)


@settings(max_examples=30, deadline=None)
@given(configs.filter(lambda cfg: cfg.lam > 0 and cfg.initial_energy <= 1e6))
def test_active_counts_follow_draining_runs(cfg):
    with pytest.MonkeyPatch.context() as monkeypatch:
        run_checking_counts(monkeypatch, cfg)


@pytest.mark.parametrize("amounts, reach, on", [
    ([0.0, 0.0], 0.0, True),  # zero amounts set no grid
    ([0.0, 1.0], 2.0**53 - 1, True),
    ([5e-324], 2.0**-1021 - 5e-324, True),  # g is 2**-1074
    ([5e-324], 2.0**-1021, False),
    ([0.1], 1.0, False),  # g is 2**-55: exact only below 0.25
    ([0.5, 3.0], 2.0**52, False),  # a reach of exactly 2**53 * g
    ([0.5, 3.0], 2.0**52 - 0.5, True),  # one grid step below it
    ([1e308], 1e308, True),  # 2**53 * g is past the float range
    ([math.inf], 0.0, False),
    ([math.nan], 0.0, False),
    ([1.0], math.inf, False),
    ([-0.0], 0.0, True),
])
def test_exact_grid_at_its_edges(amounts, reach, on):
    assert _on_grid(amounts, reach) is on
