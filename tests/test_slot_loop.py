"""Invariants of the array-backed slot loop over random small configs, the
work the controller does on runs where no head or every head changes, the
slots the event-blocked loop steps alone, where its swap blocks end, the
rows a run builds only when read, the slot counts of a run and of an
exchange period, the active counts the controller keeps while vehicles
stop, the exact-grid rule that lets the loop take its sums in any order,
and the closed-form transaction and energy totals of runs where no vehicle
stops."""

import math
from fractions import Fraction

import fleetchain.controller
import fleetchain.sim
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_golden import CONFIGS, OBJECT_FLEET_SEEDS, object_fleet
from test_slot_loop_spec import spec_run, vehicle_cells

from fleetchain.controller import (
    ControllerConfig,
    FleetState,
    VehicleArrays,
    evaluate_slot,
    run_controller,
    slot_count,
)
from fleetchain.energy import ledger_update_energy, transmission_energy
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


def test_steady_run_checks_pre_decay_once(monkeypatch):
    calls = 0
    pre_decay_check = fleetchain.controller.pre_decay_check

    def counting_pre_decay(*args, **kwargs):
        nonlocal calls
        calls += 1
        return pre_decay_check(*args, **kwargs)

    monkeypatch.setattr(fleetchain.controller, "pre_decay_check", counting_pre_decay)
    # 5 clusters x 10 vehicles x 100 slots at the lam 2 tie: every head stays.
    comp = paired_comparison(SimConfig(lam=2.0, horizon=100.0))
    assert len(comp.clustered.trace) == 5 * 100
    assert comp.clustered.ch_changes_total == 0
    assert calls == 1


def test_churn_run_moves_heads_in_blocks_after_slot_one(monkeypatch):
    calls = 0
    apply_change = fleetchain.controller._apply_change

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return apply_change(*args, **kwargs)

    monkeypatch.setattr(fleetchain.controller, "_apply_change", counting)
    # 5 clusters x 10 vehicles x 100 slots at lam 1.5: every head changes on
    # every slot. `evaluate_slot` moves each head on slot 1, the one slot
    # stepped alone; the swap block after it moves them without it.
    comp = paired_comparison(SimConfig(lam=1.5, horizon=100.0))
    assert comp.clustered.ch_changes_total == 5 * 100
    assert calls == 5


def test_churn_run_builds_rows_only_when_read(monkeypatch):
    built = {"TraceRow": 0, "SlotRow": 0}
    for module, name in ((fleetchain.controller, "TraceRow"), (fleetchain.sim, "TraceRow"),
                         (fleetchain.sim, "SlotRow")):
        cls = getattr(module, name)

        def counting(*args, _cls=cls, _name=name, **kwargs):
            built[_name] += 1
            return _cls(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    # Every head changes on every slot; the trace holds a row per cluster
    # and slot, whether the slot was stepped alone or in a swap block.
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


def evaluated_slots(monkeypatch, cfg: SimConfig) -> list[int | tuple[int, int | str]]:
    """The slots on which a paired run of `cfg` called `evaluate_slot`, in
    order; as (s, "break") each slot s on which a swap block handed its
    pairs' heads on (`FleetState.handed_on` gave its rows); and as (s, 0)
    each `_SlotLoop._block` call of the clustered run that stepped no slot:
    a block attempt that failed at its first slot s, which then runs
    alone."""
    slots = []
    evaluate_slot = fleetchain.sim.evaluate_slot
    block = fleetchain.sim._SlotLoop._block
    handed_on = FleetState.handed_on

    def counting(fleet, ctrl, slot_index):
        slots.append(slot_index)
        return evaluate_slot(fleet, ctrl, slot_index)

    def breaking(fleet, expected, slot, *candidates):
        handed = handed_on(fleet, expected, slot, *candidates)
        if handed is not None:
            slots.append((slot, "break"))
        return handed

    def attempting(loop, s, k):
        ran, capped = block(loop, s, k)
        if ran == 0 and loop.controller is not None:
            slots.append((s, 0))
        return ran, capped

    monkeypatch.setattr(fleetchain.sim, "evaluate_slot", counting)
    monkeypatch.setattr(FleetState, "handed_on", breaking)
    monkeypatch.setattr(fleetchain.sim._SlotLoop, "_block", attempting)
    paired_comparison(cfg)
    return slots


def test_steady_run_evaluates_the_heads_once_per_stretch(monkeypatch):
    # No event after slot 1: the other 99 slots repeat its keep rows.
    assert len(evaluated_slots(monkeypatch, SimConfig(lam=2.0, horizon=100.0))) <= 5


def test_churn_run_evaluates_the_slots_around_its_swap_block(monkeypatch):
    # Every head changes on every slot, and from slot 2 on each head goes
    # back to the vehicle it came from: slots 2 to 100 are one swap block,
    # through the exchange at slot 100, and no block attempt fails. The
    # baseline steps slots 2 to 100 as one block; both go through `_block`.
    blocks = block_calls(monkeypatch)
    assert evaluated_slots(monkeypatch, SimConfig(lam=1.5, horizon=100.0)) == [1]
    assert blocks == [(2, 99, 99), (2, 99, 99)]


SWAP_CAP_CONFIG = dict(cluster_count=41, vehicles_per_cluster=3, lam=1.5, horizon=300.0)


@pytest.mark.parametrize("config, slots", [
    # The exchanges at slots 10, 20 and 30 fall inside swap blocks. The head
    # of slot 10 pays the full-hop charge and is not rated above the third
    # vehicle at slot 11, which breaks each pair: the block hands the head
    # to the third vehicle there, and the new pair swaps on in the same
    # block. Slot 21 breaks the pairs again.
    (dict(cluster_count=2, vehicles_per_cluster=3, lam=1.5, horizon=30.0,
          global_exchange_period=10), [1, (11, "break"), (21, "break")]),
    # The two members cannot pay slot 18. The pair swaps on, as a block from
    # slot 19, until neither can pay slot 30.
    (dict(cluster_count=1, vehicles_per_cluster=4, lam=1.5, horizon=30.0, initial_energy=2.5e6,
          critical_fraction=0.0), [1, 18, 30]),
    # The vehicle to take the head back falls under the critical level (half
    # the initial energy) at slot 15; the members did at slot 9, which ends
    # no block. Then no one can take over and every slot keeps the head: a
    # keep block runs until the head turns critical at slot 17, the members
    # stop at slot 18 (the keep block tried there fails at once), vehicle 1
    # at slot 24, and the head cannot pay the exchange at slot 30.
    (dict(cluster_count=1, vehicles_per_cluster=4, lam=1.5, horizon=30.0, initial_energy=2.5e6,
          critical_fraction=0.5), [1, 15, 17, (18, 0), 18, 24, 30]),
    # A security cost equal to the local transmission charge leaves the
    # returning vehicle tied with the third on every other slot. The tie
    # breaks the pair, and the block hands the head to the lowest id, the
    # returning vehicle itself, and goes on with the same pair.
    (dict(cluster_count=1, vehicles_per_cluster=3, app_count=1, lam=1.5, security_cost=11610.0,
          horizon=12.0), [1, (3, "break"), (5, "break"), (7, "break"), (9, "break"),
                          (11, "break")]),
    # The vehicle taking the head cannot pay its security charge at slot 7;
    # both vehicles run dry at slot 8, the first slot of the swap block
    # tried after slot 7.
    (dict(cluster_count=1, vehicles_per_cluster=2, app_count=1, lam=1.5, security_cost=3e3,
          initial_energy=1e5, critical_fraction=0.0, horizon=30.0), [1, 7, (8, 0), 8]),
    # The head cannot pay the exchange at slot 2, the first slot of the swap
    # block tried after slot 1, and hands back to vehicle 0; a vehicle that
    # stopped takes no head, so slot 3 runs alone.
    (dict(cluster_count=1, vehicles_per_cluster=2, app_count=1, lam=1.5, security_cost=3e3,
          initial_energy=1e5, critical_fraction=0.0, horizon=30.0, global_exchange_period=2),
     [1, (2, 0), 2, 3, (4, 0), 4]),
    # 41 clusters of 3: swap blocks cut by their size cap after an odd
    # number of slots hand the heads over and are followed by swap blocks
    # (`test_blocks_cut_by_their_size_cap_are_followed_by_blocks`).
    (SWAP_CAP_CONFIG, [1]),
    # The load model emits global transfers on slots 1, 12, 17, 21, 24, 26
    # and 29. Pairs of two have no third vehicle to break them, so one swap
    # block runs from slot 2 to the horizon across the emission slots.
    (dict(cluster_count=2, vehicles_per_cluster=2, lam=1.5, horizon=30.0,
          use_load_model_exchange=True, presence=0.01), [1]),
    # The head of each exchange slot (7, 14, 21, 28) pays the full-hop
    # charge and is no longer rated above the cluster's richest other
    # member: each pair breaks the slot after an exchange, where the block
    # hands each head to that member and goes on with the new pairs.
    (dict(cluster_count=3, vehicles_per_cluster=4, lam=1.75, horizon=30.0,
          global_exchange_period=7), [1, (8, "break"), (15, "break"), (22, "break"),
                                      (29, "break")]),
    # A new head's 11 610 J security charge costs more than a head saves on
    # transmission (3 483 J a 0.3 slot), so at slot 3 the returning vehicle
    # 1 is not rated above the members. The break's pick, vehicle 2, would
    # not hand the head back to vehicle 0, which paid its security charge at
    # slot 2: slot 3 runs alone, and from there the heads go round in turn.
    (dict(cluster_count=1, vehicles_per_cluster=6, app_count=1, lam=1.5, hops=0,
          security_cost=11610.0, slot=0.3, horizon=5.1, initial_energy=1e6,
          critical_fraction=0.0), [1, *range(3, 18)]),
])
def test_swap_blocks_end_before_events(monkeypatch, config, slots):
    assert_slots_and_spec(monkeypatch, SimConfig(**config), slots)


@pytest.mark.parametrize("config, slots", [
    # Critical heads are handed over at slot 3, on every row. The limit of
    # 60 covers the required 50 and the observed score is above the
    # expected, so the new heads' verdict is a keep: no swap block is
    # tried, and slot 4 keeps every head. The keep block tried after it ends
    # at once, as the new heads turn critical at slot 5.
    (dict(cluster_count=2, vehicles_per_cluster=2, lam=2.5, horizon=40.0,
          global_exchange_period=1, initial_energy=1e7, critical_fraction=0.5,
          vehicle_tx_limit=60.0, required_tx_limit=50.0), [1, 3, 4, (5, 0), 5, 8, 19]),
    # The same with a limit of 10: the new heads' rule is the Lemma2-limit
    # rule, and the vehicles to take the head back do not qualify.
    (dict(cluster_count=2, vehicles_per_cluster=2, lam=2.5, horizon=40.0,
          global_exchange_period=1, initial_energy=1e7, critical_fraction=0.5,
          vehicle_tx_limit=10.0, required_tx_limit=50.0), [1, 3, 4, (5, 0), 5, 8, 19]),
    # Heads pay the full-hop charge on every slot, so the returning vehicle
    # is never rated above the third: heads go round in turn, every slot
    # runs alone and no swap block is tried.
    (dict(cluster_count=2, vehicles_per_cluster=3, lam=1.5, horizon=12.0,
          global_exchange_period=1), list(range(1, 13))),
])
def test_swap_blocks_start_only_where_a_head_is_handed_back(monkeypatch, config, slots):
    assert_slots_and_spec(monkeypatch, SimConfig(**config), slots)


def assert_slots_and_spec(monkeypatch, cfg: SimConfig, slots) -> None:
    """A paired run of `cfg` steps `slots` alone (`evaluated_slots`), and its
    clustered report equals `spec_run`'s, bit for bit."""
    assert evaluated_slots(monkeypatch, cfg) == slots
    assert_clustered_run_is_spec(cfg)


def assert_clustered_run_is_spec(cfg: SimConfig) -> None:
    """The clustered report of `cfg` equals `spec_run`'s, bit for bit."""
    report = run_clustered(cfg)
    columns, trace, vehicles = spec_run(cfg, clustered=True)
    for name, want in columns.items():
        assert repr(getattr(report.slots, name)) == repr(want), name
    assert report.trace == trace
    assert repr([vehicle_cells(v) for v in report.vehicles]) == repr(
        [vehicle_cells(v) for v in vehicles])


def test_churn_sweep_point_evaluates_only_slot_one(monkeypatch):
    # The sweep-many churn point: 5 clusters x 10 vehicles x 100 slots at
    # lam 1.5, an exchange every 10 slots. The slot after each exchange
    # breaks every pair, and the swap block hands each head to the richest
    # member there: slots 2 to 100 are one block in each regime.
    blocks = block_calls(monkeypatch)
    cfg = SimConfig(lam=1.5, horizon=100.0, global_exchange_period=10)
    assert evaluated_slots(monkeypatch, cfg) == [1] + [(s, "break") for s in range(11, 100, 10)]
    assert blocks == [(2, 99, 99), (2, 99, 99)]
    assert_clustered_run_is_spec(cfg)


@settings(max_examples=100, deadline=None)
@given(
    cluster_count=st.integers(1, 4),
    vehicles_per_cluster=st.integers(2, 6),
    lam=st.floats(0.5, 1.9),
    horizon=st.integers(1, 60).map(float),
    period=st.integers(1, 10),
    load_model=st.booleans(),
    tie=st.booleans(),
    initial_energy=st.sampled_from([3e5, 2.5e6, 1e9]),
    critical_fraction=st.sampled_from([0.0, 0.1, 0.5]),
)
# The head taken at the last slot pays its security charge after the slot
# marks the critical vehicles, and falls below the critical level with it:
# its final flag stays clear.
@example(cluster_count=1, vehicles_per_cluster=6, lam=1.75, horizon=39.0, period=4,
         load_model=False, tie=True, initial_energy=2.5e6, critical_fraction=0.5)
def test_break_prone_runs_match_the_specification(cluster_count, vehicles_per_cluster, lam,
                                                  horizon, period, load_model, tie,
                                                  initial_energy, critical_fraction):
    # Heads swap between two vehicles at lam < 2, and exchanges, load-model
    # emissions and ties break the pairs: app_count 1 with a security cost
    # of 11 610 J ties the returning vehicle with a member as rich.
    cfg = SimConfig(cluster_count=cluster_count, vehicles_per_cluster=vehicles_per_cluster,
                    lam=lam, horizon=horizon, global_exchange_period=period,
                    use_load_model_exchange=load_model, presence=0.01 if load_model else 1.0,
                    initial_energy=initial_energy, critical_fraction=critical_fraction,
                    **(dict(app_count=1, security_cost=11610.0) if tie else {}))
    assert_clustered_run_is_spec(cfg)


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
        ran, capped = block(loop, s, k)
        calls.append((s, k, ran))
        return ran, capped

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
    # A swap block of 41 pairs and one member residual takes two rows a slot
    # and 125 columns with the richest members, so it is capped at 131
    # slots. Each block cut after an odd number of slots starts the next one
    # on the other trace of the cycle; the exchange at slot 300 falls inside
    # the last one.
    blocks.clear()
    cfg = SimConfig(**SWAP_CAP_CONFIG)
    assert fleetchain.sim.BLOCK_CELLS // (2 * (1 + 3 * cfg.cluster_count + 1)) == 131
    report = run_clustered(cfg)
    assert blocks == [(2, 299, 131), (133, 168, 131), (264, 37, 37)]
    assert [(first, last) for _, first, last in report.trace_runs] == [
        (1, 1), (2, 132), (133, 263), (264, 300)]


def test_swap_blocks_that_gain_member_columns_keep_their_cap(monkeypatch):
    # 20 clusters x 4 vehicles at lam 1.5 with an exchange every 2 slots:
    # every odd slot from 3 on breaks the pairs. A swap block of 20 pairs and
    # one member residual is capped at 264 slots. The break at slot 3 gives
    # the members a second residual, which caps the block's later slots at
    # 260: it stops after slot 263, and another block follows.
    blocks = block_calls(monkeypatch)
    cfg = SimConfig(cluster_count=20, vehicles_per_cluster=4, lam=1.5, horizon=300.0,
                    global_exchange_period=2)
    assert fleetchain.sim.BLOCK_CELLS // (2 * (3 * 20 + 1 + 1)) == 264
    assert fleetchain.sim.BLOCK_CELLS // (2 * (3 * 20 + 2 + 1)) == 260
    assert evaluated_slots(monkeypatch, cfg) == [1] + [(s, "break") for s in range(3, 301, 2)]
    assert blocks[-2:] == [(2, 299, 262), (264, 37, 37)]
    assert_clustered_run_is_spec(cfg)


def test_block_keeps_member_residuals_apart_by_the_sign_of_zero():
    # 0.0 and -0.0 are equal as numbers but not in bits: a block gives each
    # its own member column, and a charge of 0.0 keeps each sign.
    cfg = SimConfig(cluster_count=1, vehicles_per_cluster=4, lam=2.0, horizon=10.0,
                    security_cost=0.0)
    vehicles = fleetchain.sim._init_vehicles(cfg, clustered=False)
    vehicles.residual[:] = [0.0, -0.0, -0.0, 0.0]
    free = (0.0, 0.0)
    loop = fleetchain.sim._SlotLoop(cfg, vehicles, free, free, free, 0.0)
    assert loop._block(2, 3) == (3, True)
    assert [math.copysign(1.0, r) for r in vehicles.residual.tolist()] == [1.0, -1.0, -1.0, 1.0]
    # The block records one span of 3 slots that 4 members pay, at no cost.
    assert loop.spans == [(2, 3, 0, 4, 0, 0)]
    assert loop.sum_rows[loop._sums(0, 4, False, False, 0)] == (0.0, 0.0, 0.0)


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


@settings(max_examples=100, deadline=None)
@given(
    cluster_count=st.integers(1, 4),
    vehicles_per_cluster=st.integers(1, 6),
    lam=st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 1.75, 2.0, 2.5, 3.0]),
    slot=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    slots=st.integers(1, 40),
    period=st.integers(1, 12),
    load_model=st.booleans(),
)
def test_transaction_totals_match_their_closed_form(cluster_count, vehicles_per_cluster, lam,
                                                    slot, slots, period, load_model):
    # No vehicle stops (each can pay some 1e8 slots), and lam * slot is
    # dyadic, so the totals are exact. N vehicles in C clusters: a member
    # pushes lam * slot updates a slot to its head, and each exchange slot
    # counts C(C - 1) transfers; a baseline vehicle counts lam * slot per
    # other vehicle. Load-model runs are kept: their clustered total is the
    # model's count at the last slot, ceil(rate * T**2 / 2), and nothing
    # else. At lam 0 no vehicle pays, so neither regime counts any.
    cfg = SimConfig(cluster_count=cluster_count, vehicles_per_cluster=vehicles_per_cluster,
                    lam=lam, slot=slot, horizon=slots * slot, global_exchange_period=period,
                    initial_energy=1e15, use_load_model_exchange=load_model)
    comp = paired_comparison(cfg)
    assert all(v.active for r in (comp.baseline, comp.clustered) for v in r.vehicles)
    n, c, pushes = cfg.n_vehicles, cluster_count, Fraction(lam) * Fraction(slot)
    if lam <= 0:
        baseline = clustered = 0
    else:
        baseline = pushes * n * (n - 1) * slots
        if load_model:
            last = slots * slot
            clustered = math.ceil(cfg.load_model_rate() * last * last / 2.0)
        else:
            clustered = pushes * (n - c) * slots + (slots // period) * c * (c - 1)
    assert Fraction(comp.baseline.transactions_total) == baseline
    assert Fraction(comp.clustered.transactions_total) == clustered


@settings(max_examples=100, deadline=None)
@given(
    cluster_count=st.integers(1, 4),
    vehicles_per_cluster=st.integers(1, 6),
    app_count=st.integers(1, 4),
    lam=st.sampled_from([0.0, 0.1, 0.5, 1.0, 1.5, 1.75, 2.0, 3.0]),
    hops=st.integers(0, 10),
    slot=st.sampled_from([0.25, 0.3, 1.0, 2.5]),
    slots=st.integers(1, 40),
    period=st.integers(1, 12),
    load_model=st.booleans(),
    security_cost=st.sampled_from([0.625, 0.1, 3e3]),
    energy_per_record=st.sampled_from([2580.0, 2580.3]),
    critical_fraction=st.sampled_from([0.0, 0.1, 1.0]),
)
def test_energy_totals_match_their_closed_form(cluster_count, vehicles_per_cluster, app_count,
                                               lam, hops, slot, slots, period, load_model,
                                               security_cost, energy_per_record,
                                               critical_fraction):
    # No vehicle stops (each can pay some 1e8 slots). N vehicles in C
    # clusters: each slot the N - C members pay the one-hop charge and the C
    # heads the local update, or the full-hop charge on an exchange slot;
    # every baseline vehicle pays the full-hop charge. A charge is
    # app_count x (security + transmission x slot + update). Each vehicle
    # joins once, for one security cost, and each head change costs one
    # more. At lam 0 no vehicle pays a slot or joins, but new heads still
    # pay their security cost. Lam under 2 changes every head on every slot
    # (a critical fraction of 1 leaves no one to take over).
    cfg = SimConfig(cluster_count=cluster_count, vehicles_per_cluster=vehicles_per_cluster,
                    app_count=app_count, lam=lam, hops=hops, slot=slot,
                    horizon=slots * slot, global_exchange_period=period,
                    use_load_model_exchange=load_model, security_cost=security_cost,
                    energy_per_record=energy_per_record, critical_fraction=critical_fraction,
                    initial_energy=1e15)
    comp = paired_comparison(cfg)
    assert all(v.active for r in (comp.baseline, comp.clustered) for v in r.vehicles)
    n, c, slots, q = cfg.n_vehicles, cluster_count, cfg.n_slots, Fraction

    def charge(hop_count: int, transmits: bool) -> Fraction:
        p = cfg.energy_params(hop_count)
        transmission = q(transmission_energy(p)) * q(slot) if transmits else 0
        return app_count * (q(security_cost) + transmission + q(ledger_update_energy(p)))

    if load_model:  # an exchange slot is one on which the model's count grows
        rate = cfg.load_model_rate()
        counts = [math.ceil(rate * (s * slot) * (s * slot) / 2.0) for s in range(slots + 1)]
        exchanges = sum(b > a for a, b in zip(counts, counts[1:]))
    else:
        exchanges = slots // period
    changes = q(security_cost) * comp.clustered.ch_changes_total
    if lam <= 0:
        baseline, clustered = 0, changes
    else:
        joins = n * q(security_cost)
        baseline = n * slots * charge(hops, True) + joins
        clustered = ((n - c) * slots * charge(1, True) + c * (slots - exchanges) * charge(1, False)
                     + c * exchanges * charge(hops, True) + joins + changes)
    for report, want in ((comp.baseline, baseline), (comp.clustered, clustered)):
        assert abs(q(report.energy_total) - want) <= q(1e-12) * want
