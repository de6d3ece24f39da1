"""An executable specification of the slot loop.

`spec_run` steps a run one slot and one vehicle at a time in plain Python:
every active vehicle pays its slot charge or stops, the slot's items are
added left to right, heads first and then by id, and with the controller
each cluster's head goes through the energy handover or the keep-or-change
cascade (`reference`), both written out here. The specification takes only
the closed forms of its constants (the stopping score and threshold and
the pre-decay verdict) from `fleetchain.controller`. The event-blocked
array loop of `run_baseline` and `run_clustered` must give the same
`SlotColumns`, trace rows and final vehicles, bit for bit, over random small
configs: drains, critical fractions, exchange periods, the load model, tx
and required limits, expected scores and lam 0.
"""

import math
from dataclasses import dataclass

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_golden import CONFIGS

from fleetchain.analytics import decay_params_at, energy_decay
from fleetchain.controller import (
    ACTION_CHANGE,
    ACTION_KEEP,
    RULE_LIMIT,
    RULE_OST,
    RULE_PRE_DECAY,
    TraceRow,
    ost_score,
    ost_threshold,
    pre_decay_check,
)
from fleetchain.energy import ledger_update_energy, transmission_energy
from fleetchain.sim import SimConfig, run_baseline, run_clustered


@dataclass
class Vehicle:
    id: int
    cluster: int
    residual: float
    head: bool
    critical: bool = False
    active: bool = True
    joined: bool = False


def role_costs(cfg: SimConfig, clustered: bool):
    """(transmission, update, transactions) per slot of a member, of a head
    off an exchange and of a head on one."""
    app = cfg.app_count
    if not clustered:
        p = cfg.energy_params(cfg.hops)
        member = (app * transmission_energy(p) * cfg.slot, app * ledger_update_energy(p),
                  cfg.lam * cfg.slot * (cfg.n_vehicles - 1))
        return member, member, member
    local, full = cfg.energy_params(1), cfg.energy_params(cfg.hops)
    update = app * ledger_update_energy(local)
    member = (app * transmission_energy(local) * cfg.slot, update,
              0.0 if cfg.use_load_model_exchange else cfg.lam * cfg.slot)
    head_global = (app * transmission_energy(full) * cfg.slot, app * ledger_update_energy(full),
                   0.0)
    return member, (0.0, update, 0.0), head_global


def best(vehicles, rate):
    """The vehicle of highest rating, ties to the lowest id."""
    return min(vehicles, key=lambda v: (-rate(v), v.id))


@dataclass(frozen=True)
class Candidate:
    """A member that may take over its cluster's head; a tx limit of None
    is no limit."""

    id: int
    rating: float
    radio_range: float
    tx_limit: float | None = None
    critical: bool = False


def reference(observed, expected, head_limit, candidates, required, connect_range, pre_decay):
    """(action, new head, rule) of the keep-or-change cascade for a healthy
    head whose tx limit is `head_limit`, by brute force."""
    if observed < expected:
        rule = RULE_OST
    elif required is None or head_limit is None:
        if observed == expected and pre_decay:
            rule = RULE_PRE_DECAY
        else:
            return ACTION_KEEP, None, RULE_PRE_DECAY if observed == expected else RULE_OST
    elif head_limit >= required:
        return ACTION_KEEP, None, RULE_OST
    else:
        rule = RULE_LIMIT
    eligible = [c for c in candidates if not c.critical]
    if rule == RULE_LIMIT:
        eligible = [
            c for c in eligible
            if c.tx_limit is not None and c.tx_limit >= required and connect_range <= c.radio_range
        ]
    if not eligible:
        return ACTION_KEEP, None, rule
    return ACTION_CHANGE, best(eligible, lambda c: c.rating).id, rule


class Controller:
    """The cascade over one cluster at a time."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        mobility, connectivity = cfg.mobility(), cfg.connectivity()
        self.threshold = cfg.expected_score
        if self.threshold is None:
            self.threshold = ost_threshold(mobility, connectivity, cfg.expected_rate_value)
        self.score = ost_score(mobility, connectivity, cfg.lam1_value)
        self.pre_decay = cfg.slot < cfg.horizon and pre_decay_check(
            cfg.decay_params(), cfg.heston_params(), cfg.lam1_value, cfg.horizon, cfg.slot)
        self.estimate = energy_decay(decay_params_at(cfg.decay_params(), cfg.slot))

    def rating(self, v: Vehicle) -> float:
        return v.residual / self.estimate if self.estimate > 0 else v.residual

    def step(self, s: int, clusters: list[list[Vehicle]]) -> list[TraceRow]:
        """One slot's rows, in cluster order; moves the head flags."""
        cfg = self.cfg
        offload = max(s * cfg.slot - cfg.slot, 0.0)
        rows = []
        for members in clusters:
            head = next(v for v in members if v.head)
            others = [v for v in members if v is not head and v.active]
            if not others:  # no active candidate: no row
                continue
            if not head.active or head.critical:
                # Energy handover ahead of the cascade, to the best healthy member.
                healthy = [v for v in others if not v.critical]
                if not healthy:  # no one to take over: no row
                    continue
                new = best(healthy, self.rating)
                row = TraceRow(s, head.cluster, RULE_PRE_DECAY, ACTION_CHANGE, head.id, new.id,
                               offload)
            else:
                action, new_id, rule = reference(
                    self.score, self.threshold, cfg.vehicle_tx_limit,
                    [Candidate(v.id, self.rating(v), cfg.radio_range, cfg.vehicle_tx_limit,
                               v.critical) for v in others],
                    cfg.required_tx_limit, cfg.connect_range, self.pre_decay)
                row = TraceRow(s, head.cluster, rule, action, head.id, new_id,
                               offload if action == ACTION_CHANGE else 0.0)
            if row.action == ACTION_CHANGE:
                head.head = False
                next(v for v in others if v.id == row.new_ch).head = True
            rows.append(row)
        return rows


def spec_run(cfg: SimConfig, clustered: bool):
    """A run's columns, trace rows and final vehicles, stepped one slot and
    one vehicle at a time."""
    vpc = cfg.vehicles_per_cluster
    vehicles = [Vehicle(i, i // vpc, cfg.initial_energy, clustered and i % vpc == 0)
                for i in range(cfg.n_vehicles)]
    clusters = [vehicles[c * vpc:(c + 1) * vpc] for c in range(cfg.cluster_count)]
    member, head_local, head_global = role_costs(cfg, clustered)
    load_rate = cfg.load_model_rate() if clustered and cfg.use_load_model_exchange else None
    controller = Controller(cfg) if clustered else None
    level = cfg.critical_fraction * cfg.initial_energy
    columns = {name: [] for name in ("t", "transactions_cum", "energy_cum", "ch_changes",
                                     "security_j", "transmission_j", "update_j")}
    trace = []
    tx_cum = e_cum = 0.0
    emitted_prev = 0
    for s in range(1, cfg.n_slots + 1):
        t = s * cfg.slot
        security = transmission = update = 0.0
        if cfg.lam > 0:  # at lam 0 no vehicle transacts, so none pays
            # Slot 1 carries the join charge.
            sec = cfg.app_count * cfg.security_cost + (cfg.security_cost if s == 1 else 0.0)
            if load_rate is None:
                exchange = s % cfg.period_value == 0
            else:
                emitted = max(0, math.ceil(load_rate * t * t / 2.0) - emitted_prev)
                exchange = emitted > 0
            items = {False: (sec, *member), True: (sec, *(head_global if exchange else head_local))}
            payers = []
            for v in vehicles:
                if v.active:
                    cost = items[v.head]
                    charge = (cost[0] + cost[1]) + cost[2]
                    if v.residual - charge >= 0.0:
                        v.residual -= charge
                        v.joined = True
                        payers.append(v)
                    else:
                        v.active = False
            heads = sum(v.head for v in payers)
            if load_rate is None:
                transfers = heads * (heads - 1) if exchange else 0
            else:
                transfers = emitted if heads else 0
                emitted_prev += transfers
            for v in sorted(payers, key=lambda v: (not v.head, v.id)):
                cost = items[v.head]
                security += cost[0]
                transmission += cost[1]
                update += cost[2]
                tx_cum += cost[3]
            tx_cum += transfers
        changes = 0
        if controller is not None:
            for v in vehicles:
                v.critical = v.residual < level
            rows = controller.step(s, clusters)
            trace += rows
            for row in rows:
                if row.action == ACTION_CHANGE:
                    changes += 1
                    # A new head pays one security charge when it can fund it.
                    new = vehicles[row.new_ch]
                    if new.residual >= cfg.security_cost:
                        new.residual -= cfg.security_cost
                        security += cfg.security_cost
        e_cum += security + transmission + update
        for name, value in (("t", t), ("transactions_cum", tx_cum), ("energy_cum", e_cum),
                            ("ch_changes", changes), ("security_j", security),
                            ("transmission_j", transmission), ("update_j", update)):
            columns[name].append(value)
    return columns, trace, vehicles


def vehicle_cells(v) -> tuple:
    if isinstance(v, Vehicle):
        return v.id, v.cluster, v.residual, "ch" if v.head else "member", v.critical, v.active, \
            v.joined
    return v.id, v.cluster, v.residual_energy, v.role, v.critical, v.active, v.joined


@st.composite
def configs(draw) -> SimConfig:
    slot = draw(st.sampled_from([1.0, 0.5, 0.3, 2.5]))
    return SimConfig(
        cluster_count=draw(st.integers(1, 6)),
        vehicles_per_cluster=draw(st.integers(1, 8)),
        app_count=draw(st.integers(1, 4)),
        lam=draw(st.sampled_from([0.0, 0.1, 1.0, 1.5, 2.0, 3.0])),
        hops=draw(st.integers(0, 10)),
        slot=slot,
        horizon=draw(st.integers(1, 60)) * slot,
        # Charges that are not whole numbers round in every sum, so the
        # order of the additions shows; a security cost of 3e3 J can leave a
        # new head unable to pay it.
        energy_per_record=draw(st.sampled_from([2580.0, 2580.3])),
        security_cost=draw(st.sampled_from([0.625, 0.1, 3e3])),
        # Members pay 3e3 to 1e5 J a slot: most of these drain within the run.
        initial_energy=draw(st.sampled_from([3e4, 3.3e5 + 0.1, 1e6, 3e6, 1e7, 1e9])),
        critical_fraction=draw(st.sampled_from([0.0, 0.1, 0.1, 0.5, 1.0])),
        global_exchange_period=draw(st.one_of(st.none(), st.integers(1, 7))),
        use_load_model_exchange=draw(st.booleans()),
        vehicle_tx_limit=draw(st.sampled_from([None, 10.0, 60.0])),
        required_tx_limit=draw(st.sampled_from([None, 50.0])),
        # The radio range moves the observed score off the threshold. Every
        # vehicle has the same tx limit, so a head under the requirement
        # finds no qualified member and stays.
        radio_range=draw(st.sampled_from([300.0, 600.0])),
        expected_score=draw(st.sampled_from([None, None, 0.0, 5.0])),
    )


@settings(max_examples=60, deadline=None)
@given(configs())
@example(SimConfig(**CONFIGS["churn-drain"]))
@example(SimConfig(**CONFIGS["head-critical"]))
@example(SimConfig(**CONFIGS["limit-split"]))
# The new heads of slot 1 cannot pay the 3e3 J security charge.
@example(SimConfig(cluster_count=2, vehicles_per_cluster=2, app_count=2, lam=1.0, hops=2,
                   horizon=40.0, security_cost=3e3, initial_energy=3e4, critical_fraction=0.0))
# Large residuals: they start at 2**51 = 2**53 * 0.25, and the charges are
# multiples of 0.25, the float spacing just below 2**51.
@example(SimConfig(cluster_count=2, vehicles_per_cluster=4, lam=2.0, horizon=30.0,
                   global_exchange_period=4, security_cost=6.25, initial_energy=2.0**51))
# At lam 0 no vehicle pays, so every residual stays -0.0.
@example(SimConfig(cluster_count=2, vehicles_per_cluster=4, lam=0.0, horizon=5.0,
                   initial_energy=-0.0))
# Heads swap between two vehicles on every slot, in blocks that end before
# an exchange slot, a member that cannot pay, a pair member under the
# critical level, a rating tie, a security charge the new head cannot pay,
# and a head handed back by a vehicle that stopped.
@example(SimConfig(cluster_count=2, vehicles_per_cluster=3, lam=1.5, horizon=30.0,
                   global_exchange_period=10))
@example(SimConfig(cluster_count=1, vehicles_per_cluster=4, lam=1.5, horizon=30.0,
                   initial_energy=2.5e6, critical_fraction=0.0))
@example(SimConfig(cluster_count=1, vehicles_per_cluster=4, lam=1.5, horizon=30.0,
                   initial_energy=2.5e6, critical_fraction=0.5))
@example(SimConfig(cluster_count=1, vehicles_per_cluster=3, app_count=1, lam=1.5,
                   security_cost=11610.0, horizon=12.0))
@example(SimConfig(cluster_count=1, vehicles_per_cluster=2, app_count=1, lam=1.5,
                   security_cost=3e3, initial_energy=1e5, critical_fraction=0.0, horizon=30.0))
@example(SimConfig(cluster_count=1, vehicles_per_cluster=2, app_count=1, lam=1.5,
                   security_cost=3e3, initial_energy=1e5, critical_fraction=0.0, horizon=30.0,
                   global_exchange_period=2))
# Swap blocks run through load-model emission slots and pairs break the slot
# after an exchange; critical heads handed over to new heads whose verdict
# is a keep, or whose Lemma2-limit rule the returning vehicle does not
# meet, start no swap block; heads that pay the full-hop charge every slot
# go round in turn.
@example(SimConfig(cluster_count=2, vehicles_per_cluster=2, lam=1.5, horizon=30.0,
                   use_load_model_exchange=True, presence=0.01))
@example(SimConfig(cluster_count=3, vehicles_per_cluster=4, lam=1.75, horizon=30.0,
                   global_exchange_period=7))
@example(SimConfig(cluster_count=2, vehicles_per_cluster=2, lam=2.5, horizon=40.0,
                   global_exchange_period=1, initial_energy=1e7, critical_fraction=0.5,
                   vehicle_tx_limit=60.0, required_tx_limit=50.0))
@example(SimConfig(cluster_count=2, vehicles_per_cluster=2, lam=2.5, horizon=40.0,
                   global_exchange_period=1, initial_energy=1e7, critical_fraction=0.5,
                   vehicle_tx_limit=10.0, required_tx_limit=50.0))
@example(SimConfig(cluster_count=2, vehicles_per_cluster=3, lam=1.5, horizon=12.0,
                   global_exchange_period=1))
# Swap blocks hand each head on where an exchange or a tie breaks the pairs;
# the head taken at the last slot falls below the critical level with its
# security charge, after the slot marked the vehicles; a break whose pick
# would not hand back runs alone.
@example(SimConfig(lam=1.5, horizon=100.0, global_exchange_period=10))
@example(SimConfig(cluster_count=4, vehicles_per_cluster=6, lam=1.75, horizon=60.0,
                   global_exchange_period=3, app_count=1, security_cost=11610.0))
@example(SimConfig(cluster_count=1, vehicles_per_cluster=6, app_count=1, lam=1.75,
                   horizon=39.0, global_exchange_period=4, security_cost=11610.0,
                   initial_energy=2.5e6, critical_fraction=0.5))
@example(SimConfig(cluster_count=1, vehicles_per_cluster=6, app_count=1, lam=1.5, hops=0,
                   security_cost=11610.0, slot=0.3, horizon=5.1, initial_energy=1e6,
                   critical_fraction=0.0))
# A break where two members' residuals differ by one ulp and their ratings
# tie: the head goes to the lower id. A break on whose charge a member falls
# below the critical level.
@example(SimConfig(cluster_count=2, vehicles_per_cluster=4, app_count=3, lam=1.75, hops=2,
                   security_cost=0.1, slot=0.3, horizon=34.8, radio_range=600.0,
                   initial_energy=3e6, global_exchange_period=2, expected_score=5.0))
@example(SimConfig(cluster_count=2, vehicles_per_cluster=8, app_count=2, lam=1.0,
                   security_cost=0.0, slot=0.3, horizon=16.5, initial_energy=330000.1,
                   global_exchange_period=3, expected_score=5.0, vehicle_tx_limit=10.0))
# After a carried break, no event comes by the slot after the next exchange
# (a load-model emission in the first, three times; an exchange every 4
# slots in the second): the block charges on from the break to its end.
@example(SimConfig(cluster_count=1, vehicles_per_cluster=4, app_count=2, lam=1.5, hops=9,
                   energy_per_record=2580.3, horizon=93.0, radio_range=600.0, presence=0.01,
                   initial_energy=1e7, critical_fraction=0.5, use_load_model_exchange=True,
                   vehicle_tx_limit=10.0))
@example(SimConfig(cluster_count=2, vehicles_per_cluster=3, app_count=2, lam=1.0, hops=4,
                   energy_per_record=2580.3, security_cost=3e3, slot=0.3, horizon=26.4,
                   initial_energy=3.3e5 + 0.1, global_exchange_period=4, required_tx_limit=50.0))
# At the break on slot 9, member 1 is one ulp under the critical level and
# its rating ties those of members 2 to 4, which are on it: the head goes to
# member 2, the lowest id among the members that are not critical.
@example(SimConfig(cluster_count=1, vehicles_per_cluster=5, app_count=1, lam=1.5, hops=1,
                   energy_per_record=2581.7, security_cost=5805.0, slot=0.5, horizon=4.5,
                   initial_energy=562776.6664069507, critical_fraction=0.7524145752353476,
                   global_exchange_period=2))
# The run ends on a carried break at slot 3, whose pick, member 2, pays a
# security charge that takes it under the critical level: it stays marked
# as the slot's charge left it, not critical.
@example(SimConfig(cluster_count=1, vehicles_per_cluster=3, app_count=1, lam=1.75, hops=0,
                   energy_per_record=2580.3, security_cost=11610.0, slot=0.5, horizon=1.5,
                   initial_energy=1e9, critical_fraction=0.99992))
# A block whose first slot is an exchange slot (slot 2, with an exchange
# every 2 slots); a block of one slot (slot 2 of 2); 128 vehicles off the
# transaction grid, which run slots 2 to 300 as one block through the
# exchange at slot 257; a load-model block off the transaction grid, which
# emits about 1e17 transfers a slot; and a run at lam 0, whose blocks pay
# nothing.
@example(SimConfig(cluster_count=2, vehicles_per_cluster=3, lam=2.0, horizon=12.0,
                   global_exchange_period=2))
@example(SimConfig(cluster_count=2, vehicles_per_cluster=3, lam=2.0, horizon=2.0))
@example(SimConfig(cluster_count=2, vehicles_per_cluster=64, lam=0.1, horizon=300.0,
                   global_exchange_period=257))
@example(SimConfig(cluster_count=2, vehicles_per_cluster=3, lam=2.0, horizon=30.0,
                   use_load_model_exchange=True, links_per_ledger=10**15))
@example(SimConfig(cluster_count=3, vehicles_per_cluster=2, lam=0.0, horizon=20.0,
                   global_exchange_period=3, critical_fraction=0.5))
# An exchange period past the int64 range (stay_time 1e308): no slot is an
# exchange slot.
@example(SimConfig(cluster_count=2, vehicles_per_cluster=3, lam=2.0, horizon=10.0,
                   stay_time=1e308))
# A run's columns are built from its spans at its end. Off the transaction
# grid, the baseline's 128 vehicles run slots 2 to 298 as one block, longer
# than BLOCK_CELLS // 128 = 256 slots, run dry on slot 299, stepped alone
# inside the second chunk of BLOCK_CELLS cells of the transaction chain, and
# pay nothing from slot 300 on. Under the load model, the head of the one
# cluster cannot pay the emission slot 23 after a block: no transfer is
# emitted there, and slot 24 emits those of both slots. 150 clusters of one
# vehicle, all heads, cap a keep block at BLOCK_CELLS // 151 = 217 slots:
# the first block ends on the exchange at slot 218.
@example(SimConfig(cluster_count=2, vehicles_per_cluster=64, lam=0.1, horizon=400.0,
                   initial_energy=1e8, global_exchange_period=257))
@example(SimConfig(cluster_count=1, vehicles_per_cluster=6, app_count=1, lam=2.5, horizon=28.0,
                   initial_energy=5e6, critical_fraction=0.0, use_load_model_exchange=True))
@example(SimConfig(cluster_count=150, vehicles_per_cluster=1, lam=2.0, horizon=240.0,
                   global_exchange_period=218))
def test_slot_loop_matches_its_specification(cfg):
    for run, clustered in ((run_baseline, False), (run_clustered, True)):
        report = run(cfg)
        columns, trace, vehicles = spec_run(cfg, clustered)
        got = report.slots
        for name, want in columns.items():
            # repr tells -0.0 from 0.0: bit for bit.
            assert repr(getattr(got, name)) == repr(want), name
        assert report.trace == trace
        assert repr([vehicle_cells(v) for v in report.vehicles]) == repr(
            [vehicle_cells(v) for v in vehicles])
