"""Golden digests of paired runs: CSV text, controller trace and final vehicles.

Each config pins three sha256 digests, taken from the per-vehicle reference
implementation of the slot loop: the `comparison_csv` text, the clustered
trace rows and the final vehicle states of both regimes. A digest that no
longer matches means the simulation's output changed; it is never to be
regenerated to make this test pass.
"""

import hashlib
import random

import pytest

from fleetchain.analytics import DecayParams, GaussianRate
from fleetchain.controller import (
    ACTION_CHANGE,
    ACTION_KEEP,
    RULE_LIMIT,
    RULE_PRE_DECAY,
    ControllerConfig,
    FleetState,
    run_controller,
)
from fleetchain.mobility import ConnectivityParams, MobilityModel
from fleetchain.sim import SimConfig, VehicleState, comparison_csv, paired_comparison

CONFIGS = {
    # lam 2 is the exact OST tie, so the pre-decay rule keeps every head.
    "tie-3x10": dict(cluster_count=3, vehicles_per_cluster=10, lam=2.0, horizon=50.0,
                     global_exchange_period=10, seed=11),
    # lam 1.5 changes every head every slot; energies drain, critical heads
    # are handed over and vehicles deactivate in both regimes.
    "churn-drain": dict(cluster_count=2, vehicles_per_cluster=5, lam=1.5,
                        initial_energy=2.5e7, horizon=260.0),
    # 0.1 is not exactly representable, so running sums round on every slot.
    "lam-0.1": dict(cluster_count=3, vehicles_per_cluster=4, lam=0.1, horizon=40.0,
                    global_exchange_period=4, seed=3),
    "load-model": dict(lam=2.0, use_load_model_exchange=True, horizon=50.0,
                       range_stddev=80.0, mean_range=250.0, seed=1),
    # Head limit under the requirement and no qualified candidate: the
    # Lemma2-limit rule keeps the head.
    "limit-split": dict(lam=2.0, vehicle_tx_limit=10.0, required_tx_limit=50.0,
                        horizon=20.0, cluster_count=3, vehicles_per_cluster=4, seed=8),
    # Limit known and met: the OST rule keeps the head.
    "limit-keep": dict(lam=2.5, vehicle_tx_limit=100.0, required_tx_limit=50.0,
                       horizon=20.0, cluster_count=3, vehicles_per_cluster=4, seed=8),
    # Every vehicle of both regimes runs dry before the horizon.
    "full-drain": dict(cluster_count=2, vehicles_per_cluster=3, app_count=2, lam=1.0, hops=4,
                       horizon=30.0, global_exchange_period=3, initial_energy=3e5, seed=5),
    # The configs below pin the cuts of the event-blocked slot loop; their
    # digests were taken from the loop that stepped one slot at a time.
    # Every head is kept while the members run dry at slot 28 and the heads
    # on the exchange at slot 30; baseline vehicles run dry at slot 3.
    "member-dry": dict(cluster_count=3, vehicles_per_cluster=5, lam=2.0, horizon=60.0,
                       global_exchange_period=10, initial_energy=5e6, seed=2),
    # Heads pay the full-hop charge every slot and fall below the critical
    # level at slots 25 and 48, inside runs of keeps: energy handovers. The
    # first heads run dry as members at slot 52.
    "head-critical": dict(cluster_count=3, vehicles_per_cluster=5, lam=2.0, horizon=60.0,
                          global_exchange_period=1, initial_energy=5e7, seed=6),
    # An expected score of 0 keeps every head at lam 0.1, so exchange slots
    # fall inside blocks while the running sums round.
    "lam-0.1-keep": dict(cluster_count=3, vehicles_per_cluster=4, lam=0.1, horizon=40.0,
                         global_exchange_period=3, expected_score=0.0, seed=3),
    # 2000 vehicles on the exact transaction grid: a block's cap exceeds the
    # run, so the baseline's first block runs from slot 2 to slot 56, where
    # its vehicles run dry, and the clustered run is one block from slot 2.
    "large-fleet": dict(cluster_count=8, vehicles_per_cluster=250, lam=2.0, horizon=60.0,
                        global_exchange_period=7, initial_energy=1e8, seed=4),
    # The same fleet, still on the exact transaction grid and stepped in the
    # same blocks, at a 0.1 J security cost: no multiple of a power of two,
    # so slot 1's security sum rounds (2199.9999999999177 J, not 2200).
    # Its digests were taken from the blocked loop; `spec_run` of
    # test_slot_loop_spec.py gives the same columns, trace and vehicles.
    "large-fleet-security-0.1": dict(cluster_count=8, vehicles_per_cluster=250, lam=2.0,
                                     horizon=60.0, global_exchange_period=7,
                                     initial_energy=1e8, security_cost=0.1, seed=4),
}

GOLDEN = {
    "churn-drain": (
        "f78150230ff5be69c132cb110e725ed9a4d9dbc99ba2d527050c1a0d4ab46803",
        "59ee65d45d7579334e2e9eaa3244c2062922b746f3928348c835d1d7783ab525",
        "fb86e501d5925348c515a50ee6ace08ba7d6764f54b16bac7a29c2763e376074",
    ),
    "full-drain": (
        "62656ea91e0b985a687d6b8cdaf8411671980881ed6c03796b0464d4cb7dd410",
        "73355b3a2b578aa0dbcd367b20b01265f5586998bf96076485ac367d40d6aa34",
        "de29289fd4cf3853ba091b4e47395b9e8e42cf7a58ada0d09880cc418027477c",
    ),
    "head-critical": (
        "3d82b7e604c1c648127136364cb49be996d281928d7d31022bbfe730f4853fb4",
        "81e3a5d2a3739b31875a9deb42ade021946b88c547d5099ecd3156fa9a7c176c",
        "f31e753d00028ba6687549a28e266885669f8c5536027a63c651f081147db8fe",
    ),
    "lam-0.1": (
        "389b5a7d519276125fe5e2af3ec7a7bc8c737dc4d67de19989cb6b51c25f9a59",
        "113f96c0ff28bf61fffaeeb62635b17ce3b4fd431668deb24356fd43c1bea3d6",
        "286c5cd252ceaa4af133fe862e59682b5f558e8a6a001ee4f6ab3d2d3d47155a",
    ),
    "lam-0.1-keep": (
        "ff6bf38bdb993cab6555b290d89ed34d92db94f68126f0470f9d45c56ed66e2b",
        "b9adc0a82c50c1752390cc814b97bcd184bf89a6de3cf927cf3c21725957c15a",
        "7181361d8827d1c94817246b8b01cf98e9ddf379149d3b2e37f50020168e3c11",
    ),
    "large-fleet": (
        "28ce4c7b4d82c30b4e2347e36f2ecf278c865923ee60f5856406f3650a92d90b",
        "383ef80695b8756c66e370dc5b5cf0ed04b2fc25cee15ce0a754b1b3b8117702",
        "fca3ba84014193439742efa8757b193336d6715e12e9993a59d08cb11a6c6228",
    ),
    "large-fleet-security-0.1": (
        "86972de262f75e6b3f5dfdf8dd1e7cfe810b1ebb18c30567b66fbb6aeed7955e",
        "383ef80695b8756c66e370dc5b5cf0ed04b2fc25cee15ce0a754b1b3b8117702",
        "1550c35e003f87d365ad1f64142ae067704eef29d0807a4cae01cd9fe3270771",
    ),
    "limit-keep": (
        "86c096acfa832cc86197e8f335f292198f298a827e5747190e17f239803e26ad",
        "62eb58f60427dffa30515bf7d40710a2e12f5e5f2105ea91791db59d47bdada9",
        "df9381a504b40f5b6c3a9faa13e276a3fd63a596871f1751d42cfe658bea22f0",
    ),
    "limit-split": (
        "b8769ad2f9b4abb3f78123049109ea92159c82b675769f2436c26a55023efe37",
        "4ea5697da8cc6f2bcab9625007213670c43a9599758703cf435b7cb1011a75cc",
        "46415d0e3783fe32e7cdf99c73a5b2b3790e4ced153dc306ba1ef8c149b483f2",
    ),
    "load-model": (
        "e3377f82d83208a164852816e6c95459974950606309e6f9edac7abc2d1f866f",
        "00eb0c11241ce8fcf5705713dcc8f34ae5f2e7b72dc6b5359a939bf20cbc9d19",
        "9e792a34f2a5e7e5310655deb48ce1178a14eee9a56e06603a187602a84bb34f",
    ),
    "member-dry": (
        "a0de5407a43f6aa660b218bf25770c721a6f5927fa9300751d465433531274f4",
        "1707d4d0497e15552953d7e913810ea2117ffed7de5503665a6e9ba3d26c8fbd",
        "5e88f30e1351c1f26191578c694fbbb21d837a321b4d8fee493a602a25278b0a",
    ),
    "tie-3x10": (
        "310fc7e32da176df64717cb6faf9aced3fa784505009dba110ea3b44e1287792",
        "0982b0e8b18e4019edf5645d411816269e50e7b4fccfc83713ae7b6cbdb5537e",
        "e70d435be9ca5fb815398f72315578fb871527e87e91cfd00a42ef0d1fb5385a",
    ),
}


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digests(cfg: SimConfig) -> tuple[str, str, str]:
    comp = paired_comparison(cfg)
    trace = (
        f"{r.slot},{r.cluster},{r.rule_used},{r.action},{r.old_ch},{r.new_ch!r},"
        f"{r.offload_slot!r}"
        for r in comp.clustered.trace
    )
    vehicles = (
        f"{report.regime},{v.id},{v.cluster},{v.residual_energy!r},"
        f"{v.stay_time!r},{v.radio_range!r},{v.role},{v.critical!r},{v.active!r},"
        f"{v.tx_limit!r},{v.initial_energy!r},{v.joined!r}"
        for report in (comp.baseline, comp.clustered)
        for v in report.vehicles
    )
    return _sha([comparison_csv(comp)]), _sha(trace), _sha(vehicles)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digests(name):
    csv_digest, trace_digest, vehicles_digest = digests(SimConfig(**CONFIGS[name]))
    want = GOLDEN[name]
    assert csv_digest == want[0], "comparison CSV changed"
    assert trace_digest == want[1], "controller trace changed"
    assert vehicles_digest == want[2], "final vehicle states changed"


# --- controller paths the simulator cannot reach --------------------------
#
# `sim` gives every vehicle the same radio range and tx limit, so the paired
# runs above never pick a qualified Lemma2-limit candidate.
# These object fleets do: mixed radio ranges, tx limits of None, 10, 50 and
# 100 against a requirement of 50, a score schedule, critical and inactive
# vehicles, a cluster with two initial heads and one with none. Vehicle ids
# are not in list order. Each seed pins a sha256 of the `run_controller`
# trace rows and the final roles, taken from the Candidate-list controller.

OBJECT_FLEET_SEEDS = (1, 2, 3)

OBJECT_FLEET_GOLDEN = {
    1: "10babe78e736b96c6c5ebaed724acd5a859922e7b347b5eefd85cc808f321f27",
    2: "3c15f711968766e6374127eaf749e8d0b641db5811494ab59c55d510a5111633",
    3: "cca3fd3837a3665529af8750a5557776945aa122a39e9bd2be1d9d42d4c32439",
}

# Radio ranges; in cluster 3 no vehicle covers the 500 m connect range.
RANGES = {False: (250.0, 300.0, 300.0, 500.0, 600.0), True: (250.0, 300.0, 300.0)}


def object_fleet(seed: int) -> FleetState:
    rng = random.Random(seed)
    ids = rng.sample(range(200), 36)
    vehicles = []
    for cluster in range(6):
        for j in range(6):
            vid = ids[6 * cluster + j]
            critical = rng.random() < 0.2
            active = rng.random() < 0.85
            if cluster == 4:  # every vehicle but the head is critical
                critical = j > 0
            if cluster == 5:  # no head: never stepped
                role = "member"
            else:
                role = "ch" if j == 0 or (cluster == 0 and j == 3) else "member"
            vehicles.append(
                VehicleState(
                    id=vid,
                    cluster=cluster,
                    residual_energy=rng.choice([120.0, 400.0, 400.0, 750.0, 900.0]),
                    stay_time=20.0,
                    radio_range=rng.choice(RANGES[cluster == 3]),
                    role=role,
                    critical=critical,
                    active=active,
                    tx_limit=rng.choice([None, 10.0, 50.0, 100.0]),
                    initial_energy=1000.0,
                )
            )
    vehicles[6].critical = True  # the head of cluster 1: energy handover
    vehicles[6].active = True
    vehicles[24].critical = False  # the head of cluster 4 stays healthy
    vehicles[24].active = True
    vehicles[18].tx_limit = 10.0  # the head of cluster 3 is under the requirement
    vehicles[24].tx_limit = 10.0
    rng.shuffle(vehicles)
    decay = None
    if seed % 2:  # rate candidates in slots of decay, not in joules
        decay = DecayParams(
            rate1=GaussianRate.at_rate(0.0, 1.0, 1.0),
            rate2=GaussianRate.at_rate(0.0, 1.0, 2.0),
            initial_energy=1000.0,
            app_count=10,
            horizon=12.0,
        )
    return FleetState(
        vehicles=vehicles,
        mobility=MobilityModel(
            connect_range=500.0, radio_range=300.0, mean_range=300.0, range_stddev=1.0
        ),
        connectivity=ConnectivityParams(),
        decay=decay,
        score_schedule={2: 0.0, 5: 0.0, 6: 0.0, 9: 0.0},
        score_default=5.0,
        required_tx_limit=50.0,
    )


def object_fleet_run(seed: int):
    fleet = object_fleet(seed)
    rows = run_controller(fleet, ControllerConfig(slot=1.0, horizon=12.0, expected_score=1.0))
    return fleet, rows


def object_fleet_digest(fleet: FleetState, rows) -> str:
    trace = (
        f"{r.slot},{r.cluster},{r.rule_used},{r.action},{r.old_ch},{r.new_ch!r},"
        f"{r.offload_slot!r}"
        for r in rows
    )
    roles = (f"{v.id},{v.cluster},{v.role}" for v in fleet.vehicles)
    return _sha([*trace, *roles])


@pytest.mark.parametrize("seed", OBJECT_FLEET_SEEDS)
def test_object_fleet_digests(seed):
    fleet, rows = object_fleet_run(seed)
    assert object_fleet_digest(fleet, rows) == OBJECT_FLEET_GOLDEN[seed], "trace changed"


def test_object_fleets_reach_every_controller_path():
    seen = set()
    for seed in OBJECT_FLEET_SEEDS:
        fleet, rows = object_fleet_run(seed)
        critical = {v.id for v in fleet.vehicles if v.critical}
        dead = {v.id for v in fleet.vehicles if not v.active}
        for r in rows:
            if r.rule_used == RULE_PRE_DECAY and r.action == ACTION_CHANGE:
                # No score ties here: a pre-decay change is an energy handover.
                assert r.old_ch in critical | dead
                if r.old_ch in critical:
                    seen.add("critical-head handover")
            elif r.rule_used == RULE_LIMIT and r.action == ACTION_CHANGE:
                seen.add("qualified change")
            elif r.rule_used == RULE_LIMIT and r.action == ACTION_KEEP:
                # A keep with an eligible member other than the head means
                # no member qualified; with none, every candidate is critical.
                members = {v.id for v in fleet.vehicles if v.cluster == r.cluster}
                eligible = members - critical - dead - {r.old_ch}
                seen.add("unqualified keep" if eligible else "all-critical keep")
    assert seen == {
        "qualified change",
        "unqualified keep",
        "critical-head handover",
        "all-critical keep",
    }
