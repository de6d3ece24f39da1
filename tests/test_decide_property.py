"""The slotted loop's keep-or-change cascade (`evaluate_slot`) against the
specification's brute-force `reference`: over one healthy head and random
candidate sets with equal ratings, equal ranges, None limits and candidates
passed out of id order; and over random vehicle fleets with negative
ratings, critical and stopped vehicles, clusters without a head and
clusters with two head flags."""

from hypothesis import given, settings
from hypothesis import strategies as st
from test_controller import cascade
from test_slot_loop_spec import Candidate, best, reference

from fleetchain.analytics import DecayParams, GaussianRate, decay_params_at, energy_decay
from fleetchain.controller import (
    ACTION_CHANGE,
    ACTION_KEEP,
    RULE_PRE_DECAY,
    ControllerConfig,
    FleetState,
    VehicleArrays,
    evaluate_slot,
)
from fleetchain.energy import HestonParams
from fleetchain.mobility import ConnectivityParams, MobilityModel
from fleetchain.sim import VehicleState

CFG = ControllerConfig(slot=1.0, horizon=10.0, expected_score=1.0)

DECAY = DecayParams(
    rate1=GaussianRate.at_rate(0.0, 1.0, 1.0),
    rate2=GaussianRate.at_rate(0.0, 1.0, 2.0),
    initial_energy=1000.0,
    app_count=10,
    horizon=10.0,
)
HESTON = HestonParams(request_rate=0.0, excess_energy_ratio=2.0, energy_stddev=1.0)
# (FleetState fields, pre-decay verdict, slot decay estimate): without decay
# data the verdict is False and residuals rate as they are; with it, both
# sides of the pre-decay test are 0 at lam1 0 (False) and the right one is
# positive at lam1 1 (True), and residuals rate in slots of decay.
ESTIMATE = energy_decay(decay_params_at(DECAY, CFG.slot))
REGIMES = [
    ({}, False, 0.0),
    ({"decay": DECAY, "heston": HESTON, "lam1": 0.0}, False, ESTIMATE),
    ({"decay": DECAY, "heston": HESTON, "lam1": 1.0}, True, ESTIMATE),
]


@st.composite
def candidate_sets(draw):
    ids = draw(st.lists(st.integers(1, 40), min_size=0, max_size=8, unique=True))
    candidates = [
        Candidate(
            vid,
            draw(st.one_of(st.sampled_from([0.0, 1.5, 2.0, 2.0, -3.0]),
                           st.floats(-1e6, 1e6, allow_nan=False))),
            draw(st.sampled_from([250.0, 300.0, 500.0, 600.0])),
            draw(st.sampled_from([None, 10.0, 50.0, 100.0])),
            draw(st.booleans()),
        )
        for vid in ids
    ]
    return draw(st.permutations(candidates))


@settings(max_examples=400, deadline=None)
@given(
    candidates=candidate_sets(),
    observed=st.sampled_from([0.5, 1.0, 2.0]),
    head_limit=st.sampled_from([None, 10.0, 60.0]),
    required=st.sampled_from([None, 50.0]),
    connect_range=st.sampled_from([250.0, 500.0]),
    pre_decay=st.booleans(),
    slot_index=st.integers(1, 10),
)
def test_decide_matches_reference(candidates, observed, head_limit, required, connect_range,
                                  pre_decay, slot_index):
    members = [(c.id, c.rating, c.radio_range, c.tx_limit, c.critical) for c in candidates]
    rows = cascade(observed, 1.0, *members, limit=head_limit, slot=slot_index,
                   required=required, connect_range=connect_range, pre_decay=pre_decay)
    if not candidates:
        assert rows == []
        return
    if pre_decay:
        # `cascade`'s decay data rates the residuals in slots of decay.
        candidates = [Candidate(c.id, c.rating / ESTIMATE, c.radio_range, c.tx_limit, c.critical)
                      for c in candidates]
    (row,) = rows
    assert (row.slot, row.old_ch) == (slot_index, 0)
    assert (row.action, row.new_ch, row.rule_used) == reference(
        observed, 1.0, head_limit, candidates, required, connect_range, pre_decay)
    assert row.offload_slot == (0.0 if row.action == ACTION_KEEP else slot_index - 1.0)


@st.composite
def fleets(draw):
    ids = draw(st.lists(st.integers(0, 60), min_size=1, max_size=16, unique=True))
    vehicles = [
        VehicleState(
            id=vid,
            cluster=draw(st.integers(0, 3)),
            residual_energy=draw(st.one_of(st.sampled_from([0.0, 1.5, 2.0, 2.0, -3.0]),
                                           st.floats(-1e6, 1e6, allow_nan=False))),
            stay_time=20.0,
            radio_range=draw(st.sampled_from([250.0, 300.0, 500.0, 600.0])),
            role=draw(st.sampled_from(["ch", "member", "member"])),
            critical=draw(st.booleans()),
            active=draw(st.sampled_from([True, True, False])),
            tx_limit=draw(st.sampled_from([None, 10.0, 50.0, 100.0])),
        )
        for vid in ids
    ]
    return draw(st.permutations(vehicles))


@settings(max_examples=400, deadline=None)
@given(
    vehicles=fleets(),
    observed=st.sampled_from([0.5, 1.0, 2.0]),
    required=st.sampled_from([None, 50.0]),
    connect_range=st.sampled_from([250.0, 500.0, 600.0]),
    regime=st.sampled_from(REGIMES),
    slot_index=st.integers(1, 10),
)
def test_decide_agrees_with_evaluate_slot(vehicles, observed, required, connect_range, regime,
                                          slot_index):
    fields, pre_decay, estimate = regime
    fleet = FleetState(
        vehicles=VehicleArrays.of(vehicles),
        mobility=MobilityModel(connect_range=connect_range, radio_range=300.0,
                               mean_range=300.0, range_stddev=1.0),
        connectivity=ConnectivityParams(),
        score_default=observed,
        required_tx_limit=required,
        **fields,
    )
    rows = {r.cluster: r for r in evaluate_slot(fleet, CFG, slot_index)}
    for cluster in sorted({v.cluster for v in vehicles}):
        members = [v for v in vehicles if v.cluster == cluster]
        heads = [v for v in members if v.role == "ch"]
        if not heads:
            assert cluster not in rows
            continue
        head = min(heads, key=lambda v: v.id)
        candidates = [
            Candidate(v.id, v.residual_energy / estimate if estimate > 0 else v.residual_energy,
                      v.radio_range, v.tx_limit, v.critical)
            for v in members if v is not head and v.active
        ]
        healthy = [c for c in candidates if not c.critical]
        steady = head.active and not head.critical
        if not candidates or not (steady or healthy):
            # No active candidate, or a handover with no one to take over.
            assert cluster not in rows
            continue
        if steady:
            want = reference(observed, CFG.expected_score, head.tx_limit, candidates, required,
                             connect_range, pre_decay)
        else:
            # A dead or critical head: the energy handover ahead of the cascade.
            want = ACTION_CHANGE, best(healthy, lambda c: c.rating).id, RULE_PRE_DECAY
        row = rows.pop(cluster)
        assert (row.slot, row.old_ch) == (slot_index, head.id)
        assert (row.action, row.new_ch, row.rule_used) == want
        assert row.offload_slot == (0.0 if row.action == ACTION_KEEP else slot_index - 1.0)
    assert rows == {}
