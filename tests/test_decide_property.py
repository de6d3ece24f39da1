"""`decide` against a brute-force reference of the decision cascade, over
random candidate sets with equal ratings, equal ranges, None limits and
candidates passed out of id order; and `decide` against the slotted loop's
array selection (`evaluate_slot`) over random vehicle fleets."""

from hypothesis import given, settings
from hypothesis import strategies as st

from fleetchain.controller import (
    ACTION_CHANGE,
    ACTION_KEEP,
    RULE_LIMIT,
    RULE_OST,
    RULE_PRE_DECAY,
    Candidate,
    ControllerConfig,
    FleetState,
    OstObservation,
    VehicleArrays,
    decide,
    evaluate_slot,
)
from fleetchain.mobility import ConnectivityParams, MobilityModel
from fleetchain.sim import VehicleState

CFG = ControllerConfig(slot=1.0, horizon=10.0)


@st.composite
def candidate_sets(draw):
    ids = draw(st.lists(st.integers(0, 40), min_size=0, max_size=8, unique=True))
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


def reference(obs, candidates, required, connect_range, pre_decay):
    """(action, new head, rule) of the decision cascade."""
    if obs.observed < obs.expected:
        rule = RULE_OST
    elif required is None or obs.upper_tx_limit is None:
        if obs.observed == obs.expected and pre_decay:
            rule = RULE_PRE_DECAY
        else:
            return ACTION_KEEP, None, RULE_PRE_DECAY if obs.observed == obs.expected else RULE_OST
    elif obs.upper_tx_limit >= required:
        return ACTION_KEEP, None, RULE_OST
    else:
        rule = RULE_LIMIT
    eligible = [c for c in candidates if not c.critical]
    if rule == RULE_LIMIT:
        eligible = [
            c for c in eligible
            if c.tx_limit is not None and c.tx_limit >= required
            and (connect_range is None or connect_range <= c.radio_range)
        ]
    if not eligible:
        return ACTION_KEEP, None, rule
    best = min(eligible, key=lambda c: (-c.energy_rating, c.vehicle_id))
    return ACTION_CHANGE, best.vehicle_id, rule


@settings(max_examples=400, deadline=None)
@given(
    candidates=candidate_sets(),
    observed=st.sampled_from([0.5, 1.0, 2.0]),
    head_limit=st.sampled_from([None, 10.0, 60.0]),
    required=st.sampled_from([None, 50.0]),
    connect_range=st.sampled_from([None, 500.0]),
    pre_decay=st.booleans(),
)
def test_decide_matches_reference(candidates, observed, head_limit, required, connect_range,
                                  pre_decay):
    obs = OstObservation(observed=observed, expected=1.0, upper_tx_limit=head_limit, time=3.0)
    want = reference(obs, candidates, required, connect_range, pre_decay)
    got = decide(obs, CFG, candidates, required_tx_limit=required,
                 connect_range=connect_range, pre_decay=pre_decay)
    assert (got.action, got.new_ch, got.rule_used) == want
    assert got.offload_slot == (0.0 if got.action == ACTION_KEEP else 2.0)


MOBILITY = MobilityModel(connect_range=500.0, radio_range=300.0, mean_range=300.0,
                         range_stddev=1.0)


@st.composite
def fleets(draw):
    ids = draw(st.lists(st.integers(0, 60), min_size=1, max_size=16, unique=True))
    return [
        VehicleState(
            id=vid,
            cluster=draw(st.integers(0, 3)),
            residual_energy=draw(st.sampled_from([120.0, 400.0, 400.0, 750.0])),
            stay_time=20.0,
            radio_range=draw(st.sampled_from([250.0, 300.0, 500.0, 600.0])),
            role=draw(st.sampled_from(["ch", "member", "member"])),
            critical=draw(st.booleans()),
            active=draw(st.sampled_from([True, True, False])),
            tx_limit=draw(st.sampled_from([None, 10.0, 50.0, 100.0])),
        )
        for vid in ids
    ]


@settings(max_examples=300, deadline=None)
@given(
    vehicles=fleets(),
    observed=st.sampled_from([0.5, 1.0, 2.0]),
    required=st.sampled_from([None, 50.0]),
    slot_index=st.integers(1, 10),
)
def test_decide_agrees_with_evaluate_slot(vehicles, observed, required, slot_index):
    cfg = ControllerConfig(slot=1.0, horizon=10.0, expected_score=1.0)
    fleet = FleetState(vehicles=VehicleArrays.of(vehicles), mobility=MOBILITY,
                       connectivity=ConnectivityParams(), score_default=observed,
                       required_tx_limit=required)
    rows = {r.cluster: r for r in evaluate_slot(fleet, cfg, slot_index)}
    t = slot_index * cfg.slot
    for cluster in {v.cluster for v in vehicles}:
        members = [v for v in vehicles if v.cluster == cluster]
        heads = [v for v in members if v.role == "ch"]
        if not heads:
            assert cluster not in rows
            continue
        head = min(heads, key=lambda v: v.id)
        if not head.active or head.critical:
            continue  # an energy handover, ahead of the cascade
        candidates = [Candidate(v.id, v.residual_energy, v.radio_range, v.tx_limit, v.critical)
                      for v in members if v is not head and v.active]
        if not candidates:
            assert cluster not in rows
            continue
        obs = OstObservation(observed=observed, expected=1.0, upper_tx_limit=head.tx_limit,
                             time=t)
        want = decide(obs, cfg, candidates, required_tx_limit=required,
                      connect_range=MOBILITY.connect_range)
        row = rows[cluster]
        assert row.old_ch == head.id
        assert (row.rule_used, row.action, row.new_ch, row.offload_slot) == (
            want.rule_used, want.action, want.new_ch, want.offload_slot)
