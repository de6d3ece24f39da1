"""`decide` against a brute-force reference of the decision cascade, over
random candidate sets with equal ratings, equal ranges, None limits and
candidates passed out of id order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetchain.controller import (
    ACTION_CHANGE,
    ACTION_KEEP,
    ACTION_SPLIT_RANGE,
    ACTION_SPLIT_TRANSFER,
    RULE_LIMIT,
    RULE_OST,
    RULE_PRE_DECAY,
    Candidate,
    ControllerConfig,
    OstObservation,
    decide,
)

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


def reference(obs, candidates, required, connect_range, transfer_scores, pre_decay):
    """(action, new head, rule), or None where `decide` must raise."""
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

    def best(pool):
        return min(pool, key=lambda c: (-c.energy_rating, c.vehicle_id)).vehicle_id

    if rule == RULE_LIMIT:
        qualified = [
            c for c in eligible
            if c.tx_limit is not None and c.tx_limit >= required
            and (connect_range is None or connect_range <= c.radio_range)
        ]
        if qualified:
            return ACTION_CHANGE, best(qualified), rule
    if not eligible:
        return None
    if rule != RULE_LIMIT:
        return ACTION_CHANGE, best(eligible), rule
    top = max(c.radio_range for c in eligible)
    leaders = [c for c in eligible if c.radio_range == top]
    if len(leaders) == 1:
        return ACTION_SPLIT_RANGE, leaders[0].vehicle_id, rule
    scores = transfer_scores or {}
    lead = min(leaders, key=lambda c: (-scores.get(c.vehicle_id, 0.0), c.vehicle_id))
    return ACTION_SPLIT_TRANSFER, lead.vehicle_id, rule


@settings(max_examples=400, deadline=None)
@given(
    candidates=candidate_sets(),
    observed=st.sampled_from([0.5, 1.0, 2.0]),
    head_limit=st.sampled_from([None, 10.0, 60.0]),
    required=st.sampled_from([None, 50.0]),
    connect_range=st.sampled_from([None, 500.0]),
    transfer=st.one_of(st.none(), st.dictionaries(st.integers(0, 40),
                                                  st.sampled_from([0.0, 0.2, 0.9]))),
    pre_decay=st.booleans(),
)
def test_decide_matches_reference(candidates, observed, head_limit, required, connect_range,
                                  transfer, pre_decay):
    obs = OstObservation(observed=observed, expected=1.0, upper_tx_limit=head_limit, time=3.0)
    want = reference(obs, candidates, required, connect_range, transfer, pre_decay)
    kwargs = dict(required_tx_limit=required, connect_range=connect_range,
                  transfer_scores=transfer, pre_decay=pre_decay)
    if want is None:
        with pytest.raises(ValueError, match="no candidate"):
            decide(obs, CFG, candidates, **kwargs)
        return
    got = decide(obs, CFG, candidates, **kwargs)
    assert (got.action, got.new_ch, got.rule_used) == want
    assert got.offload_slot == (0.0 if got.action == ACTION_KEEP else 2.0)
