"""`FleetState._index` against a plain per-cluster reference.

The slot loop builds its fleets in id order, one contiguous run of ids per
cluster, but `run_controller` accepts any fleet: cluster labels unsorted,
non-contiguous or negative, duplicate ids, clusters with no, one or several
head flags, and inactive vehicles. The reference groups the vehicles one
cluster at a time in Python and must agree with the array index on every
field the cascade reads.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fleetchain.controller import FleetState, VehicleArrays
from fleetchain.mobility import ConnectivityParams, MobilityModel


def reference_index(a: VehicleArrays, required: float | None) -> dict:
    """The index fields, one cluster at a time: each cluster's vehicles in
    (id, position) order, and as head its first flagged one."""
    n = a.id.size
    ids, clusters, flags = a.id.tolist(), a.cluster.tolist(), a.head.tolist()
    groups = {}
    for i in sorted(range(n), key=lambda i: (clusters[i], ids[i])):
        groups.setdefault(clusters[i], []).append(i)
    stepped = [(label, members) for label, members in sorted(groups.items())
               if any(flags[i] for i in members)]
    heads = [next(i for i in members if flags[i]) for _, members in stepped]
    flat = [i for _, members in stepped for i in members]
    starts, segment, cluster_of = [], [], [len(stepped)] * n
    for k, (_, members) in enumerate(stepped):
        starts.append(len(segment))
        segment += [k] * len(members)
        for i in members:
            cluster_of[i] = k
    head = flags.copy()
    for i in flat:
        head[i] = i in heads
    qualified = None
    if required is not None:
        qualified = [a.tx_limit[i] >= required and 500.0 <= a.radio_range[i] for i in flat]
    return {
        "_stepped": [label for label, _ in stepped],
        "heads": heads,
        "_flat": flat,
        "_gather": slice(None) if flat == list(range(n)) else flat,
        "starts": starts,
        "segment": segment,
        "position": list(range(len(flat))),
        "_cluster_of": cluster_of,
        "head": head,
        "_flat_qualified": qualified,
    }


def array_index(a: VehicleArrays, required: float | None) -> dict:
    fleet = FleetState(
        vehicles=a,
        mobility=MobilityModel(connect_range=500.0, radio_range=300.0, mean_range=300.0,
                               range_stddev=1.0),
        connectivity=ConnectivityParams(presence_prob=1.0),
        required_tx_limit=required,
    )
    fleet._index()
    seg = fleet._segments

    def listed(x):
        return None if x is None else x.tolist()

    return {
        "_stepped": fleet._stepped,
        "heads": listed(fleet.heads),
        "_flat": listed(fleet._flat),
        "_gather": fleet._gather if isinstance(fleet._gather, slice) else listed(fleet._gather),
        "starts": listed(seg.starts),
        "segment": listed(seg.segment),
        "position": listed(seg.position),
        "_cluster_of": listed(fleet._cluster_of),
        "head": listed(a.head),
        "_flat_qualified": listed(fleet._flat_qualified),
    }


def arrays(cluster, ids, head, active, tx_limit, radio_range) -> VehicleArrays:
    n = len(cluster)
    return VehicleArrays(
        id=np.array(ids, dtype=np.int64),
        cluster=np.array(cluster, dtype=np.int64),
        residual=np.full(n, 1e6),
        radio_range=np.array(radio_range, dtype=float),
        tx_limit=np.array(tx_limit, dtype=float),
        head=np.array(head, dtype=bool),
        critical=np.zeros(n, dtype=bool),
        active=np.array(active, dtype=bool),
    )


@st.composite
def fleets(draw):
    n = draw(st.integers(0, 12))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    return arrays(
        # Few labels, so that clusters hold several vehicles; unsorted,
        # negative and far apart.
        cluster=column(st.sampled_from([-7, -1, 0, 3, 4, 10**9])),
        ids=column(st.integers(-3, 6)),
        head=column(st.booleans()),
        active=column(st.booleans()),
        tx_limit=column(st.sampled_from([math.nan, 0.0, 10.0, 60.0])),
        radio_range=column(st.sampled_from([300.0, 600.0])),
    )


@settings(max_examples=300, deadline=None)
@given(fleets(), st.sampled_from([None, 50.0]))
@example(arrays([], [], [], [], [], []), None)
@example(arrays([], [], [], [], [], []), 50.0)
# The slot loop's fleet: ids in order, clusters contiguous, one head each.
@example(arrays([0, 0, 0, 1, 1, 1], [0, 1, 2, 3, 4, 5], [1, 0, 0, 1, 0, 0], [1] * 6,
                [60.0] * 6, [600.0] * 6), 50.0)
# Clusters out of order, a cluster with no head, one with two, duplicate
# ids (the first by position heads) and inactive vehicles.
@example(arrays([4, -1, 4, 10**9, -1, 4, -1], [2, 5, 2, 0, 1, 2, 5], [0, 1, 1, 0, 1, 1, 0],
                [1, 0, 1, 1, 1, 0, 0], [10.0, 60.0, math.nan, 0.0, 60.0, 10.0, 60.0],
                [600.0, 600.0, 300.0, 600.0, 300.0, 600.0, 600.0]), 50.0)
def test_index_matches_a_per_cluster_reference(a, required):
    want = reference_index(a, required)
    assert array_index(a, required) == want
