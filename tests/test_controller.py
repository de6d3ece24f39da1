import math

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import integrate

from fleetchain.analytics import (
    DecayParams,
    GaussianRate,
    decay_params_at,
    energy_decay,
    invert_rate,
)
from fleetchain.controller import (
    ACTION_CHANGE,
    ACTION_KEEP,
    FIXED_SWAP,
    ControllerConfig,
    FleetState,
    SlotTrace,
    TraceRow,
    VehicleArrays,
    _Segments,
    cumulative_decay_integral,
    evaluate_slot,
    ost_score,
    ost_threshold,
    pre_decay_check,
    run_controller,
)
from fleetchain.energy import HestonParams
from fleetchain.mobility import ConnectivityParams, MobilityModel
from fleetchain.sim import SimConfig, VehicleState


def mobility(**overrides) -> MobilityModel:
    base = dict(connect_range=500.0, radio_range=300.0, mean_range=300.0, range_stddev=1.0)
    base.update(overrides)
    return MobilityModel(**base)


@pytest.mark.parametrize("slot, horizon", [(0.0, 10.0), (2.0, 1.0), (math.nan, 10.0),
                                           (1.0, math.inf), (1.0, math.nan)])
def test_a_slot_outside_the_horizon_is_rejected(slot, horizon):
    with pytest.raises(ValueError, match="slot must satisfy 0 < slot <= horizon"):
        ControllerConfig(slot=slot, horizon=horizon)


# --- scores ---------------------------------------------------------------

def test_ost_score_examples():
    m = mobility()  # mean == radio -> erf saturates
    c = ConnectivityParams(presence_prob=1.0)
    assert math.isclose(ost_score(m, c, 0.0), 0.5, abs_tol=1e-12)
    assert ost_score(mobility(), ConnectivityParams(presence_prob=0.0), 1.0) == 2.0
    expected = 4.0 + math.erf(300.0 / math.sqrt(2.0)) / 2.0
    assert math.isclose(ost_score(m, c, 2.0), expected, rel_tol=1e-12)


def test_ost_threshold_examples():
    assert ost_threshold(mobility(), ConnectivityParams(presence_prob=0.0), 0.0) == 0.0
    # mean/(sqrt(2)*sigma) = 0.5
    m = mobility(mean_range=1.0, range_stddev=math.sqrt(2.0))
    value = ost_threshold(m, ConnectivityParams(presence_prob=1.0), 0.0)
    assert math.isclose(value, math.erf(0.5) / 2.0, rel_tol=1e-12)
    assert math.isclose(value, 0.2602499389065233, abs_tol=1e-12)
    dom = ost_threshold(m, ConnectivityParams(presence_prob=1.0), 5.0)
    assert math.isclose(dom, 5.0 + math.erf(0.5) / 2.0, rel_tol=1e-12)


def test_reference_score_ties_threshold_exactly():
    # At lam 2 the score and the threshold agree to the last bit, so every
    # slot of the reference run goes to the pre-decay branch.
    cfg = SimConfig()
    m, c = cfg.mobility(), cfg.connectivity()
    assert ost_score(m, c, cfg.lam1_value) == ost_threshold(m, c, cfg.expected_rate_value)


# --- pre-decay rule -------------------------------------------------------

def decay(horizon=10.0) -> DecayParams:
    return DecayParams(
        rate1=GaussianRate.at_rate(0.0, 1.0, 1.0),
        rate2=GaussianRate.at_rate(0.0, 1.0, 2.0),
        initial_energy=1000.0,
        app_count=10,
        horizon=horizon,
    )


def test_pre_decay_both_sides_zero_is_false():
    hp = HestonParams(request_rate=0.0, excess_energy_ratio=2.0, energy_stddev=1.0)
    assert pre_decay_check(decay(), hp, lam1=0.0, tau=10.0, omega=1.0) is False


def test_cumulative_decay_integral_zero_rate_limit():
    p = DecayParams(
        rate1=GaussianRate.at_peak(0.0, 1.0),
        rate2=GaussianRate.at_peak(0.0, 1.0),
        initial_energy=6.0,
        app_count=3,
        horizon=10.0,
    )
    # decay value grows linearly at zero rate, so its integral is quadratic
    assert cumulative_decay_integral(p, 4.0) == 2.0 * 4.0 * 4.0 / 2.0


# lam * h spans 0 to 1e9: the series below 1 (at lam 0 too), the closed form
# from 1 on. A scenario at lam 1e-7 takes the series (lam about 2e-7, h 99).
@given(st.floats(0.0, 1e3), st.floats(1e-3, 1e6), st.floats(1e-3, 1e12), st.integers(1, 50))
@example(1.9992005623875193e-07, 99.0, 1e9, 10)
@example(5e-324, 1.0, 1e9, 10)
@example(1.0, 1.0, 1e9, 10)
@example(1.0, 0.9999999999999999, 1e9, 10)
@example(3.0, 99.0, 1e9, 10)
def test_cumulative_decay_integral_matches_mpmath(lam, h, initial_energy, apps):
    p = DecayParams(rate1=GaussianRate.at_peak(lam, 1.0), rate2=GaussianRate.at_peak(0.0, 1.0),
                    initial_energy=initial_energy, app_count=apps, horizon=h)
    assert invert_rate(p.rate1) + invert_rate(p.rate2) == lam  # each rate is its mean
    got = cumulative_decay_integral(p, h)
    # 60 digits, plus those that h + expm1(-lam * h) / lam cancels.
    with mpmath.workdps(60 + max(0, int(-mpmath.log10(mpmath.mpf(lam) * h))) if lam else 60):
        scale, lam, h = mpmath.mpf(initial_energy) / apps, mpmath.mpf(lam), mpmath.mpf(h)
        want = scale * h * h / 2 if not lam else scale * (h + mpmath.expm1(-lam * h) / lam) / lam
        assert abs(got - want) <= 1e-15 * want


def test_pre_decay_positive_rhs_zero_lhs_is_true():
    hp = HestonParams(request_rate=0.0, excess_energy_ratio=2.0, energy_stddev=1.0)
    assert pre_decay_check(decay(), hp, lam1=1.0, tau=10.0, omega=1.0) is True


def test_pre_decay_against_quadrature():
    p = decay()
    hp = HestonParams(request_rate=2.0, excess_energy_ratio=2.0, energy_stddev=1.5,
                      request_change_rate=0.3)
    tau, omega, lam1 = 10.0, 1.0, 1.0
    window = tau - omega
    lam = 3.0  # rates invert to 1 and 2
    scale = p.initial_energy / p.app_count

    def beta_d(t):
        return scale * (1.0 - math.exp(-lam * t)) / lam

    lhs_quad, _ = integrate.quad(
        lambda t: hp.request_rate * beta_d(t)
        + hp.excess_energy_ratio * math.sqrt(hp.energy_stddev) * hp.request_change_rate,
        0.0,
        window,
        epsabs=1e-12,
    )
    lhs_closed = hp.request_rate * cumulative_decay_integral(p, window) + (
        hp.excess_energy_ratio * math.sqrt(hp.energy_stddev) * hp.request_change_rate * window
    )
    assert math.isclose(lhs_closed, lhs_quad, rel_tol=1e-10)

    rhs = 2.0 * lam1 * energy_decay(decay_params_at(p, window)) + (
        2.0 * lam1 * hp.excess_energy_ratio * math.sqrt(1.0 * 1.0) * window
    )
    assert pre_decay_check(p, hp, lam1, tau, omega) == (lhs_quad < rhs)


# --- keep-or-change cascade ---------------------------------------------

def cascade(observed, expected, *members, limit=None, slot=5, required=None,
            connect_range=500.0, pre_decay=False) -> list[TraceRow]:
    """The rows of `evaluate_slot` at `slot` (slots of 1 s) over one cluster:
    head 0, healthy, with tx limit `limit`, and active `members` given as
    (id, residual, radio range, tx limit[, critical]). The observed score is
    `observed` on every slot and the expected score `expected`. Residuals
    rate as they are, except under `pre_decay`, whose decay data rates them
    in slots of decay."""
    vehicles = [VehicleState(id=0, cluster=0, residual_energy=0.0, stay_time=10.0,
                             radio_range=300.0, role="ch", tx_limit=limit)]
    for vid, residual, radio_range, tx_limit, *critical in members:
        assert vid != 0
        vehicles.append(VehicleState(id=vid, cluster=0, residual_energy=residual,
                                     stay_time=10.0, radio_range=radio_range,
                                     tx_limit=tx_limit, critical=any(critical)))
    signal = {}
    if pre_decay:
        # The pre-decay test's left-hand side is 0 and its right-hand side
        # positive (`test_pre_decay_positive_rhs_zero_lhs_is_true`).
        hp = HestonParams(request_rate=0.0, excess_energy_ratio=2.0, energy_stddev=1.0)
        signal = dict(decay=decay(), heston=hp, lam1=1.0)
    fleet = FleetState(vehicles=VehicleArrays.of(vehicles),
                       mobility=mobility(connect_range=connect_range),
                       connectivity=ConnectivityParams(), score_default=observed,
                       required_tx_limit=required, **signal)
    cfg = ControllerConfig(slot=1.0, horizon=10.0, expected_score=expected)
    return evaluate_slot(fleet, cfg, slot).rows_at(slot, cfg.slot)


def test_decide_keep_when_all_healthy():
    (row,) = cascade(5.0, 1.0, (1, 2.0, 300.0, 200.0), limit=100.0, required=50.0)
    assert row.action == ACTION_KEEP
    assert row.new_ch is None


def test_decide_change_on_score_dip():
    rows = cascade(0.5, 1.0, (7, 2.0, 300.0, None))
    assert rows == [TraceRow(5, 0, "OST", ACTION_CHANGE, 0, 7, 4.0)]


def test_decide_equality_keeps_head():
    (row,) = cascade(1.0, 1.0, (1, 2.0, 300.0, 200.0), limit=100.0, required=50.0)
    assert row.action == ACTION_KEEP
    # tie with no capacity data and no pre-decay signal also keeps
    (row,) = cascade(1.0, 1.0, (1, 2.0, 300.0, None))
    assert row.action == ACTION_KEEP
    assert row.rule_used == "pre-decay"


def test_decide_tie_with_pre_decay_changes():
    (row,) = cascade(1.0, 1.0, (3, 2.0, 300.0, None), pre_decay=True)
    assert row.action == ACTION_CHANGE
    assert row.rule_used == "pre-decay"


def test_decide_limit_rule_changes_head():
    # head limit 10 below the required 50; member 4 qualifies
    (row,) = cascade(5.0, 1.0, (4, 2.0, 600.0, 80.0), (5, 3.0, 300.0, 20.0),
                     limit=10.0, required=50.0, connect_range=500.0)
    assert row.action == ACTION_CHANGE
    assert row.new_ch == 4
    assert row.rule_used == "Lemma2-limit"


def test_decide_limit_rule_keeps_head_without_qualified_member():
    # Limits 20 are under the required 50, and 80 covers it but 300 m does
    # not reach the 500 m connect range: no member qualifies, the head stays.
    rows = cascade(5.0, 1.0, (1, 2.0, 310.0, 20.0), (2, 3.0, 600.0, 20.0),
                   (3, 9.0, 300.0, 80.0), limit=10.0, required=50.0, connect_range=500.0)
    assert rows == [TraceRow(5, 0, "Lemma2-limit", ACTION_KEEP, 0, None, 0.0)]


def test_decide_never_selects_critical():
    (row,) = cascade(0.5, 1.0, (1, 9.0, 300.0, None, True), (2, 1.0, 300.0, None, False))
    assert row.new_ch == 2


def test_decide_tie_break_rating_then_id():
    (row,) = cascade(0.5, 1.0, (9, 2.0, 300.0, None), (3, 2.0, 300.0, None),
                     (5, 7.0, 300.0, None))
    assert row.new_ch == 5
    (row,) = cascade(0.5, 1.0, (9, 2.0, 300.0, None), (3, 2.0, 300.0, None))
    assert row.new_ch == 3


def test_decide_is_pure_and_total():
    member = (1, 2.0, 300.0, None)
    assert cascade(0.5, 1.0, member) == cascade(0.5, 1.0, member)
    actions = {ACTION_KEEP, ACTION_CHANGE}
    for observed, expected in ((0.5, 1.0), (1.0, 1.0), (2.0, 1.0)):
        (row,) = cascade(observed, expected, member)
        assert row.action in actions


def test_decide_empty_candidates_keeps_head():
    # No member at all: the slot writes no row for the cluster.
    assert cascade(0.5, 1.0) == []
    # Every candidate critical: no one is eligible, so the head stays too.
    rows = cascade(0.5, 1.0, (1, 9.0, 300.0, None, True))
    assert rows == [TraceRow(5, 0, "OST", ACTION_KEEP, 0, None, 0.0)]


def test_offload_stamp_never_negative():
    (row,) = cascade(0.5, 1.0, (1, 2.0, 300.0, None), slot=1)
    assert row.offload_slot == 0.0


# --- slotted loop ---------------------------------------------------------

def fleet(n=4, schedule=None, default=5.0) -> FleetState:
    vehicles = [
        VehicleState(
            id=i,
            cluster=0,
            residual_energy=1000.0 - 10.0 * i,
            stay_time=10.0,
            radio_range=300.0,
            role="ch" if i == 0 else "member",
            initial_energy=1000.0,
        )
        for i in range(n)
    ]
    return FleetState(
        vehicles=vehicles,
        mobility=mobility(),
        connectivity=ConnectivityParams(),
        score_schedule=schedule,
        score_default=default,
    )


def heads(vehicles, cluster) -> list[int]:
    return [v.id for v in vehicles if v.cluster == cluster and v.role == "ch"]


def test_run_controller_single_slot():
    cfg = ControllerConfig(slot=1.0, horizon=1.0, expected_score=1.0)
    rows = run_controller(fleet(), cfg)
    assert {r.slot for r in rows} == {1}


def test_run_controller_all_healthy_no_changes():
    cfg = ControllerConfig(slot=1.0, horizon=10.0, expected_score=1.0)
    rows = run_controller(fleet(), cfg)
    assert all(r.action == ACTION_KEEP for r in rows)


def test_run_controller_scripted_dip():
    cfg = ControllerConfig(slot=1.0, horizon=10.0, expected_score=1.0)
    f = fleet(schedule={5: 0.1})
    rows = run_controller(f, cfg)
    changes = [r for r in rows if r.action == ACTION_CHANGE]
    assert len(changes) == 1
    assert changes[0].slot == 5
    assert changes[0].offload_slot == 4.0
    assert changes[0].old_ch == 0
    assert changes[0].new_ch == 1  # highest residual among members
    assert heads(f.vehicles, 0) == [1]


def test_run_controller_stamps_offloads_one_slot_ahead_at_slot_0_3():
    # Every verdict is an OST change, so every slot changes the head. The
    # rows are each slot's trace as `rows_at` gives them, on a twin fleet,
    # with the offload `s * 0.3 - 0.3`: `(s - 1) * 0.3` rounds differently.
    cfg = ControllerConfig(slot=0.3, horizon=3.0, expected_score=1.0)
    rows = run_controller(fleet(default=0.5), cfg)
    twin = fleet(default=0.5)
    twin.vehicles = VehicleArrays.of(twin.vehicles)
    assert rows == [row for s in range(1, 11)
                    for row in evaluate_slot(twin, cfg, s).rows_at(s, 0.3)]
    assert [r.action for r in rows] == [ACTION_CHANGE] * 10
    assert [r.offload_slot for r in rows] == [max(s * 0.3 - 0.3, 0.0) for s in range(1, 11)]
    assert [r.offload_slot for r in rows] != [(s - 1) * 0.3 for s in range(1, 11)]


def test_run_controller_deterministic_trace():
    cfg = ControllerConfig(slot=1.0, horizon=10.0, expected_score=1.0)
    a = run_controller(fleet(schedule={3: 0.0, 7: 0.0}), cfg)
    b = run_controller(fleet(schedule={3: 0.0, 7: 0.0}), cfg)
    assert a == b


def test_run_controller_replaces_critical_head():
    f = fleet()
    f.vehicles[0].critical = True
    cfg = ControllerConfig(slot=1.0, horizon=3.0, expected_score=1.0)
    rows = run_controller(f, cfg)
    first = rows[0]
    assert first.action == ACTION_CHANGE
    assert first.rule_used == "pre-decay"
    assert first.new_ch == 1
    assert heads(f.vehicles, 0) == [1]


def handover_fleet(spec) -> list[VehicleState]:
    """Vehicles from (id, cluster, role) triples; vehicle 10 is critical."""
    return [
        VehicleState(
            id=vid,
            cluster=cluster,
            residual_energy=1000.0 - vid,
            stay_time=10.0,
            radio_range=300.0,
            role=role,
            critical=vid == 10,
            initial_energy=1000.0,
        )
        for vid, cluster, role in spec
    ]


def run_handover(vehicles) -> list:
    fleet = FleetState(
        vehicles=vehicles, mobility=mobility(), connectivity=ConnectivityParams(), score_default=5.0
    )
    return run_controller(fleet, ControllerConfig(slot=1.0, horizon=3.0, expected_score=1.0))


def test_run_controller_writes_roles_back_to_changed_clusters_only():
    # Cluster 0 starts with two heads and keeps them; cluster 1 hands over
    # from its critical head 10.
    spec = [(0, 0, "ch"), (1, 0, "member"), (2, 0, "ch"),
            (10, 1, "ch"), (11, 1, "member"), (12, 1, "member")]
    vehicles = handover_fleet(spec)
    rows = run_handover(vehicles)
    assert [(r.cluster, r.new_ch) for r in rows if r.action == ACTION_CHANGE] == [(1, 11)]
    assert heads(vehicles, 0) == [0, 2]
    assert heads(vehicles, 1) == [11]
    assert run_handover(VehicleArrays.of(handover_fleet(spec))) == rows


def test_run_controller_hands_over_within_the_cluster_on_duplicate_ids():
    # Id 1 is in both clusters: cluster 1's handover goes to its own vehicle 1.
    vehicles = handover_fleet([(10, 1, "ch"), (1, 1, "member"), (0, 0, "ch"), (1, 0, "member")])
    rows = run_handover(vehicles)
    assert [(r.cluster, r.new_ch) for r in rows if r.action == ACTION_CHANGE] == [(1, 1)]
    assert [v.role for v in vehicles] == ["member", "ch", "ch", "member"]


@pytest.mark.parametrize("schedule, expected", [({2: math.nan}, 1.0), (None, math.inf)])
def test_a_non_finite_score_is_rejected(schedule, expected):
    cfg = ControllerConfig(slot=1.0, horizon=3.0, expected_score=expected)
    with pytest.raises(ValueError, match="scores must be finite"):
        run_controller(fleet(schedule=schedule), cfg)


def test_a_negative_tx_limit_is_rejected():
    f = fleet()
    f.vehicles[0].tx_limit = -1.0
    with pytest.raises(ValueError, match="tx_limit must be >= 0"):
        run_controller(f, ControllerConfig(slot=1.0, horizon=3.0, expected_score=1.0))


def test_a_cluster_with_two_head_flags_keeps_one_after_a_change():
    # Vehicles 0 and 2 are both flagged; 0, the lower id, is the head. The
    # dip at slot 3 hands the cluster to vehicle 1, the richest other member.
    spec = [(0, 0, "ch"), (1, 0, "member"), (2, 0, "ch"), (3, 0, "member")]

    def dip_fleet(vehicles) -> FleetState:
        return FleetState(vehicles=vehicles, mobility=mobility(),
                          connectivity=ConnectivityParams(), score_default=5.0,
                          score_schedule={3: 0.1})

    cfg = ControllerConfig(slot=1.0, horizon=5.0, expected_score=1.0)
    arrays = VehicleArrays.of(handover_fleet(spec))
    f = dip_fleet(arrays)
    slot, changed = 0, False
    while not changed:
        slot += 1
        changed = any(row.action == ACTION_CHANGE
                      for row in evaluate_slot(f, cfg, slot).rows_at(slot, cfg.slot))
    assert slot == 3
    assert arrays.head.tolist() == [False, True, False, False]
    vehicles = handover_fleet(spec)
    rows = run_controller(dip_fleet(vehicles), cfg)
    assert [(r.slot, r.old_ch, r.new_ch) for r in rows if r.action == ACTION_CHANGE] == [(3, 0, 1)]
    assert [v.role for v in vehicles] == ["member", "ch", "member", "member"]


def test_deactivated_vehicles_leave_the_active_counts():
    # Cluster 0 is head 0 with members 1 and 2; cluster 1 is head 3 with
    # member 4. Every head is kept, while it has an active candidate.
    spec = [(0, 0, "ch"), (1, 0, "member"), (2, 0, "member"), (3, 1, "ch"), (4, 1, "member")]
    cfg = ControllerConfig(slot=1.0, horizon=5.0, expected_score=1.0)
    arrays = VehicleArrays.of(handover_fleet(spec))
    f = FleetState(vehicles=arrays, mobility=mobility(), connectivity=ConnectivityParams(),
                   score_default=5.0)
    # The flags are cleared directly, before and between slots: each slot
    # reads them afresh.
    arrays.active[2] = False
    assert evaluate_slot(f, cfg, 1).cluster == [0, 1]
    arrays.active[1] = False
    assert evaluate_slot(f, cfg, 2).cluster == [1]
    arrays.active[4] = False
    assert len(evaluate_slot(f, cfg, 3)) == 0
    assert arrays.active.tolist() == [True, False, False, True, False]


def test_handed_back_rows_take_the_new_heads_rule():
    # Head 0 is critical, so slot 1 hands it to vehicle 1, the richest
    # healthy member, under the pre-decay rule. At score 0.5 against 1.0,
    # vehicle 1's own verdict is an OST change, and vehicle 0 is richer than
    # vehicle 2: the next slot hands the head back under the OST rule.
    vehicles = [VehicleState(id=i, cluster=0, residual_energy=residual, stay_time=10.0,
                             radio_range=300.0, role="ch" if i == 0 else "member",
                             critical=i == 0)
                for i, residual in enumerate((900.0, 500.0, 100.0))]
    f = FleetState(vehicles=VehicleArrays.of(vehicles), mobility=mobility(),
                   connectivity=ConnectivityParams(), score_default=0.5)
    trace = evaluate_slot(f, ControllerConfig(slot=1.0, horizon=10.0, expected_score=1.0), 1)
    assert (trace.rule, trace.change, trace.old, trace.new) == ([2], [True], [0], [1])
    assert f.fixed == FIXED_SWAP
    back = f.handed_back(trace)
    assert [(r.slot, r.offload_slot, r.cluster) for r in back.rows_at(2, 1.0)] == [(2, 1.0, 0)]
    assert (back.rule, back.change, back.old, back.new) == ([0], [True], [1], [0])



def test_no_swap_is_fixed_where_the_limit_rule_fires():
    # Head 0's limit of 60 covers the required 50, but it is critical, so
    # slot 1 hands it under the pre-decay rule to vehicle 1, the richest
    # healthy member. Vehicle 1's limit of 10 is under the requirement, so
    # its verdict as a head is a Lemma2-limit change: that rule fires. Head
    # 0 qualifies and is richer than vehicle 2, yet no swap is fixed: as a
    # critical vehicle it does not take the head back, and no vehicle
    # qualifies to take it from vehicle 1.
    def limit_fleet(vehicles) -> FleetState:
        return FleetState(vehicles=vehicles, mobility=mobility(),
                          connectivity=ConnectivityParams(), score_default=1.0,
                          required_tx_limit=50.0)

    def vehicles():
        return [VehicleState(id=i, cluster=0, residual_energy=residual, stay_time=10.0,
                             radio_range=600.0, role="ch" if i == 0 else "member",
                             tx_limit=limit, critical=i == 0)
                for i, (residual, limit) in enumerate(((900.0, 60.0), (500.0, 10.0),
                                                       (100.0, 10.0)))]

    cfg = ControllerConfig(slot=1.0, horizon=3.0, expected_score=0.0)
    f = limit_fleet(VehicleArrays.of(vehicles()))
    trace = evaluate_slot(f, cfg, 1)
    assert (trace.rule, trace.change, trace.old, trace.new) == ([2], [True], [0], [1])
    assert f.fixed is None
    assert run_controller(limit_fleet(vehicles()), cfg) == [
        TraceRow(1, 0, "pre-decay", ACTION_CHANGE, 0, 1, 0.0),
        TraceRow(2, 0, "Lemma2-limit", ACTION_KEEP, 1, None, 0.0),
        TraceRow(3, 0, "Lemma2-limit", ACTION_KEEP, 1, None, 0.0),
    ]


def handed_on(f: FleetState, expected):
    """`f.handed_on` on a fleet of one cluster: every active vehicle is a
    candidate, with its residual and critical flag from the arrays."""
    a = f.vehicles
    ids = a.active.nonzero()[0]
    at = ids.searchsorted(expected.old)
    return f.handed_on(expected, ids, at, a.residual[ids], ~a.critical[ids],
                       _Segments.of_lengths([ids.size]))


@pytest.mark.parametrize("residuals, new", [
    # Vehicle 2 is now richer than vehicle 0, so vehicle 1 hands the head to
    # it, and would get it back on the next slot: it is richer than vehicle 0.
    ((300.0, 500.0, 400.0), [2]),
    # The same pick, but vehicle 1 is not richer than vehicle 0, so the
    # next slot would not hand the head back: no rows.
    ((360.0, 350.0, 400.0), None),
    # Vehicle 0 is still the richest: the head goes back to it.
    ((450.0, 500.0, 400.0), [0]),
])
def test_handed_on_gives_the_picks_that_hand_back(residuals, new):
    # Every verdict is an OST change. Slot 1 hands head 0 to vehicle 1, the
    # richest member; a swap block expects slot 2 to hand it back to 0.
    vehicles = [VehicleState(id=i, cluster=0, residual_energy=residual, stay_time=10.0,
                             radio_range=300.0, role="ch" if i == 0 else "member")
                for i, residual in enumerate((900.0, 500.0, 100.0))]
    f = FleetState(vehicles=VehicleArrays.of(vehicles), mobility=mobility(),
                   connectivity=ConnectivityParams(), score_default=0.5)
    trace = evaluate_slot(f, ControllerConfig(slot=1.0, horizon=10.0, expected_score=1.0), 1)
    assert f.fixed == FIXED_SWAP
    f.vehicles.residual[:] = residuals
    handed = handed_on(f, f.handed_back(trace))
    if new is None:
        assert handed is None
    else:
        rows, picks = handed
        assert [(r.slot, r.offload_slot, r.cluster) for r in rows.rows_at(2, 1.0)] == [(2, 1.0, 0)]
        assert (rows.rule, rows.change, rows.old, rows.new) == ([0], [True], [1], new)
        assert picks.tolist() == new  # the candidates are vehicles 0, 1 and 2
    assert f.heads.tolist() == [1]  # it moves no head


def test_handed_on_needs_every_head_to_change():
    # Vehicle 0's limit covers the required 50 and the others' do not, and
    # the observed score is above the expected: as a head, vehicle 0's
    # verdict is a keep, the others' a Lemma2-limit change. Slot 1 hands
    # head 1 to vehicle 0, the only qualified member. Vehicle 1 would be
    # the pick on slot 2 and would hand the head back, but vehicle 0 keeps
    # the head.
    vehicles = [VehicleState(id=i, cluster=0, residual_energy=1.0, stay_time=10.0,
                             radio_range=600.0, role="ch" if i == 1 else "member",
                             tx_limit=limit)
                for i, limit in enumerate((60.0, 10.0, 10.0))]
    f = FleetState(vehicles=VehicleArrays.of(vehicles), mobility=mobility(),
                   connectivity=ConnectivityParams(), score_default=1.0,
                   required_tx_limit=50.0)
    trace = evaluate_slot(f, ControllerConfig(slot=1.0, horizon=10.0, expected_score=0.0), 1)
    assert trace.new == [0]
    f.vehicles.residual[:] = (8.0, 9.0, 7.0)
    assert handed_on(f, f.handed_back(trace)) is None


def test_handed_on_needs_every_head_to_change_where_no_limit_rule_fires():
    # At the score tie with the pre-decay test set, vehicle 0's limit of 60
    # covers the required 50, so its verdict as a head is a keep; vehicles
    # 1 and 2 have no limit, so theirs is a pre-decay change, and the
    # Lemma2-limit rule fires for no vehicle. Slot 1 hands head 1 to vehicle
    # 0, the richest member. On a break where vehicle 0 heads, vehicle 1
    # would be the pick and would hand the head back, but vehicle 0 keeps
    # the head.
    vehicles = [VehicleState(id=i, cluster=0, residual_energy=residual, stay_time=10.0,
                             radio_range=600.0, role="ch" if i == 1 else "member",
                             tx_limit=limit)
                for i, (residual, limit) in enumerate(((900.0, 60.0), (800.0, None),
                                                       (100.0, None)))]
    hp = HestonParams(request_rate=0.0, excess_energy_ratio=2.0, energy_stddev=1.0)
    f = FleetState(vehicles=VehicleArrays.of(vehicles), mobility=mobility(),
                   connectivity=ConnectivityParams(), score_default=1.0, required_tx_limit=50.0,
                   decay=decay(), heston=hp, lam1=1.0)
    trace = evaluate_slot(f, ControllerConfig(slot=1.0, horizon=10.0, expected_score=1.0), 1)
    assert (trace.rule, trace.old, trace.new) == ([2], [1], [0])
    assert handed_on(f, f.handed_back(trace)) is None


def test_handed_on_gives_a_limit_head_only_to_a_qualified_member():
    # At the score tie with the pre-decay test set, vehicle 0's limit of 10
    # is under the required 50, so its verdict is a Lemma2-limit change;
    # vehicle 1 has no limit, so its own is a pre-decay change; vehicle 2's
    # limit of 60 qualifies and its verdict is a keep. A break where vehicle
    # 0 heads may hand the head only to vehicle 2, the one qualified member,
    # which would not hand it back: no rows. Vehicle 1, the richest, would
    # hand it back.
    vehicles = [VehicleState(id=i, cluster=0, residual_energy=residual, stay_time=10.0,
                             radio_range=600.0, role="ch" if i == 0 else "member",
                             tx_limit=limit)
                for i, (residual, limit) in enumerate(((900.0, 10.0), (800.0, None),
                                                       (100.0, 60.0)))]
    hp = HestonParams(request_rate=0.0, excess_energy_ratio=2.0, energy_stddev=1.0)
    f = FleetState(vehicles=VehicleArrays.of(vehicles), mobility=mobility(),
                   connectivity=ConnectivityParams(), score_default=1.0, required_tx_limit=50.0,
                   decay=decay(), heston=hp, lam1=1.0)
    trace = evaluate_slot(f, ControllerConfig(slot=1.0, horizon=10.0, expected_score=1.0), 1)
    assert (trace.rule, trace.old, trace.new) == ([1], [0], [2])
    expected = SlotTrace([0], [0], [True], [0], [2])
    assert handed_on(f, expected) is None
