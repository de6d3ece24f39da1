import math

from scipy import integrate

from fleetchain.analytics import DecayParams, GaussianRate, decay_params_at, energy_decay
from fleetchain.controller import (
    ACTION_CHANGE,
    ACTION_KEEP,
    ACTION_SPLIT_RANGE,
    ACTION_SPLIT_TRANSFER,
    Candidate,
    ChDecision,
    ControllerConfig,
    FleetState,
    OstObservation,
    cumulative_decay_integral,
    decide,
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


def make_obs(observed, expected, limit=None, time=5.0) -> OstObservation:
    return OstObservation(observed=observed, expected=expected, upper_tx_limit=limit, time=time)


CFG = ControllerConfig(slot=1.0, horizon=10.0, expected_rate=1.0)


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


def test_pre_decay_positive_rhs_zero_lhs_is_true():
    hp = HestonParams(request_rate=0.0, excess_energy_ratio=2.0, energy_stddev=1.0)
    assert pre_decay_check(decay(), hp, lam1=1.0, tau=10.0, omega=1.0) is True


def test_pre_decay_against_quadrature():
    p = decay()
    hp = HestonParams(request_rate=2.0, excess_energy_ratio=2.0, energy_stddev=1.5,
                      request_change_rate=0.3)
    tau, omega, lam1, expected_change = 10.0, 1.0, 1.0, 0.3
    window = tau - omega
    lam = 3.0  # rates invert to 1 and 2
    scale = p.initial_energy / p.app_count

    def beta_d(t):
        return scale * (1.0 - math.exp(-lam * t)) / lam

    lhs_quad, _ = integrate.quad(
        lambda t: hp.request_rate * beta_d(t)
        + hp.excess_energy_ratio * math.sqrt(hp.energy_stddev) * expected_change,
        0.0,
        window,
        epsabs=1e-12,
    )
    lhs_closed = hp.request_rate * cumulative_decay_integral(p, window) + (
        hp.excess_energy_ratio * math.sqrt(hp.energy_stddev) * expected_change * window
    )
    assert math.isclose(lhs_closed, lhs_quad, rel_tol=1e-10)

    rhs = 2.0 * lam1 * energy_decay(decay_params_at(p, window)) + (
        2.0 * lam1 * hp.excess_energy_ratio * math.sqrt(1.0 * 1.0) * window
    )
    assert pre_decay_check(p, hp, lam1, tau, omega, expected_change) == (lhs_quad < rhs)


# --- decide cascade -------------------------------------------------------

def cands(*specs) -> list[Candidate]:
    return [Candidate(*spec) for spec in specs]


def test_decide_keep_when_all_healthy():
    d = decide(make_obs(5.0, 1.0, limit=100.0), CFG, cands((1, 2.0, 300.0, 200.0)),
               required_tx_limit=50.0)
    assert d.action == ACTION_KEEP
    assert d.new_ch is None


def test_decide_change_on_score_dip():
    d = decide(make_obs(0.5, 1.0), CFG, cands((7, 2.0, 300.0, None)))
    assert d == ChDecision(ACTION_CHANGE, 7, 4.0, "OST")


def test_decide_equality_keeps_head():
    d = decide(make_obs(1.0, 1.0, limit=100.0), CFG, cands((1, 2.0, 300.0, 200.0)),
               required_tx_limit=50.0)
    assert d.action == ACTION_KEEP
    # tie with no capacity data and no pre-decay signal also keeps
    d = decide(make_obs(1.0, 1.0), CFG, cands((1, 2.0, 300.0, None)))
    assert d.action == ACTION_KEEP
    assert d.rule_used == "pre-decay"


def test_decide_tie_with_pre_decay_changes():
    d = decide(make_obs(1.0, 1.0), CFG, cands((3, 2.0, 300.0, None)), pre_decay=True)
    assert d.action == ACTION_CHANGE
    assert d.rule_used == "pre-decay"


def test_decide_limit_rule_changes_head():
    # head limit 10 below the required 50; candidate 4 qualifies
    d = decide(
        make_obs(5.0, 1.0, limit=10.0),
        CFG,
        cands((4, 2.0, 600.0, 80.0), (5, 3.0, 300.0, 20.0)),
        required_tx_limit=50.0,
        connect_range=500.0,
    )
    assert d.action == ACTION_CHANGE
    assert d.new_ch == 4
    assert d.rule_used == "Lemma2-limit"


def test_decide_split_by_range():
    d = decide(
        make_obs(5.0, 1.0, limit=10.0),
        CFG,
        cands((1, 2.0, 310.0, 20.0), (2, 3.0, 290.0, 20.0)),
        required_tx_limit=50.0,
        connect_range=500.0,
    )
    assert d.action == ACTION_SPLIT_RANGE
    assert d.new_ch == 1  # 310 m beats 290 m regardless of rating


def test_decide_split_by_transfer_on_range_tie():
    d = decide(
        make_obs(5.0, 1.0, limit=10.0),
        CFG,
        cands((1, 2.0, 300.0, 20.0), (2, 3.0, 300.0, 20.0)),
        required_tx_limit=50.0,
        connect_range=500.0,
        transfer_scores={1: 0.2, 2: 0.9},
    )
    assert d.action == ACTION_SPLIT_TRANSFER
    assert d.new_ch == 2


def test_decide_never_selects_critical():
    d = decide(
        make_obs(0.5, 1.0),
        CFG,
        cands((1, 9.0, 300.0, None, True), (2, 1.0, 300.0, None, False)),
    )
    assert d.new_ch == 2


def test_decide_tie_break_rating_then_id():
    d = decide(make_obs(0.5, 1.0), CFG,
               cands((9, 2.0, 300.0, None), (3, 2.0, 300.0, None), (5, 7.0, 300.0, None)))
    assert d.new_ch == 5
    d = decide(make_obs(0.5, 1.0), CFG,
               cands((9, 2.0, 300.0, None), (3, 2.0, 300.0, None)))
    assert d.new_ch == 3


def test_decide_is_pure_and_total():
    obs = make_obs(0.5, 1.0)
    c = cands((1, 2.0, 300.0, None))
    assert decide(obs, CFG, c) == decide(obs, CFG, c)
    actions = {ACTION_KEEP, ACTION_CHANGE, ACTION_SPLIT_RANGE, ACTION_SPLIT_TRANSFER}
    for observed, expected in ((0.5, 1.0), (1.0, 1.0), (2.0, 1.0)):
        d = decide(make_obs(observed, expected), CFG, c)
        assert d.action in actions


def test_decide_empty_candidates_errors():
    try:
        decide(make_obs(0.5, 1.0), CFG, [])
    except ValueError as exc:
        assert "no candidate" in str(exc)
    else:
        raise AssertionError("expected ValueError")


def test_offload_stamp_never_negative():
    d = decide(make_obs(0.5, 1.0, time=1.0), CFG, cands((1, 2.0, 300.0, None)))
    assert d.offload_slot == 0.0


# --- slotted loop ---------------------------------------------------------

def fleet(n=4, schedule=None, default=5.0) -> FleetState:
    vehicles = [
        VehicleState(
            id=i,
            cluster=0,
            position=300.0,
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
    assert f.head(0).id == 1


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
    assert f.head(0).id == 1
