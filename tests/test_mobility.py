import math

import numpy as np
import pytest

from fleetchain.mobility import (
    ConnectivityParams,
    ConstraintSet,
    MobilityModel,
    check_constraints,
    in_range_probability,
    transfer_function,
)
from fleetchain.quadrature import QuadratureError, adaptive_simpson


def model(**overrides) -> MobilityModel:
    base = dict(connect_range=500.0, radio_range=300.0, mean_range=300.0, range_stddev=50.0)
    base.update(overrides)
    return MobilityModel(**base)


def test_adaptive_simpson_polynomial_and_failure():
    assert math.isclose(adaptive_simpson(lambda x: x * x, 0, 1), 1 / 3, abs_tol=1e-12)
    assert adaptive_simpson(lambda x: 1.0, 5.0, 5.0) == 0.0
    with pytest.raises(QuadratureError):
        # Non-integrable spike cannot settle within two levels.
        adaptive_simpson(lambda x: 1.0 / math.sqrt(abs(x - 0.3141)), 0, 1, max_depth=2)


def test_in_range_probability_trivial_cases():
    m = model()
    assert in_range_probability(m, ConnectivityParams(presence_prob=0.0)) == 1.0
    assert in_range_probability(m, ConnectivityParams(), upper=0.0) == 1.0


def test_in_range_probability_half_mass():
    # standard normal centred at zero restricted to p >= 0 holds half the mass
    m = MobilityModel.standard_normal(connect_range=50.0, radio_range=300.0, mean_range=300.0)
    value = in_range_probability(m, ConnectivityParams(presence_prob=1.0))
    assert math.isclose(value, 0.5, abs_tol=1e-9)


def test_in_range_probability_matches_midpoint_oracle():
    rng = np.random.default_rng(11)
    for _ in range(5):
        m = model(
            connect_range=float(rng.uniform(50, 500)),
            mean_range=float(rng.uniform(50, 400)),
            range_stddev=float(rng.uniform(5, 150)),
        )
        c = ConnectivityParams(presence_prob=float(rng.uniform(0, 1)))
        n = 1_000_000
        xs = (np.arange(n) + 0.5) * (m.connect_range / n)
        z = (xs - m.mean_range) / m.range_stddev
        pdf = np.exp(-0.5 * z * z) / (m.range_stddev * math.sqrt(2 * math.pi))
        oracle = 1.0 - c.presence_prob * float(pdf.sum()) * m.connect_range / n
        assert abs(in_range_probability(m, c) - oracle) < 1e-6


def test_in_range_probability_monotone_in_range_and_presence():
    ranges = [50.0, 150.0, 300.0, 500.0, 800.0]
    values = [
        in_range_probability(model(connect_range=r), ConnectivityParams(presence_prob=1.0))
        for r in ranges
    ]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    presences = [0.0, 0.3, 0.7, 1.0]
    values = [
        in_range_probability(model(), ConnectivityParams(presence_prob=pc))
        for pc in presences
    ]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_in_range_probability_rejects_bad_density():
    # density mass > 1 pushes the probability below -1e-12
    m = model(density=lambda p: 2.0 / 500.0)
    with pytest.raises(ValueError):
        in_range_probability(m, ConnectivityParams(presence_prob=1.0))


def test_transfer_function_values():
    m = MobilityModel.standard_normal(connect_range=50.0, radio_range=300.0, mean_range=300.0)
    c = ConnectivityParams(presence_prob=1.0, receiver_prob=1.0)
    single = transfer_function(m, c, clusters=1, vehicles=1, apps=1)
    assert math.isclose(single, 0.5, abs_tol=1e-9)
    bulk = transfer_function(m, c, clusters=5, vehicles=10, apps=10)
    assert math.isclose(bulk, 250.0, abs_tol=1e-6)
    zero = transfer_function(
        m, ConnectivityParams(receiver_prob=0.0), clusters=5, vehicles=10, apps=10
    )
    assert zero == 0.0


def test_transfer_function_linear_in_counts():
    m = model()
    c = ConnectivityParams(receiver_prob=0.8)
    one = transfer_function(m, c, 1, 1, 1)
    assert math.isclose(transfer_function(m, c, 4, 1, 1), 4 * one, rel_tol=1e-12)
    assert math.isclose(transfer_function(m, c, 1, 7, 1), 7 * one, rel_tol=1e-12)
    assert math.isclose(transfer_function(m, c, 1, 1, 9), 9 * one, rel_tol=1e-12)


def test_check_constraints_all_satisfied():
    m = model()
    c = ConnectivityParams(threshold_prob=0.0)
    cs = ConstraintSet(op_time=10.0, stay_time=10.0, request_bound=1.0, transfer_error=0.0)
    report = check_constraints(cs, m, c)
    assert report.satisfied
    assert report.transfer_error_integral == 0.0


def test_check_constraints_request_rate_violation():
    # stay 5 of 10 caps the admissible request rate at 0.5
    cs = ConstraintSet(op_time=10.0, stay_time=5.0, request_bound=0.6)
    report = check_constraints(cs, model(), ConnectivityParams())
    assert not report.request_rate_ok
    assert report.stay_time_ok


def test_check_constraints_threshold_violation():
    m = MobilityModel.standard_normal(connect_range=50.0, radio_range=300.0, mean_range=300.0)
    c = ConnectivityParams(presence_prob=1.0, threshold_prob=1.0)
    cs = ConstraintSet(op_time=10.0, stay_time=10.0, request_bound=0.5)
    report = check_constraints(cs, m, c)
    assert not report.threshold_ok
    assert math.isclose(report.in_range_prob, 0.5, abs_tol=1e-9)


def test_check_constraints_is_pure():
    cs = ConstraintSet(op_time=10.0, stay_time=7.0, request_bound=0.5)
    a = check_constraints(cs, model(), ConnectivityParams())
    b = check_constraints(cs, model(), ConnectivityParams())
    assert a == b


def test_transfer_error_schedule_integral():
    cs = ConstraintSet(
        op_time=10.0,
        stay_time=10.0,
        request_bound=0.5,
        transfer_error=((0.0, 0.2), (4.0, 0.5)),
    )
    # 0.2 over [0, 4) then 0.5 over [4, 10): 0.8 + 3.0
    assert math.isclose(cs.error_integral(10.0), 3.8, rel_tol=1e-12)
    report = check_constraints(cs, model(), ConnectivityParams(presence_prob=1.0))
    expected = report.in_range_prob * 500.0 * 3.8
    assert math.isclose(report.transfer_error_integral, expected, rel_tol=1e-12)


def test_model_validation():
    with pytest.raises(ValueError):
        model(connect_range=0.0)
    with pytest.raises(ValueError):
        ConnectivityParams(presence_prob=1.5)
    with pytest.raises(ValueError):
        ConstraintSet(op_time=0.0, stay_time=1.0, request_bound=0.1)
