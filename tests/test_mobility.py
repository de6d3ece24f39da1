import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetchain.mobility import (
    ConnectivityParams,
    ConstraintSet,
    MobilityModel,
    check_constraints,
    gaussian_mass,
    in_range_probability,
)
from fleetchain.sim import SimConfig


def model(**overrides) -> MobilityModel:
    base = dict(connect_range=500.0, radio_range=300.0, mean_range=300.0, range_stddev=50.0)
    base.update(overrides)
    return MobilityModel(**base)


def half_mass_model() -> MobilityModel:
    # N(300, 1) cut at its mean: [0, 300] holds half the mass.
    return model(connect_range=300.0, range_stddev=1.0)


def exact_mass(lo: float, hi: float, mean: float, sd: float) -> float:
    """The Gaussian mass of [lo, hi] at 50 digits, mirrored onto the upper
    tail so that no difference of two numbers near 2 is taken."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        s = mpmath.sqrt(2) * mpmath.mpf(sd)
        a = (mpmath.mpf(lo) - mpmath.mpf(mean)) / s
        b = (mpmath.mpf(hi) - mpmath.mpf(mean)) / s
        if a + b < 0:
            a, b = -b, -a
        return float((mpmath.erfc(a) - mpmath.erfc(b)) / 2)


# Interval ends lie up to 40 sd from the mean, past the 38 sd where erfc
# underflows; a mass above 1e-300 (ends within about 37 sd) is held to a
# relative 1e-9. An interval is at least 1e-3 sd wide, so rounding its ends
# costs no more than about 1e-11 of relative precision.
MEANS = st.floats(-1e3, 1e3)
SDS = st.floats(1e-3, 1e3)
ENDS = st.floats(-40.0, 40.0)
WIDTHS = st.floats(1e-3, 80.0)


@settings(max_examples=300, deadline=None)
@given(MEANS, SDS, ENDS, WIDTHS, st.floats(0.0, 1.0))
def test_gaussian_mass_matches_50_digit_reference(mean, sd, z, width, cut):
    lo, hi = mean + sd * z, mean + sd * (z + width)
    value = gaussian_mass(lo, hi, mean, sd)
    assert 0.0 <= value <= 1.0
    assert math.isclose(value, exact_mass(lo, hi, mean, sd), rel_tol=1e-9, abs_tol=1e-300)
    mid = lo + (hi - lo) * cut
    parts = gaussian_mass(lo, mid, mean, sd) + gaussian_mass(mid, hi, mean, sd)
    assert math.isclose(parts, value, rel_tol=1e-9, abs_tol=1e-300)
    assert gaussian_mass(hi, lo, mean, sd) == 0.0
    assert gaussian_mass(lo, lo, mean, sd) == 0.0


def test_reference_config_range_holds_all_mass():
    # N(300, 1) lies wholly inside [0, 500]; the adaptive Simpson rule that
    # computed this mass before missed the peak and reported 1.0.
    cfg = SimConfig()
    report = check_constraints(cfg.constraint_set(), cfg.mobility(), cfg.connectivity())
    assert report.in_range_prob == 0.0


def test_in_range_probability_trivial_cases():
    m = model()
    assert in_range_probability(m, ConnectivityParams(presence_prob=0.0)) == 1.0


def test_in_range_probability_half_mass():
    m = half_mass_model()
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


def test_check_constraints_all_satisfied():
    m = model()
    c = ConnectivityParams(threshold_prob=0.0)
    cs = ConstraintSet(op_time=10.0, stay_time=10.0, request_bound=1.0)
    report = check_constraints(cs, m, c)
    assert report.satisfied


def test_check_constraints_request_rate_violation():
    # stay 5 of 10 caps the admissible request rate at 0.5
    cs = ConstraintSet(op_time=10.0, stay_time=5.0, request_bound=0.6)
    report = check_constraints(cs, model(), ConnectivityParams())
    assert not report.request_rate_ok
    assert report.stay_time_ok


def test_check_constraints_threshold_violation():
    m = half_mass_model()
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


def test_model_validation():
    with pytest.raises(ValueError):
        model(connect_range=0.0)
    with pytest.raises(ValueError):
        ConnectivityParams(presence_prob=1.5)
    with pytest.raises(ValueError):
        ConstraintSet(op_time=0.0, stay_time=1.0, request_bound=0.1)
