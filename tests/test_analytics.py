import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from fleetchain.analytics import (
    DecayParams,
    GaussianRate,
    InfeasibleRateError,
    TxCountParams,
    conservation_factor,
    energy_decay,
    energy_decay_at_rates,
    energy_decay_synchronized,
    estimate_synchronized_rate,
    invert_rate,
    peak_frequency,
    rate_frequency,
    transaction_count,
)


def decay_params(**overrides) -> DecayParams:
    base = dict(
        rate1=GaussianRate.at_peak(1.0, 1.0),
        rate2=GaussianRate.at_peak(1.0, 1.0),
        initial_energy=1.0,
        app_count=1,
        horizon=1.0,
    )
    base.update(overrides)
    return DecayParams(**base)


def tx_params(**overrides) -> TxCountParams:
    base = dict(
        cluster_count=1,
        links_per_ledger=1,
        request_rate=1.0,
        presence=1.0,
        horizon=1.0,
        parallel_links=1,
        mean_range=1.0,
        radio_range=1.0,
        range_stddev=1.0,
    )
    base.update(overrides)
    return TxCountParams(**base)


# --- rate inversion -------------------------------------------------------

def test_invert_rate_unit_example():
    f = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
    g = GaussianRate(mean=0.0, stddev=1.0, frequency=f)
    assert math.isclose(invert_rate(g), 1.0, abs_tol=1e-12)


def test_invert_rate_at_peak_returns_mean():
    g = GaussianRate.at_peak(3.5, 0.7)
    assert math.isclose(invert_rate(g), 3.5, abs_tol=1e-7)


def test_invert_rate_roundtrip_identity():
    rng = np.random.default_rng(101)
    for _ in range(200):
        mean = rng.uniform(0.0, 10.0)
        stddev = rng.uniform(0.05, 5.0)
        lam = mean + rng.uniform(0.0, 5.0 * stddev)
        g = GaussianRate.at_rate(mean, stddev, lam)
        assert abs(invert_rate(g) - lam) < 1e-9


def test_frequency_above_peak_rejected():
    with pytest.raises(InfeasibleRateError):
        GaussianRate(mean=0.0, stddev=1.0, frequency=1.0)  # peak is ~0.3989
    assert rate_frequency(0.0, 1.0, 0.0) == pytest.approx(peak_frequency(1.0))


# --- energy decay ---------------------------------------------------------

def test_energy_decay_zero_horizon():
    assert energy_decay(decay_params(horizon=0.0)) == 0.0


def test_energy_decay_at_peak_rates():
    # both rates at their means of 1 -> exponent 2
    value = energy_decay(decay_params())
    assert math.isclose(value, (1.0 - math.exp(-2.0)) / 2.0, rel_tol=1e-12)


def test_energy_decay_zero_rate_limit():
    p = decay_params(
        rate1=GaussianRate.at_peak(0.0, 1.0),
        rate2=GaussianRate.at_peak(0.0, 2.0),
        initial_energy=6.0,
        app_count=3,
        horizon=4.0,
    )
    assert energy_decay(p) == 8.0  # (B0/apps) * tau


def test_energy_decay_matches_quadrature_grid():
    rng = np.random.default_rng(202)
    for _ in range(100):
        def rate():
            mean = rng.uniform(0.0, 5.0)
            stddev = rng.uniform(0.1, 3.0)
            return GaussianRate(mean, stddev, rng.uniform(1e-6, 1.0) * peak_frequency(stddev))

        p = DecayParams(
            rate1=rate(),
            rate2=rate(),
            initial_energy=rng.uniform(1.0, 1e6),
            app_count=int(rng.integers(1, 21)),
            horizon=rng.uniform(0.01, 50.0),
        )
        lam = invert_rate(p.rate1) + invert_rate(p.rate2)
        oracle, _ = integrate.quad(
            lambda t: math.exp(-lam * t), 0.0, p.horizon, epsabs=1e-14, epsrel=1e-13
        )
        oracle *= p.initial_energy / p.app_count
        assert abs(energy_decay(p) - oracle) <= 1e-9 * abs(oracle)


def test_energy_decay_monotone_and_bounded():
    horizons = [0.5, 1.0, 2.0, 5.0, 20.0]
    values = [energy_decay(decay_params(horizon=h)) for h in horizons]
    assert all(b > a for a, b in zip(values, values[1:]))
    budgets = [1.0, 2.0, 5.0]
    values = [energy_decay(decay_params(initial_energy=b)) for b in budgets]
    assert all(b > a for a, b in zip(values, values[1:]))
    p = decay_params(horizon=1e9)
    lam = invert_rate(p.rate1) + invert_rate(p.rate2)
    assert energy_decay(p) <= p.initial_energy / (p.app_count * lam) + 1e-12


def test_energy_decay_small_exponent_approaches_linear():
    p = decay_params(
        rate1=GaussianRate.at_peak(1e-7, 1.0),
        rate2=GaussianRate.at_peak(1e-7, 1.0),
        horizon=0.5,
    )
    assert math.isclose(energy_decay(p), 0.5, rel_tol=1e-6)


# --- synchronized decay ---------------------------------------------------

def test_synchronized_rates_collapse_to_mean():
    s1, s2, mean1 = 1.3, 0.8, 2.0
    p = decay_params(
        rate1=GaussianRate.at_peak(mean1, s1),
        rate2=GaussianRate.at_peak(mean1, s2),
        horizon=1.5,
    )
    f1 = 1.0 / (2.0 * math.pi * s1 * s2)  # makes the log term vanish
    assert math.isclose(estimate_synchronized_rate(p, mean1, f1), mean1, abs_tol=1e-12)
    value = energy_decay_synchronized(p, mean1, f1)
    expected = (1.0 - math.exp(-2.0 * mean1 * 1.5)) / (2.0 * mean1)
    assert math.isclose(value, expected, rel_tol=1e-12)


def test_synchronized_zero_horizon():
    p = decay_params(horizon=0.0)
    f1 = 1.0 / (2.0 * math.pi)
    assert energy_decay_synchronized(p, 1.0, f1) == 0.0


def test_synchronized_matches_quadrature_and_substitution():
    rng = np.random.default_rng(303)
    for _ in range(100):
        s1 = rng.uniform(0.2, 3.0)
        s2 = rng.uniform(0.2, 3.0)
        mean1 = rng.uniform(0.0, 3.0)
        lam1 = mean1 + rng.uniform(0.0, 2.0 * s1)
        bound = math.exp(-0.5 * ((lam1 - mean1) / s1) ** 2) / (2.0 * math.pi * s1 * s2)
        f1 = rng.uniform(1e-6, 1.0) * bound
        p = DecayParams(
            rate1=GaussianRate.at_rate(mean1, s1, lam1),
            rate2=GaussianRate.at_peak(mean1, s2),
            initial_energy=rng.uniform(1.0, 1e5),
            app_count=int(rng.integers(1, 11)),
            horizon=rng.uniform(0.01, 20.0),
        )
        lam2 = estimate_synchronized_rate(p, lam1, f1)
        closed = energy_decay_synchronized(p, lam1, f1)
        assert math.isclose(closed, energy_decay_at_rates(p, lam2, lam2), rel_tol=1e-9)
        oracle, _ = integrate.quad(
            lambda t: math.exp(-2.0 * lam2 * t), 0.0, p.horizon, epsabs=1e-14, epsrel=1e-13
        )
        oracle *= p.initial_energy / p.app_count
        assert abs(closed - oracle) <= 1e-9 * abs(oracle)


def test_synchronized_infeasible_radicand():
    p = decay_params()
    # frequency far above the attainable joint density
    with pytest.raises(InfeasibleRateError):
        estimate_synchronized_rate(p, 5.0, 10.0)


# --- transaction ceiling --------------------------------------------------

def test_transaction_count_zero_rate():
    assert transaction_count(tx_params(request_rate=0.0)) == 0


def test_transaction_count_vanishes_with_horizon():
    assert transaction_count(tx_params(horizon=1e-9)) == 1  # ceil of tiny positive
    assert transaction_count(tx_params(request_rate=0.0, horizon=1e-9)) == 0


def test_transaction_count_worked_example():
    value = transaction_count(tx_params())
    inner = math.erf(1.0 / math.sqrt(2.0)) / 4.0
    assert math.ceil(inner) == 1
    assert value == 1


def test_transaction_count_variants_differ():
    p = tx_params(
        cluster_count=5, request_rate=2.0, horizon=10.0, mean_range=300.0,
        radio_range=300.0, range_stddev=40.0,
    )
    derived = transaction_count(replace(p, variant="as-derived"))
    printed = transaction_count(replace(p, variant="as-printed"))
    assert derived != printed


def test_transaction_count_monotonicity():
    base = tx_params(request_rate=1.0, horizon=5.0, presence=0.5, parallel_links=2)
    for field, values in (
        ("request_rate", [0.5, 1.0, 2.0, 4.0]),
        ("horizon", [1.0, 2.0, 5.0, 10.0]),
        ("presence", [0.1, 0.4, 0.7, 1.0]),
    ):
        counts = [transaction_count(replace(base, **{field: v})) for v in values]
        assert all(b >= a for a, b in zip(counts, counts[1:])), field
    counts = [transaction_count(replace(base, parallel_links=d)) for d in (1, 2, 4, 8)]
    assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_transaction_count_validity_region():
    with pytest.raises(ValueError):
        transaction_count(tx_params(horizon=0.0))
    with pytest.raises(ValueError):
        transaction_count(tx_params(mean_range=0.0))
    with pytest.raises(ValueError):
        transaction_count(tx_params(radio_range=-1.0))


@pytest.mark.parametrize("overrides, variant", [
    ({"request_rate": 1e308, "horizon": 100.0}, "as-derived"),
    ({"range_stddev": 5e-324}, "as-printed"),  # the as-printed denominator holds the deviation
])
def test_transaction_count_rejects_an_infinite_ceiling(overrides, variant):
    # Both ended in `math.ceil(inf)`, an OverflowError.
    with pytest.raises(ValueError, match="not finite"):
        transaction_count(tx_params(variant=variant, **overrides))


def test_transaction_count_matches_ceil_of_double_integral():
    rng = np.random.default_rng(404)
    for _ in range(50):
        p = tx_params(
            cluster_count=int(rng.integers(1, 7)),
            links_per_ledger=int(rng.integers(1, 5)),
            request_rate=float(rng.uniform(0.1, 5.0)),
            presence=float(rng.uniform(0.1, 1.0)),
            horizon=float(rng.uniform(1.0, 100.0)),
            parallel_links=int(rng.integers(1, 5)),
            mean_range=float(rng.uniform(10.0, 500.0)),
            radio_range=float(rng.uniform(10.0, 500.0)),
            range_stddev=float(rng.uniform(1.0, 200.0)),
        )
        total_rate = p.total_rate()

        def integrand(x, t):
            z = (x - p.mean_range) / p.range_stddev
            f = math.exp(-0.5 * z * z) / (p.range_stddev * math.sqrt(2 * math.pi))
            return f * p.presence * total_rate * t / p.parallel_links

        oracle, _ = integrate.dblquad(
            integrand, 0.0, p.horizon, 0.0, p.radio_range, epsabs=1e-11, epsrel=1e-12
        )
        assert transaction_count(p) == math.ceil(oracle)


# --- conservation factor --------------------------------------------------

def test_conservation_factor_rate_share():
    r1 = GaussianRate.at_rate(0.0, 1.0, 1.0)
    r2 = GaussianRate.at_rate(0.0, 1.0, 2.0)
    assert math.isclose(conservation_factor(r1, r2), 1.0 / 3.0, rel_tol=1e-12)
    zero = GaussianRate.at_peak(0.0, 1.0)
    assert conservation_factor(zero, zero) == 0.0


def test_energy_decay_at_rates_rejects_negative():
    with pytest.raises(ValueError):
        energy_decay_at_rates(decay_params(), -1.0, 2.0)
