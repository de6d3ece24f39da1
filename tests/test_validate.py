"""The validation oracles: the single-quadrature load-model oracle against the
double integral it replaces, the allocation-free midpoint rule against the
plain expression, and golden digests of whole `fleetchain validate` reports.

The report digests were retaken when the in-range check gained its
narrow-density quadrature draws and a positive load got a ceiling of at
least 1, where the old range mass and an underflowing load were wrong. A
digest that no longer matches means the report changed; it is never to be
regenerated to make this test pass.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

import fleetchain.validate as validate
from fleetchain.analytics import TxCountParams, transaction_count
from fleetchain.cli import main
from fleetchain.mobility import MobilityModel, gaussian_mass
from fleetchain.sim import SimConfig
from fleetchain.validate import MIDPOINTS, midpoint_range_mass, run_validation, tx_oracle


def dblquad_load(p: TxCountParams) -> float:
    """The load model as a double integral over range x and time t.

    The integrand is divided by its peak on [0, radio_range] and the
    integral multiplied back, so a deep-tail load does not underflow to 0.0;
    a positive load below the smallest positive float reads as that float.
    """
    total_rate = p.total_rate()
    z_peak = (min(p.mean_range, p.radio_range) - p.mean_range) / p.range_stddev

    def integrand(x, t):
        z = (x - p.mean_range) / p.range_stddev
        f = math.exp(0.5 * (z_peak * z_peak - z * z)) / (p.range_stddev * math.sqrt(2.0 * math.pi))
        return f * p.presence * total_rate * t / p.parallel_links

    value, _ = integrate.dblquad(
        integrand, 0.0, p.horizon, 0.0, p.radio_range, epsabs=1e-11, epsrel=1e-12
    )
    if value <= 0.0:
        return value
    return max(value * math.exp(-0.5 * z_peak * z_peak), math.ulp(0.0))


def random_tx_params(rng: np.random.Generator) -> TxCountParams:
    return TxCountParams(
        cluster_count=int(rng.integers(1, 7)),
        links_per_ledger=int(rng.integers(1, 5)),
        request_rate=rng.uniform(0.1, 5.0),
        presence=rng.uniform(0.1, 1.0),
        horizon=rng.uniform(1.0, 100.0),
        parallel_links=int(rng.integers(1, 5)),
        mean_range=rng.uniform(10.0, 500.0),
        radio_range=rng.uniform(10.0, 500.0),
        range_stddev=rng.uniform(1.0, 200.0),
    )


def test_tx_oracle_matches_double_integral():
    rng = np.random.default_rng(4)
    for _ in range(200):
        p = random_tx_params(rng)
        reference = dblquad_load(p)
        value = tx_oracle(p)
        assert abs(value - reference) <= 1e-9 * max(1.0, reference), p
        assert math.ceil(value) == math.ceil(reference), p


def test_tx_oracle_keeps_a_deep_tail_load_positive():
    # From `fleetchain validate --grid 300 --seed 2145884759`: the radio range
    # ends 38 deviations below the mean, so the load is a subnormal float,
    # about 4e-319.
    p = TxCountParams(
        cluster_count=4,
        links_per_ledger=3,
        request_rate=1.681354694613067,
        presence=0.43402184926169995,
        horizon=53.966035494373074,
        parallel_links=1,
        mean_range=481.88216427592505,
        radio_range=261.44641724178007,
        range_stddev=5.738034754421138,
    )
    assert math.ceil(dblquad_load(p)) == 1
    assert transaction_count(p) == 1
    assert tx_oracle(p) > 0.0
    assert math.ceil(tx_oracle(p)) == 1


DEEP_TAIL_LOADS = [
    # From `fleetchain validate --grid 300` in the oracle-validate benchmark:
    # the radio range ends 38.4 deviations below the mean, and the quadrature
    # of the unscaled integrand read 0.0.
    TxCountParams(
        cluster_count=5,
        links_per_ledger=1,
        request_rate=1.9233758773090175,
        presence=0.345031346781669,
        horizon=7.184039032992367,
        parallel_links=1,
        mean_range=443.0439723923801,
        radio_range=342.85289660119764,
        range_stddev=2.6058927972260104,
    ),
    # 490 deviations: the load, below 1e-52000, lies below every float.
    TxCountParams(
        cluster_count=1,
        links_per_ledger=1,
        request_rate=1.0,
        presence=1.0,
        horizon=1.0,
        parallel_links=1,
        mean_range=500.0,
        radio_range=10.0,
        range_stddev=1.0,
    ),
]


@pytest.mark.parametrize("p", DEEP_TAIL_LOADS, ids=["38-sd", "490-sd"])
def test_deep_tail_load_needs_one_transaction(p):
    assert transaction_count(p) == 1
    assert transaction_count(replace(p, variant="as-printed")) == 1
    assert math.ceil(tx_oracle(p)) == 1
    assert math.ceil(dblquad_load(p)) == 1
    assert transaction_count(replace(p, request_rate=0.0)) == 0
    assert tx_oracle(replace(p, request_rate=0.0)) == 0.0


def test_tx_oracle_with_a_peak_density_below_the_float_range():
    # The radio range ends 1e300 deviations below the mean: the log of the
    # peak density is -inf, and the integrand read exp(-inf - (-inf)), NaN.
    p = replace(DEEP_TAIL_LOADS[1], mean_range=1e300)
    assert tx_oracle(p) == math.ulp(0.0)
    assert math.ceil(tx_oracle(p)) == transaction_count(p) == 1
    assert tx_oracle(replace(p, request_rate=0.0)) == 0.0


def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def narrow_tx_params(draw) -> TxCountParams:
    """Densities down to 1e-6 of their mean wide, over radio ranges far past
    the mean or within 40 deviations of it."""
    mean = draw(log_uniform(1.0, 1e6))
    sd = draw(log_uniform(1e-3, 1e3))
    assume(sd >= 1e-6 * mean)
    radio = draw(st.one_of(log_uniform(1.0, 1e8),
                           st.floats(-40.0, 40.0).map(lambda k: mean + k * sd)))
    assume(radio > 0.0)
    return TxCountParams(
        cluster_count=draw(st.integers(1, 6)),
        links_per_ledger=draw(st.integers(1, 4)),
        request_rate=draw(st.floats(0.1, 5.0)),
        presence=draw(st.floats(0.1, 1.0)),
        horizon=draw(st.floats(1.0, 100.0)),
        parallel_links=draw(st.integers(1, 4)),
        mean_range=mean,
        radio_range=radio,
        range_stddev=sd,
    )


@settings(max_examples=300, deadline=None)
@given(narrow_tx_params())
def test_tx_oracle_matches_the_load_on_narrow_densities(p):
    # Before the oracle's window, one quadrature over [0, radio_range] never
    # sampled a narrow peak and read 0 for a positive load.
    scale = p.presence * p.total_rate() * (p.horizon * p.horizon / 2.0) / p.parallel_links
    load = scale * gaussian_mass(0.0, p.radio_range, p.mean_range, p.range_stddev)
    value = tx_oracle(p)
    if load >= 1e-290:
        assert abs(value - load) <= 1e-8 * load
    if load > 0.0:
        assert value > 0.0


@pytest.mark.parametrize("params, ceiling", [
    ({"range_stddev": 0.1, "radio_range": 500.0}, 200),
    ({"mean_range": 1e6, "range_stddev": 0.5}, 1),
])
def test_tx_oracle_ceiling_on_a_narrow_density(params, ceiling):
    # The oracle read 0 for both on the 2 x 3 vehicle, 10-slot base.
    p = SimConfig(cluster_count=2, vehicles_per_cluster=3, horizon=10.0, **params).tx_count_params()
    assert math.ceil(tx_oracle(p)) == transaction_count(p) == ceiling


def test_a_nan_error_fails_its_check(monkeypatch):
    monkeypatch.setattr(validate, "decay_oracle", lambda p: math.nan)
    report = run_validation(grid=5)
    assert not report.passed
    decay = report.checks[0]
    assert decay.failures == decay.total == 5
    assert math.isnan(decay.worst_error)


def test_midpoint_rule_in_place_is_bit_identical():
    rng = np.random.default_rng(9)
    nodes = np.arange(MIDPOINTS) + 0.5
    buf = np.empty(MIDPOINTS)
    for _ in range(50):
        m = MobilityModel(
            connect_range=rng.uniform(10.0, 500.0),
            radio_range=rng.uniform(10.0, 500.0),
            mean_range=rng.uniform(10.0, 500.0),
            range_stddev=rng.uniform(1.0, 200.0),
        )
        xs = (np.arange(MIDPOINTS) + 0.5) * (m.connect_range / MIDPOINTS)
        z = (xs - m.mean_range) / m.range_stddev
        pdf = np.exp(-0.5 * z * z) / (m.range_stddev * math.sqrt(2.0 * math.pi))
        plain = float(pdf.sum() * m.connect_range / MIDPOINTS)
        assert midpoint_range_mass(m, nodes, buf) == plain, m


def test_validation_runs_without_double_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dblquad called")

    monkeypatch.setattr(validate.integrate, "dblquad", refuse)
    report = run_validation(grid=20)
    assert [c.total for c in report.checks] == [20, 20, 200, 40, 11]


VALIDATE_GOLDEN = {
    20240: "2137da8ff82cb9275d2f06b1b713120f812e422361df928a41181880029d71a3",
    1: "744d757bbeb61115075ecaf9b7e27cf6570b33c238e0219c983f021600234bf6",
    2: "f47412c5e5c68b5e378242454da81dc57ac5d08b763f5b9d26363af3ddd71262",
}


@pytest.mark.parametrize("seed", sorted(VALIDATE_GOLDEN))
def test_validate_report_digests(seed, capsys):
    assert main(["validate", "--grid", "300", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VALIDATE_GOLDEN[seed]
