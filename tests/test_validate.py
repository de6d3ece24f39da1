"""The validation oracles: the single-quadrature load-model oracle against the
double integral it replaces, the allocation-free midpoint rule against the
plain expression, and golden digests of whole `fleetchain validate` reports.

The report digests were taken with the double-integral oracle and the plain
midpoint rule. A digest that no longer matches means the report changed; it
is never to be regenerated to make this test pass.
"""

import hashlib
import math

import numpy as np
import pytest
from scipy import integrate

import fleetchain.validate as validate
from fleetchain.analytics import TxCountParams, transaction_count
from fleetchain.cli import main
from fleetchain.mobility import MobilityModel
from fleetchain.validate import MIDPOINTS, midpoint_range_mass, run_validation, tx_oracle


def dblquad_load(p: TxCountParams) -> float:
    """The load model as a double integral over range x and time t."""
    total_rate = p.total_rate()

    def integrand(x, t):
        z = (x - p.mean_range) / p.range_stddev
        f = math.exp(-0.5 * z * z) / (p.range_stddev * math.sqrt(2.0 * math.pi))
        return f * p.presence * total_rate * t / p.parallel_links

    value, _ = integrate.dblquad(
        integrand, 0.0, p.horizon, 0.0, p.radio_range, epsabs=1e-11, epsrel=1e-12
    )
    return value


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
    assert dblquad_load(p) == 0.0
    assert transaction_count(p) == 1
    assert tx_oracle(p) > 0.0
    assert math.ceil(tx_oracle(p)) == 1


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
    assert [c.total for c in report.checks] == [20, 20, 200, 40, 1]


VALIDATE_GOLDEN = {
    20240: "a5adb3e031bfae5c2b479c3018ede41d62264a8ede510826c6eaef820ac19b73",
    1: "0bed7a489e0aaef47c7eda0f4e0040c84ca45f13d9e5978d331ae4aa7fd148af",
    2: "c1286f499dfef8a97f8e02976bc3b1e3f51d474f688ed787a6c90c5c94483d52",
}


@pytest.mark.parametrize("seed", sorted(VALIDATE_GOLDEN))
def test_validate_report_digests(seed, capsys):
    assert main(["validate", "--grid", "300", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VALIDATE_GOLDEN[seed]
