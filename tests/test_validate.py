"""The validation oracles: the single-quadrature load-model oracle against the
double integral it replaces, the quadrature helper against `scipy.integrate.quad`,
the windowed midpoint rule, summed leaf by leaf along numpy's pairwise tree,
against the plain expression, the chunked and scalar uniform draws against
`rng.uniform` calls, and golden digests of whole `fleetchain validate` reports.

The report digests were retaken when the in-range check gained its
narrow-density quadrature draws and a positive load got a ceiling of at
least 1, where the old range mass and an underflowing load were wrong. A
digest that no longer matches means the report changed; it is never to be
regenerated to make this test pass.
"""

import functools
import hashlib
import importlib.machinery
import itertools
import math
import sys
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.integrate import IntegrationWarning

import fleetchain.validate as validate
from fleetchain.analytics import (
    DecayParams,
    GaussianRate,
    TxCountParams,
    energy_decay,
    energy_decay_at_rates,
    energy_decay_synchronized,
    estimate_synchronized_rate,
    invert_rate,
    peak_frequency,
    rate_frequency,
    transaction_count,
)
from fleetchain.cli import main
from fleetchain.mobility import (
    ConnectivityParams,
    MobilityModel,
    gaussian_mass,
    in_range_probability,
)
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
    assert transaction_count(p, "as-printed") == 1
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
        assert midpoint_range_mass(m, MIDPOINTS) == plain, m


def plain_midpoint(m: MobilityModel, n: int) -> tuple[np.ndarray, float]:
    """The densities at every midpoint, and the rule's value, as the plain
    full-array expression gives them."""
    xs = (np.arange(n) + 0.5) * (m.connect_range / n)
    with np.errstate(over="ignore"):  # |z| beyond the float range reads inf
        z = (xs - m.mean_range) / m.range_stddev
        pdf = np.exp(-0.5 * z * z) / (m.range_stddev * math.sqrt(2.0 * math.pi))
    return pdf, float(pdf.sum() * m.connect_range / n)


def tree_leaves(n: int, leaf: int) -> list[tuple[int, int]]:
    """(start, size) of each leaf of the pairwise tree over n elements, in order."""
    leaves = []

    def record(start, size):
        leaves.append((start, size))
        return 0.0

    validate._pairwise_sum(record, 0, n, leaf)
    return leaves


def assert_windowed_midpoint_is_plain(m: MobilityModel, n: int = MIDPOINTS):
    nodes = validate._MidpointNodes(m, n)
    buf = np.full(n, np.nan)  # a node no leaf fills stays NaN and fails the comparison
    for start, size in tree_leaves(n, nodes.leaf):
        assert size <= nodes.leaf
        nodes.fill(start, buf[start:start + size])
    pdf, plain = plain_midpoint(m, n)
    assert np.array_equal(buf, pdf), m
    assert midpoint_range_mass(m, n) == plain, m


@pytest.mark.parametrize("log_sd", np.linspace(-3.0, 1.0, 9))
def test_windowed_midpoint_on_narrow_densities(log_sd):
    # sd 1e-3 to 10 over ranges of 10 to 500: most nodes lie beyond the window.
    rng = np.random.default_rng(17)
    for _ in range(3):
        r = rng.uniform(10.0, 500.0)
        m = MobilityModel(connect_range=r, radio_range=r, mean_range=rng.uniform(0.01, r),
                          range_stddev=10.0**log_sd)
        assert_windowed_midpoint_is_plain(m)


@pytest.mark.parametrize("mean, sd, r", [
    (1e6, 1.0, 100.0),      # every node lies far below the mean: all 0
    (1e-3, 1e-3, 100.0),    # the window is clipped at node 0
    (0.5e-4, 0.5, 100.0),   # a wide density clipped at node 0
    (100.0, 1e-3, 100.0),   # the window is clipped at node n - 1
    (99.99995, 1e-9, 100.0),  # the window holds one node, n - 1
    (50.0, 1e4, 100.0),     # the window covers every node
    (1e300, 1.0, 1e-300),   # z overflows to -inf on every node
    (1e300, 1e-300, 1e-300),
    (1e-300, 1e-300, 1e300),  # z overflows to +inf on every node
    (1.0, 1e300, 1e-300),
    (1.0, 1e308, 1.0),      # sd * sqrt(2 pi) overflows: every density is 0
    (1e308, 1e306, 1.7e308),
])
def test_windowed_midpoint_at_the_edges(mean, sd, r):
    assert_windowed_midpoint_is_plain(
        MobilityModel(connect_range=r, radio_range=r, mean_range=mean, range_stddev=sd)
    )


@pytest.mark.parametrize("n", [1, 2, 7])
def test_windowed_midpoint_on_few_nodes(n):
    for mean in (1e-9, 0.3, 0.5, 0.7, 1.0, 1e9):
        for sd in (1e-12, 1e-3, 0.05, 1.0):
            m = MobilityModel(connect_range=1.0, radio_range=1.0, mean_range=mean,
                              range_stddev=sd)
            assert_windowed_midpoint_is_plain(m, n)


@settings(max_examples=60, deadline=None)
@given(log_uniform(1e-300, 1e300), log_uniform(1e-300, 1e300), log_uniform(1e-300, 1e300))
def test_windowed_midpoint_over_the_float_range(mean, sd, r):
    assert_windowed_midpoint_is_plain(
        MobilityModel(connect_range=r, radio_range=r, mean_range=mean, range_stddev=sd), 1000
    )


def window_size(m: MobilityModel, n: int) -> int:
    """How many of the n midpoints lie within `MIDPOINT_WINDOW` deviations
    of the mean, where the rule evaluates the density."""
    z = ((np.arange(n) + 0.5) * (m.connect_range / n) - m.mean_range) / m.range_stddev
    return int(np.count_nonzero(np.abs(z) <= validate.MIDPOINT_WINDOW))


@pytest.mark.parametrize("sd, blocks", [
    (1.0, None),      # the window is empty: every node is far below the mean
    (0.01, "one"),    # 7 740 nodes, fewer than a leaf, across the tree's first split
    (1.0, "ragged"),  # 774 000 nodes, which cut their first and last leaves
    (1e4, "ragged"),  # every node
])
def test_windowed_midpoint_block_by_block(sd, blocks):
    mean = 1e6 if blocks is None else 50.0
    m = MobilityModel(connect_range=100.0, radio_range=100.0, mean_range=mean, range_stddev=sd)
    size, block = window_size(m, MIDPOINTS), validate.MIDPOINT_BLOCK
    if blocks is None:
        assert size == 0
    elif blocks == "one":
        assert 0 < size < block
    else:
        assert size > block and size % block != 0
    assert_windowed_midpoint_is_plain(m)


@pytest.mark.parametrize("mean, sd, evaluated", [
    (1e6, 1.0, 0),    # no node in the window
    (50.0, 0.01, 2),  # the two leaves on either side of the first split
    (45.0, 0.01, 1),  # within the leaf of nodes 437 472 to 468 719
    (50.0, 1.0, 26),  # nodes 113 000 to 886 999
    (50.0, 1e4, 32),  # every leaf
])
def test_midpoint_evaluates_only_the_leaves_in_its_window(mean, sd, evaluated, monkeypatch):
    # 10**6 nodes make 32 leaves of 31 248 nodes, the last of 31 256.
    assert len(tree_leaves(MIDPOINTS, validate.MIDPOINT_BLOCK)) == 32
    fill, runs = validate._MidpointNodes.fill, []

    def counted(nodes, start, out):
        runs.append((start, len(out)))
        fill(nodes, start, out)

    monkeypatch.setattr(validate._MidpointNodes, "fill", counted)
    m = MobilityModel(connect_range=100.0, radio_range=100.0, mean_range=mean, range_stddev=sd)
    assert midpoint_range_mass(m) == plain_midpoint(m, MIDPOINTS)[1]
    assert len(runs) == evaluated
    assert set(runs) <= set(tree_leaves(MIDPOINTS, validate.MIDPOINT_BLOCK))


# Lengths from 1 to 2 * 10**6: numpy's unsplit 128 and its neighbours, 10**6,
# lengths that are not multiples of 8, and 12 drawn at random.
PAIRWISE_LENGTHS = [1, 7, 8, 9, 127, 128, 129, 136, 1_000, 1_001, 32_768, 32_769, 65_543,
                    262_147, 999_999, MIDPOINTS, MIDPOINTS + 5, 2 * MIDPOINTS,
                    *np.random.default_rng(29).integers(1, 2 * MIDPOINTS, 12).tolist()]


@pytest.mark.parametrize("n", PAIRWISE_LENGTHS)
def test_pairwise_sum_is_numpy_sum(n):
    # Signs and magnitudes over 60 decades, so that each bit of the result
    # depends on the order of the additions: if numpy changes its summation
    # tree, this fails before the midpoint rule's digests do.
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n) * 10.0 ** rng.uniform(-30.0, 30.0, n)

    def leaf_sum(start, size):
        return float(a[start:start + size].sum())

    want = float(np.add.reduce(a))
    for leaf in (validate.PAIRWISE_BLOCK, 1_000, validate.MIDPOINT_BLOCK):
        assert same_bits(validate._pairwise_sum(leaf_sum, 0, n, leaf), want), (n, leaf)


def test_in_range_check_keeps_no_node_array():
    # The 10**6-node rule held an 8 MB buffer for the whole check.
    validate.check_in_range_probability(1, np.random.default_rng(0))  # QUADPACK loaded
    tracemalloc.start()
    try:
        validate.check_in_range_probability(40, np.random.default_rng(40))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("block", [1, 128, 136, 1000])
def test_windowed_midpoint_in_small_blocks(block, monkeypatch):
    # Leaves of 128 to 1000 nodes, at most 128 for a block of 1, since numpy
    # never splits fewer; over windows of 0 to 7 nodes, and over windows of
    # 4 778 and 12 345 nodes, which most leaves cut.
    monkeypatch.setattr(validate, "MIDPOINT_BLOCK", block)
    for n in (1, 2, 7):
        for mean in (1e-9, 0.3, 0.5, 0.7, 1.0, 1e9):
            for sd in (1e-12, 1e-3, 0.05, 1.0):
                m = MobilityModel(connect_range=1.0, radio_range=1.0, mean_range=mean,
                                  range_stddev=sd)
                assert_windowed_midpoint_is_plain(m, n)
    for sd in (0.5, 2.0):
        m = MobilityModel(connect_range=100.0, radio_range=100.0, mean_range=40.0,
                          range_stddev=sd)
        assert_windowed_midpoint_is_plain(m, 12_345)


def scalar_rate_roundtrip(tolerance: float, grid: int, rng: np.random.Generator):
    """`check_rate_roundtrip` with one `rng.uniform` call per value."""
    errors = []
    for _ in range(grid):
        mean = rng.uniform(0.0, 10.0)
        stddev = rng.uniform(0.05, 5.0)
        lam = mean + rng.uniform(0.0, 5.0 * stddev)
        g = GaussianRate.at_rate(mean, stddev, lam)
        errors.append(abs(invert_rate(g) - lam))
    return validate._result("rate inversion round-trip", errors, tolerance)


def scalar_in_range(grid: int, rng: np.random.Generator):
    """`check_in_range_probability` with one `rng.uniform` call per value and
    the plain full-array midpoint rule."""
    errors = []
    for _ in range(max(1, grid // 20)):
        m = MobilityModel(
            connect_range=rng.uniform(10.0, 500.0),
            radio_range=rng.uniform(10.0, 500.0),
            mean_range=rng.uniform(10.0, 500.0),
            range_stddev=rng.uniform(1.0, 200.0),
        )
        c = ConnectivityParams(presence_prob=rng.uniform(0.0, 1.0))
        mid = 1.0 - c.presence_prob * plain_midpoint(m, MIDPOINTS)[1]
        errors.append(abs(in_range_probability(m, c) - mid))
    for i in range(max(1, grid // 2)):
        sd = 10.0 ** rng.uniform(-1.0, 2.0)
        mean = 10.0 ** rng.uniform(3.0, 6.0)
        r = 10.0 ** rng.uniform(1.0, 23.0) if i % 2 == 0 else mean + sd * rng.uniform(-8.0, 8.0)
        m = MobilityModel(connect_range=r, radio_range=r, mean_range=mean, range_stddev=sd)
        c = ConnectivityParams(presence_prob=rng.uniform(0.0, 1.0))
        quad = 1.0 - c.presence_prob * validate.quad_range_mass(m)
        errors.append(abs(in_range_probability(m, c) - quad))
    return validate._result("in-range probability vs midpoint rule and quadrature", errors, 1e-6)


def primed_pair(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Two generators in one state, each holding the spare 32-bit half that a
    small `integers` draw leaves, as the checks before these ones do."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in pair:
        rng.integers(1, 21)
    assert pair[0].bit_generator.state["has_uint32"] == 1
    return pair


@pytest.mark.parametrize("grid", [-3, 0, 1, 7, 41, validate.DRAW_CHUNK + 1])
def test_rate_roundtrip_draws_the_scalar_stream(grid):
    rng, ref = primed_pair(grid + 5)
    assert validate.check_rate_roundtrip(1e-9, grid, rng) == scalar_rate_roundtrip(1e-9, grid, ref)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("grid, chunk", [(-3, None), (0, None), (1, None), (7, None),
                                         (41, None), (10, 4), (100, 4)])
def test_in_range_draws_the_scalar_stream(grid, chunk, monkeypatch):
    # A chunk of 4 rows puts both loops' draws just past a chunk's end.
    if chunk is not None:
        monkeypatch.setattr(validate, "DRAW_CHUNK", chunk)
    rng, ref = primed_pair(grid + 11)
    assert validate.check_in_range_probability(grid, rng) == scalar_in_range(grid, ref)
    assert rng.bit_generator.state == ref.bit_generator.state


def scalar_decay(tolerance: float, grid: int, rng: np.random.Generator):
    """`check_decay_against_quadrature` with one `rng.uniform` call per value,
    and its oracle's integrand written as `math.exp(-lam * t)`."""
    def rate() -> GaussianRate:
        mean = rng.uniform(0.0, 5.0)
        stddev = rng.uniform(0.1, 3.0)
        f = rng.uniform(1e-6, 1.0) * peak_frequency(stddev)
        return GaussianRate(mean, stddev, f)

    errors = []
    for _ in range(grid):
        p = DecayParams(
            rate1=rate(),
            rate2=rate(),
            initial_energy=rng.uniform(1.0, 1e6),
            app_count=int(rng.integers(1, 21)),
            horizon=rng.uniform(0.01, 50.0),
        )
        lam = invert_rate(p.rate1) + invert_rate(p.rate2)
        value = validate._quad(lambda t: math.exp(-lam * t), 0.0, p.horizon, epsabs=1e-14,
                               epsrel=1e-13)
        oracle = value * (p.initial_energy / p.app_count)
        errors.append(abs(energy_decay(p) - oracle) / max(abs(oracle), 1e-300))
    return validate._result("energy decay vs quadrature", errors, tolerance)


def scalar_synchronized(tolerance: float, grid: int, rng: np.random.Generator):
    """`check_synchronized_consistency` with one `rng.uniform` call per value."""
    errors = []
    for _ in range(grid):
        s1 = rng.uniform(0.2, 3.0)
        s2 = rng.uniform(0.2, 3.0)
        mean1 = rng.uniform(0.0, 3.0)
        lam1 = mean1 + rng.uniform(0.0, 2.0 * s1)
        bound = math.exp(-0.5 * ((lam1 - mean1) / s1) ** 2) / (2.0 * math.pi * s1 * s2)
        f1 = rng.uniform(1e-6, 1.0) * bound
        p = DecayParams(
            rate1=GaussianRate(mean1, s1, rate_frequency(mean1, s1, lam1)),
            rate2=GaussianRate(mean1, s2, peak_frequency(s2)),
            initial_energy=rng.uniform(1.0, 1e6),
            app_count=int(rng.integers(1, 21)),
            horizon=rng.uniform(0.01, 20.0),
        )
        lam2 = estimate_synchronized_rate(p, lam1, f1)
        closed = energy_decay_synchronized(p, lam1, f1)
        substituted = energy_decay_at_rates(p, lam2, lam2)
        errors.append(abs(closed - substituted) / max(abs(substituted), 1e-300))
    return validate._result("synchronized decay vs substituted rate", errors, tolerance)


def scalar_tx_ceiling(grid: int, rng: np.random.Generator):
    """`check_tx_ceiling` with one `rng.uniform` call per value."""
    errors, diverged = [], 0
    for _ in range(grid):
        p = random_tx_params(rng)
        derived = transaction_count(p)
        errors.append(float(abs(derived - math.ceil(tx_oracle(p)))))
        diverged += transaction_count(p, "as-printed") != derived
    note = f"as-printed variant diverges on {diverged}/{grid} points (expected)"
    return validate._result("transaction ceiling vs double integral", errors, 0.0, note)


SCALAR_CHECKS = {
    "decay": (functools.partial(validate.check_decay_against_quadrature, 1e-9),
              functools.partial(scalar_decay, 1e-9)),
    "synchronized": (functools.partial(validate.check_synchronized_consistency, 1e-9),
                     functools.partial(scalar_synchronized, 1e-9)),
    "tx_ceiling": (validate.check_tx_ceiling, scalar_tx_ceiling),
}


@pytest.mark.parametrize("grid", [0, 1, 7, 41])
@pytest.mark.parametrize("name", sorted(SCALAR_CHECKS))
def test_integer_checks_draw_the_scalar_stream(name, grid):
    # These checks interleave their doubles with `rng.integers` draws, which
    # take 32-bit halves of the stream's 64-bit words.
    check, scalar = SCALAR_CHECKS[name]
    rng, ref = primed_pair(grid + 17)
    assert check(grid=grid, rng=rng) == scalar(grid=grid, rng=ref)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_uniform_draws_are_drawn_a_chunk_at_a_time():
    # A grid of 10**9 draws one chunk of rows before its first row is used.
    rng, ref = primed_pair(3)
    first = next(validate._uniform_draws(rng, 10**9, 3))
    block = ref.random((validate.DRAW_CHUNK, 3))
    assert first == block[0].tolist()
    assert rng.bit_generator.state == ref.bit_generator.state


def test_validation_runs_without_double_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dblquad called")

    monkeypatch.setattr(integrate, "dblquad", refuse)
    report = run_validation(grid=20)
    assert [c.total for c in report.checks] == [20, 20, 200, 40, 11]


def same_bits(x: float, y: float) -> bool:
    return x.hex() == y.hex()


@pytest.fixture
def quadpack_not_found(monkeypatch):
    """`validate._quadpack` with a fresh cache, searching no file suffix,
    so it finds no extension and `_quad` falls back to `integrate.quad`."""
    monkeypatch.delitem(sys.modules, validate.QUADPACK, raising=False)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    monkeypatch.setattr(validate, "_quadpack", functools.cache(validate._quadpack.__wrapped__))
    assert validate._quadpack() is None


def quad_calls_on_validate_integrands(monkeypatch) -> Counter:
    """Run validate at several seeds, holding every `_quad` call equal to
    `integrate.quad` bit for bit; the calls by caller and by whether they
    passed break points."""
    helper, calls = validate._quad, Counter()

    def both(f, lo, hi, **options):
        value = helper(f, lo, hi, **options)
        assert same_bits(value, integrate.quad(f, lo, hi, **options)[0]), (lo, hi, options)
        calls[sys._getframe(1).f_code.co_name, options.get("points") is not None] += 1
        return value

    monkeypatch.setattr(validate, "_quad", both)
    for seed in (20240, 1, 2, 3, 77):
        run_validation(grid=30, seed=seed)
    return calls


def test_quad_is_scipy_quad_on_validate_integrands(monkeypatch):
    calls = quad_calls_on_validate_integrands(monkeypatch)
    assert calls[("decay_oracle", False)] == 5 * 30
    assert calls[("tx_oracle", True)] > 0 and calls[("tx_oracle", False)] > 0
    assert calls[("quad_range_mass", True)] > 0 and calls[("quad_range_mass", False)] > 0
    assert sum(calls.values()) == 5 * (30 + 60 + 15)


def test_quad_fallback_is_scipy_quad_on_validate_integrands(monkeypatch, quadpack_not_found):
    assert sum(quad_calls_on_validate_integrands(monkeypatch).values()) == 5 * (30 + 60 + 15)


def bell(x):
    return math.exp(-x * x) * (1.0 + 0.5 * math.sin(7.0 * x))


QUAD_CASES = [
    (-1.0, 2.0, None),
    (-1.0, 2.0, [0.5, 0.5, 0.0, 0.5]),   # duplicate points
    (0.0, 1.0, [0.0, 1.0, 0.5]),         # points at the bounds
    (0.0, 1.0, [-1.0, 2.0, 0.3]),        # points outside the bounds
    (0.0, 1.0, [-1.0, 1.0]),             # no point inside
    (0.0, 1.0, []),
    (0.0, 1.0, np.array([0.25, 0.75])),
    (1.5, 1.5, None),                    # lo == hi
    (1.5, 1.5, [1.5]),
    (2.0, -1.0, None),                   # reversed bounds
    (2.0, -1.0, [0.5, 0.5, 3.0, -1.0]),
    (-0.0, 0.0, None),
    (0.0, 1e-300, None),
]


@pytest.mark.parametrize("lo, hi, points", QUAD_CASES)
@pytest.mark.parametrize("found", [True, False])
def test_quad_is_scipy_quad_on_points_and_bounds(lo, hi, points, found, request):
    if not found:
        request.getfixturevalue("quadpack_not_found")
    for eps in ({}, {"epsabs": 0.0, "epsrel": 1e-12}, {"epsabs": 1e-14, "epsrel": 1e-13}):
        value = validate._quad(bell, lo, hi, points=points, **eps)
        assert same_bits(value, integrate.quad(bell, lo, hi, points=points, **eps)[0])


POINT_VALUES = [-0.0, 0.0, 0.5, math.nan, 1.0, 0.25, -1.0, 2.0, 0.5000000000000001, 3]


def test_inner_points_are_np_unique_inside_the_bounds():
    # Every list of up to 3 of these values, signed zeros, NaN, an int and
    # values at and outside the bounds among them: the same floats, with
    # the same zero signs, as np.unique followed by quad's bounds filter.
    cases = 0
    for n in range(4):
        for points in itertools.product(POINT_VALUES, repeat=n):
            for a, b in [(-0.5, 1.5), (0.0, 1.0), (-1.0, 0.5), (-2.0, 3.0)]:
                inner = np.unique(list(points))
                want = inner[(a < inner) & (inner < b)].astype(float).tolist()
                got = validate._inner_points(list(points), a, b)
                assert [x.hex() for x in got] == [x.hex() for x in want], (points, a, b)
                cases += 1
    assert cases == 4 * (1 + 10 + 100 + 1000)


@pytest.mark.parametrize("points", [[-0.0, 0.0, -1.0, -1.0], [0.0, -0.0, -1.0, -1.0, 0.0]])
def test_quad_ignores_the_sign_of_a_zero_point(points):
    # On these lists np.unique's unstable sort keeps the other zero than
    # the first given; QUADPACK's value is the same.
    assert same_bits(validate._quad(bell, -0.5, 1.5, points=points),
                     integrate.quad(bell, -0.5, 1.5, points=points)[0])


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, math.inf), (math.inf, -1.0)])
def test_quad_on_infinite_bounds_is_scipy_quad(lo, hi):
    def gauss(x):
        return math.exp(-x * x)

    assert same_bits(validate._quad(gauss, lo, hi), integrate.quad(gauss, lo, hi)[0])


@pytest.mark.parametrize("points", [None, [1.5], [0.0, 3.0]])
def test_quad_of_an_empty_interval_calls_nothing(points):
    def refuse(x):
        raise AssertionError("integrand called")

    assert same_bits(validate._quad(refuse, 1.5, 1.5, points=points), 0.0)
    assert same_bits(integrate.quad(refuse, 1.5, 1.5, points=points)[0], 0.0)


@pytest.mark.parametrize("found", [True, False])
def test_quad_warns_and_raises_as_scipy_quad_does(found, request):
    if not found:
        request.getfixturevalue("quadpack_not_found")

    def wave(x):
        return math.sin(1e4 * x)

    options = {"epsabs": 0.0, "epsrel": 1e-12}
    with pytest.raises(IntegrationWarning):
        validate._quad(wave, 0.0, 1.0, **options)
    with pytest.raises(IntegrationWarning):
        integrate.quad(wave, 0.0, 1.0, **options)
    # At the subdivision limit, a point at a bound or a duplicate point, each
    # a subinterval of width 0, would change the value if it were passed on.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for points in (None, [0.5], [0.0, 0.5, 0.5, 1.0]):
            value = validate._quad(wave, 0.0, 1.0, points=points, **options)
            assert same_bits(value, integrate.quad(wave, 0.0, 1.0, points=points, **options)[0])
    # A tolerance QUADPACK rejects (ier 6) raises.
    with pytest.raises(ValueError):
        validate._quad(wave, 0.0, 1.0, epsabs=0.0, epsrel=1e-20)
    with pytest.raises(ValueError):
        integrate.quad(wave, 0.0, 1.0, epsabs=0.0, epsrel=1e-20)


def test_quadpack_loads_without_entering_sys_modules(monkeypatch):
    monkeypatch.delitem(sys.modules, validate.QUADPACK, raising=False)
    quadpack = validate._quadpack.__wrapped__()
    assert validate.QUADPACK not in sys.modules
    assert quadpack.__file__ == integrate._quadpack_py._quadpack.__file__
    value = quadpack._qagse(bell, -1.0, 2.0, (), 0, 1.49e-8, 1.49e-8, validate.QUAD_LIMIT)[0]
    assert same_bits(value, integrate.quad(bell, -1.0, 2.0)[0])


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


# The four grid-300 validate seeds of the oracle-validate benchmark's seed 601
# (`workloads.generate("oracle-validate", 601, ...)`).
BENCHMARK_VALIDATE_GOLDEN = {
    1680111943: "2b9f08efd2e372173b844e3e6a6167f636f465685f64b19047450a62fecc42c6",
    771741708: "a219112a85e5a2debeb98ed5226859fafaa0172e895a0b7670dc9c21597f0b63",
    1509239495: "4b93646224d3b98a1c9fd337d83892d88dab94c071c53fc22b38d051db404f94",
    1605614394: "a3a945c7177f61762f37c95781457516ddbf9c37c7221380773f9e48a7a50002",
}


@pytest.mark.parametrize("seed", sorted(BENCHMARK_VALIDATE_GOLDEN))
def test_benchmark_validate_report_digests(seed, capsys):
    assert main(["validate", "--grid", "300", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BENCHMARK_VALIDATE_GOLDEN[seed]


# Small and degenerate grids at seed 20240, the newline-joined report lines.
SMALL_GRID_GOLDEN = {
    -3: "6f5155b890eab876e7e01d4f8ff13db15eec3b829295a7dd683f589e6fe92ed0",
    0: "257095e6a7ced6189722c03761a10b177ca6db0f4fc57805f07cfd9e94ba2807",
    1: "ec2446aec98481a8cb880b65061a5ca3f550a2a24620d021cda3eaf038ed7355",
    7: "8097207c5d7bfb811efba31d426d1c9c1b759db23156bd406b06cc642dd209a7",
    41: "2d3db7c944e771557804ab69bac096eca122a56bafdaa9173497125599088570",
}


@pytest.mark.parametrize("grid", sorted(SMALL_GRID_GOLDEN))
def test_small_grid_report_digests(grid):
    text = "\n".join(run_validation(grid=grid, seed=20240).lines())
    assert hashlib.sha256(text.encode()).hexdigest() == SMALL_GRID_GOLDEN[grid]
