"""Numerical validation suite: closed forms against independent oracles.

Every closed form in the analytics layer is re-derived here by numerical
integration (scipy quadrature, midpoint rules) or by round-tripping, on
seeded random parameter grids. The suite backs the `validate` CLI command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import integrate

from .analytics import (
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
from .mobility import ConnectivityParams, MobilityModel, in_range_probability


@dataclass(frozen=True)
class CheckResult:
    name: str
    total: int
    failures: int
    worst_error: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass
class ValidationReport:
    checks: list[CheckResult]

    @property
    def failures(self) -> int:
        return sum(c.failures for c in self.checks)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = (
                f"[{status}] {c.name}: {c.total - c.failures}/{c.total} within "
                f"tolerance (worst error {c.worst_error:.3e})"
            )
            if c.note:
                line += f" - {c.note}"
            out.append(line)
        return out


def _result(name: str, errors: list, tolerance: float, note: str = "") -> CheckResult:
    """The check of `errors`: an error that is not <= `tolerance` fails, and
    a NaN error, which no comparison holds, is the worst."""
    failures = sum(not err <= tolerance for err in errors)
    worst = max(errors, key=lambda err: math.inf if math.isnan(err) else err, default=0.0)
    return CheckResult(name, len(errors), failures, worst, note)


def _random_decay_params(rng: np.random.Generator) -> DecayParams:
    def rate() -> GaussianRate:
        mean = rng.uniform(0.0, 5.0)
        stddev = rng.uniform(0.1, 3.0)
        f = rng.uniform(1e-6, 1.0) * peak_frequency(stddev)
        return GaussianRate(mean, stddev, f)

    return DecayParams(
        rate1=rate(),
        rate2=rate(),
        initial_energy=rng.uniform(1.0, 1e6),
        app_count=int(rng.integers(1, 21)),
        horizon=rng.uniform(0.01, 50.0),
    )


def decay_oracle(p: DecayParams) -> float:
    """Energy decay by adaptive quadrature of its defining integral,
    (E0 / apps) * integral of exp(-(lam1 + lam2) t) over [0, horizon]."""
    lam = invert_rate(p.rate1) + invert_rate(p.rate2)
    value, _ = integrate.quad(
        lambda t: math.exp(-lam * t), 0.0, p.horizon, epsabs=1e-14, epsrel=1e-13
    )
    return value * (p.initial_energy / p.app_count)


def check_decay_against_quadrature(
    tolerance: float, grid: int, rng: np.random.Generator
) -> CheckResult:
    """Closed-form decay vs adaptive quadrature of its defining integral."""
    errors = []
    for _ in range(grid):
        p = _random_decay_params(rng)
        oracle = decay_oracle(p)
        errors.append(abs(energy_decay(p) - oracle) / max(abs(oracle), 1e-300))
    return _result("energy decay vs quadrature", errors, tolerance)


def check_synchronized_consistency(
    tolerance: float, grid: int, rng: np.random.Generator
) -> CheckResult:
    """Synchronized decay vs the general closed form at the estimated rate."""
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
        # Under synchronization both rate families collapse to the estimate.
        substituted = energy_decay_at_rates(p, lam2, lam2)
        errors.append(abs(closed - substituted) / max(abs(substituted), 1e-300))
    return _result("synchronized decay vs substituted rate", errors, tolerance)


def check_rate_roundtrip(
    tolerance: float, grid: int, rng: np.random.Generator
) -> CheckResult:
    """density -> invert_rate recovers the rate on the upper branch."""
    errors = []
    for _ in range(grid):
        mean = rng.uniform(0.0, 10.0)
        stddev = rng.uniform(0.05, 5.0)
        lam = mean + rng.uniform(0.0, 5.0 * stddev)
        g = GaussianRate.at_rate(mean, stddev, lam)
        errors.append(abs(invert_rate(g) - lam))
    return _result("rate inversion round-trip", errors, tolerance)


def tx_oracle(p: TxCountParams) -> float:
    """The load model the transaction ceiling bounds, integrated numerically:
    the double integral of f(x) * presence * rate * t / parallel_links over
    x in [0, radio_range] and t in [0, horizon], with f the Gaussian range
    density. The t-integral is exactly horizon**2 / 2 (Fubini), so one
    adaptive quadrature in x remains; it never uses the erf closed form.

    The quadrature runs over `u`, the distance from the density's peak on
    [0, radio_range] in deviations, on the integrand divided by that peak,
    so a deep-tail load does not underflow inside it. It covers only the
    window where that integrand exceeds about e**-800, broken at the peak,
    so it finds a density far narrower than the range: 40 deviations each
    side, or 800 / |z| of them when the peak sits at the range's edge, z
    deviations from the mean, where the integrand falls off like
    exp(-|z * u|). A positive load below the smallest positive float is
    returned as that float: its ceiling is still 1.
    """
    mean, sd = p.mean_range, p.range_stddev
    scale = p.presence * p.total_rate() * (p.horizon * p.horizon / 2.0) / p.parallel_links
    peak = min(mean, p.radio_range)
    z_peak = (peak - mean) / sd
    log_peak = -0.5 * z_peak * z_peak
    if log_peak == -math.inf:  # the peak density itself is below the float range
        return math.ulp(0.0) if scale > 0.0 else 0.0
    half = 40.0 if z_peak == 0.0 else min(40.0, -800.0 / z_peak)
    lo, hi = max(-peak / sd, -half), min((p.radio_range - peak) / sd, half)

    def integrand(u):  # exp(-(z_peak + u)**2 / 2 - log_peak) without the cancellation
        return math.exp(-u * (0.5 * u + z_peak))

    points = [0.0] if lo < 0.0 < hi else None
    value, _ = integrate.quad(integrand, lo, hi, points=points, epsabs=0.0, epsrel=1e-12)
    value = value / math.sqrt(2.0 * math.pi) * scale  # a half or whole mass stays exact
    if value <= 0.0:
        return value
    return max(value * math.exp(log_peak), math.ulp(0.0))


def check_tx_ceiling(grid: int, rng: np.random.Generator) -> CheckResult:
    """Transaction ceiling vs the numerically integrated load model."""
    errors = []
    printed_diverged = 0
    for _ in range(grid):
        p = TxCountParams(
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
        derived = transaction_count(p)
        errors.append(float(abs(derived - math.ceil(tx_oracle(p)))))
        printed = transaction_count(replace(p, variant="as-printed"))
        if printed != derived:
            printed_diverged += 1
    note = f"as-printed variant diverges on {printed_diverged}/{grid} points (expected)"
    return _result("transaction ceiling vs double integral", errors, 0.0, note)


MIDPOINTS = 1_000_000


def midpoint_range_mass(m: MobilityModel, nodes: np.ndarray, out: np.ndarray) -> float:
    """Midpoint rule for the Gaussian range mass on [0, connect_range].

    `nodes` holds `np.arange(n) + 0.5` and `out` is a float buffer of the
    same length that is overwritten. Every ufunc writes into `out`, so a
    call allocates no array, and the value is bit-identical to evaluating
    `exp(-0.5 * z * z) / (sd * sqrt(2 pi))` at the midpoints and summing.
    """
    n = len(nodes)
    np.multiply(nodes, m.connect_range / n, out=out)
    np.subtract(out, m.mean_range, out=out)
    np.divide(out, m.range_stddev, out=out)
    np.square(out, out=out)
    out *= -0.5
    np.exp(out, out=out)
    np.divide(out, m.range_stddev * math.sqrt(2.0 * math.pi), out=out)
    return float(out.sum() * m.connect_range / n)


def quad_range_mass(m: MobilityModel) -> float:
    """Range mass on [0, connect_range] by adaptive quadrature of `m.pdf`,
    broken at the mean and at mean +- 8 sd, so that the quadrature finds a
    density far narrower than the range."""
    mean, sd, r = m.mean_range, m.range_stddev, m.connect_range
    points = [x for x in (mean - 8.0 * sd, mean, mean + 8.0 * sd) if 0.0 < x < r]
    value, _ = integrate.quad(m.pdf, 0.0, r, points=points or None, epsabs=1e-13, epsrel=1e-12)
    return value


def check_in_range_probability(grid: int, rng: np.random.Generator) -> CheckResult:
    """Closed-form in-range probability vs a dense midpoint rule, and, on
    narrow densities (sd 0.1 to 100) over ranges up to 1e23 that no midpoint
    rule resolves, vs breakpoint quadrature."""
    errors = []
    nodes = np.arange(MIDPOINTS) + 0.5
    buf = np.empty(MIDPOINTS)
    for _ in range(max(1, grid // 20)):
        m = MobilityModel(
            connect_range=rng.uniform(10.0, 500.0),
            radio_range=rng.uniform(10.0, 500.0),
            mean_range=rng.uniform(10.0, 500.0),
            range_stddev=rng.uniform(1.0, 200.0),
        )
        c = ConnectivityParams(presence_prob=rng.uniform(0.0, 1.0))
        mid = 1.0 - c.presence_prob * midpoint_range_mass(m, nodes, buf)
        errors.append(abs(in_range_probability(m, c) - mid))
    for i in range(max(1, grid // 2)):
        sd = 10.0 ** rng.uniform(-1.0, 2.0)
        mean = 10.0 ** rng.uniform(3.0, 6.0)
        # Every other range lies within 8 sd of the mean, so part of the mass is cut.
        r = 10.0 ** rng.uniform(1.0, 23.0) if i % 2 == 0 else mean + sd * rng.uniform(-8.0, 8.0)
        m = MobilityModel(connect_range=r, radio_range=r, mean_range=mean, range_stddev=sd)
        c = ConnectivityParams(presence_prob=rng.uniform(0.0, 1.0))
        quad = 1.0 - c.presence_prob * quad_range_mass(m)
        errors.append(abs(in_range_probability(m, c) - quad))
    return _result("in-range probability vs midpoint rule and quadrature", errors, 1e-6)


def run_validation(
    tolerance: float = 1e-9, grid: int = 100, seed: int = 20240
) -> ValidationReport:
    rng = np.random.default_rng(seed)
    checks = [
        check_decay_against_quadrature(tolerance, grid, rng),
        check_synchronized_consistency(tolerance, grid, rng),
        check_rate_roundtrip(tolerance, 10 * grid, rng),
        check_tx_ceiling(2 * grid, rng),
        check_in_range_probability(grid, rng),
    ]
    return ValidationReport(checks=checks)
