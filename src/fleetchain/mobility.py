"""Vehicle mobility density, in-range probability and operating constraints.

Distances are scalar (meters from the reference point); the movement density
f(p) is a Gaussian centred on the mean connection range. The in-range
probability is the complement of the presence-weighted density mass inside
the integration range:

    P(f(p)) = 1 - integral_0^R  P_c * f(p) dp.

That mass, and the load integral behind the transaction ceiling, is the
Gaussian mass of an interval in closed form (`gaussian_mass`): a difference
of erfc tails away from the mean, so a deep-tail mass keeps its relative
precision down to the float range instead of cancelling to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# Nothing calls this name; benchmarks/tracing.py looks it up to install its
# `quadrature.adaptive_simpson` span.
adaptive_simpson = None


def gaussian_pdf(x: float, mean: float, stddev: float) -> float:
    z = (x - mean) / stddev
    return math.exp(-0.5 * z * z) / (stddev * math.sqrt(2.0 * math.pi))


def half_erf_diff(a: float, b: float) -> float:
    """(erf(b) - erf(a)) / 2 for a <= b, taken as a difference of erfc tails
    when [a, b] lies on one side of 0 (erf saturates to 1.0 past ~6)."""
    if a > 0.0:
        return 0.5 * (math.erfc(a) - math.erfc(b))
    if b < 0.0:
        return 0.5 * (math.erfc(-b) - math.erfc(-a))
    return 0.5 * (math.erf(b) - math.erf(a))


def gaussian_mass(lo: float, hi: float, mean: float, sd: float) -> float:
    """Mass of the Gaussian N(mean, sd**2) on [lo, hi]; exactly 0 when hi <= lo."""
    if hi <= lo:
        return 0.0
    s = math.sqrt(2.0) * sd
    return half_erf_diff((lo - mean) / s, (hi - mean) / s)


@dataclass(frozen=True)
class MobilityModel:
    """Movement model of the fleet.

    `connect_range` is the ledger-exchange range R, `radio_range` the
    per-vehicle radio reach, `mean_range` / `range_stddev` the parameters of
    the Gaussian movement density.
    """

    connect_range: float
    radio_range: float
    mean_range: float
    range_stddev: float

    def __post_init__(self):
        for name in ("connect_range", "radio_range", "mean_range", "range_stddev"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")

    def pdf(self, p: float) -> float:
        return gaussian_pdf(p, self.mean_range, self.range_stddev)


@dataclass(frozen=True)
class ConnectivityParams:
    presence_prob: float = 1.0
    receiver_prob: float = 1.0
    threshold_prob: float = 0.0

    def __post_init__(self):
        for name in ("presence_prob", "receiver_prob", "threshold_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")


@dataclass(frozen=True)
class ConstraintSet:
    """Operating constraints of one run.

    `transfer_error` is either a constant in [0, 1] or a piecewise-constant
    schedule given as ((start_time, value), ...) pairs sorted by start time;
    each value holds from its start time to the next one (or to op_time).
    """

    op_time: float
    stay_time: float
    request_bound: float
    transfer_error: float | Sequence[tuple[float, float]] = 0.0

    def __post_init__(self):
        if self.op_time <= 0:
            raise ValueError("op_time must be > 0")
        if self.stay_time < 0 or self.request_bound < 0:
            raise ValueError("stay_time and request_bound must be >= 0")

    def error_integral(self, horizon: float) -> float:
        """Exact integral of the transfer-error schedule over [0, horizon]."""
        if isinstance(self.transfer_error, (int, float)):
            return float(self.transfer_error) * horizon
        total = 0.0
        schedule = list(self.transfer_error)
        for i, (start, level) in enumerate(schedule):
            if start >= horizon:
                break
            end = schedule[i + 1][0] if i + 1 < len(schedule) else horizon
            total += level * (min(end, horizon) - start)
        return total


@dataclass(frozen=True)
class ConstraintReport:
    request_rate_ok: bool
    stay_time_ok: bool
    threshold_ok: bool
    in_range_prob: float
    transfer_error_integral: float

    @property
    def satisfied(self) -> bool:
        return self.request_rate_ok and self.stay_time_ok and self.threshold_ok


def range_mass(m: MobilityModel, upper: float | None = None) -> float:
    """Density mass of f(p) on [0, upper] (upper defaults to connect_range)."""
    limit = m.connect_range if upper is None else upper
    return gaussian_mass(0.0, limit, m.mean_range, m.range_stddev)


def in_range_probability(
    m: MobilityModel, c: ConnectivityParams, upper: float | None = None
) -> float:
    """Probability that a vehicle is in range per the movement density.

    The integration limit defaults to connect_range; pass `upper` to use a
    different bound (e.g. the radio range).
    """
    return 1.0 - c.presence_prob * range_mass(m, upper)


def transfer_function(
    m: MobilityModel,
    c: ConnectivityParams,
    clusters: int,
    vehicles: int,
    apps: int,
) -> float:
    """Network transfer score summed over clusters, vehicles and apps.

    With a homogeneous population the triple sum collapses to the product
    of the counts with receiver_prob * in_range_probability.
    """
    if clusters < 1 or vehicles < 1 or apps < 1:
        raise ValueError("clusters, vehicles and apps must all be >= 1")
    return clusters * vehicles * apps * c.receiver_prob * in_range_probability(m, c)


def check_constraints(
    cs: ConstraintSet, m: MobilityModel, c: ConnectivityParams
) -> ConstraintReport:
    """Evaluate the operating constraints; violations are data, not errors.

    The transfer-error integral over time and range is reported for
    minimisation tracking but not thresholded.
    """
    p_in_range = in_range_probability(m, c)
    error_int = p_in_range * m.connect_range * cs.error_integral(cs.op_time)
    return ConstraintReport(
        request_rate_ok=cs.request_bound <= cs.stay_time / cs.op_time,
        stay_time_ok=cs.stay_time <= cs.op_time,
        threshold_ok=p_in_range >= c.threshold_prob,
        in_range_prob=p_in_range,
        transfer_error_integral=error_int,
    )
