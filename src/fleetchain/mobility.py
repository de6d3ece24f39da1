"""Vehicle mobility density, in-range probability and operating constraints.

Distances are scalar (meters from the reference point); the movement density
f(p) defaults to a Gaussian centred on the mean connection range. The
in-range probability is the complement of the presence-weighted density mass
inside the integration range:

    P(f(p)) = 1 - integral_0^R  P_c * f(p) dp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .quadrature import adaptive_simpson

# Hard numerical contracts for the range integral. The quadrature tolerance
# sits well below the clamp window so a density that integrates to exactly 1
# cannot overshoot into the error branch through integration error alone.
_QUAD_TOL = 1e-13
_QUAD_DEPTH = 60
_CLAMP_EPS = 1e-12


def gaussian_pdf(x: float, mean: float, stddev: float) -> float:
    z = (x - mean) / stddev
    return math.exp(-0.5 * z * z) / (stddev * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class MobilityModel:
    """Movement model of the fleet.

    `density` may override the default Gaussian f(p); it must integrate to
    at most 1 over [0, inf). `connect_range` is the ledger-exchange range R,
    `radio_range` the per-vehicle radio reach, `mean_range` / `range_stddev`
    the parameters of the default Gaussian density.
    """

    connect_range: float
    radio_range: float
    mean_range: float
    range_stddev: float
    density: Callable[[float], float] | None = None

    def __post_init__(self):
        for name in ("connect_range", "radio_range", "mean_range", "range_stddev"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")

    def pdf(self, p: float) -> float:
        if self.density is not None:
            return self.density(p)
        return gaussian_pdf(p, self.mean_range, self.range_stddev)

    @classmethod
    def standard_normal(
        cls, connect_range: float, radio_range: float, mean_range: float
    ) -> "MobilityModel":
        """Alternate preset: zero-mean, unit-deviation movement density."""
        return cls(
            connect_range=connect_range,
            radio_range=radio_range,
            mean_range=mean_range,
            range_stddev=1.0,
            density=lambda p: gaussian_pdf(p, 0.0, 1.0),
        )


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
    if limit <= 0:
        return 0.0
    return adaptive_simpson(m.pdf, 0.0, limit, tol=_QUAD_TOL, max_depth=_QUAD_DEPTH)


def in_range_probability(
    m: MobilityModel, c: ConnectivityParams, upper: float | None = None
) -> float:
    """Probability that a vehicle is in range per the movement density.

    The integration limit defaults to connect_range; pass `upper` to use a
    different bound (e.g. the radio range). Results outside [0, 1] by more
    than 1e-12 indicate a bad density and raise; smaller overshoot from
    roundoff is clamped.
    """
    result = 1.0 - c.presence_prob * range_mass(m, upper)
    if result < -_CLAMP_EPS or result > 1.0 + _CLAMP_EPS:
        raise ValueError(
            f"in-range probability {result!r} outside [0, 1]; "
            "movement density does not integrate to <= 1"
        )
    return min(1.0, max(0.0, result))


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
