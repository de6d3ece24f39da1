"""Closed forms for rate inversion, energy decay and transaction ceilings.

Operation rates are modelled as Gaussian: a rate lambda_k with mean
``mean_k`` and deviation ``sigma_k`` observed at frequency (density value)
``f_k``. On the upper branch (lambda >= mean) the density inverts exactly:

    lambda_k = sigma_k * sqrt(-2 * ln(sqrt(2*pi) * sigma_k * f_k)) + mean_k.

Per-vehicle energy decay over a horizon tau is the closed form of

    (B0 / apps) * integral_0^tau exp(-(lambda1 + lambda2) t) dt,

and the transaction ceiling is the exact integral of the load model
``(1/D) * int_0^tau (int_0^R'' f(p) P_c dp) (sum lambda * t) dt`` under the
Gaussian movement density, rounded up. Two typographic variants of the
ceiling are kept: ``as-derived`` (the dimensionally consistent integral
above) and ``as-printed`` (unscaled erf arguments with a 2^(5/2)*D*sigma
denominator); they are not algebraically equal in general.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .mobility import SQRT_2PI, gaussian_mass, gaussian_pdf, half_erf_diff

# Tolerance for radicands that should be zero but carry float roundoff.
_RADICAND_EPS = 1e-12


class InfeasibleRateError(ValueError):
    """Raised when a frequency lies above the attainable density peak."""


def peak_frequency(stddev: float) -> float:
    """Largest density value a Gaussian rate with this deviation can attain."""
    return 1.0 / (stddev * SQRT_2PI)


def rate_frequency(mean: float, stddev: float, rate: float) -> float:
    """Density value of the Gaussian rate model evaluated at `rate`."""
    return gaussian_pdf(rate, mean, stddev)


@dataclass(frozen=True)
class GaussianRate:
    """A Gaussian-distributed operation rate observed at frequency `frequency`."""

    mean: float
    stddev: float
    frequency: float

    def __post_init__(self):
        if self.stddev <= 0:
            raise ValueError("stddev must be > 0")
        if self.frequency <= 0:
            raise ValueError("frequency must be > 0")
        if self.frequency > peak_frequency(self.stddev) * (1.0 + 1e-12):
            raise InfeasibleRateError(
                f"frequency {self.frequency!r} exceeds the density peak "
                f"{peak_frequency(self.stddev)!r}"
            )

    @classmethod
    def at_rate(cls, mean: float, stddev: float, rate: float) -> "GaussianRate":
        """Rate model whose frequency is the density evaluated at `rate`."""
        return cls(mean=mean, stddev=stddev, frequency=rate_frequency(mean, stddev, rate))

    @classmethod
    def at_peak(cls, mean: float, stddev: float) -> "GaussianRate":
        return cls(mean=mean, stddev=stddev, frequency=peak_frequency(stddev))


@dataclass(frozen=True)
class DecayParams:
    rate1: GaussianRate
    rate2: GaussianRate
    initial_energy: float
    app_count: int
    horizon: float

    def __post_init__(self):
        if self.horizon < 0 or self.initial_energy < 0:
            raise ValueError("horizon and initial_energy must be >= 0")
        if self.app_count < 1:
            raise ValueError("app_count must be >= 1")


@dataclass(frozen=True)
class TxCountParams:
    cluster_count: int
    links_per_ledger: int
    request_rate: float
    presence: float
    horizon: float
    parallel_links: int
    mean_range: float
    radio_range: float
    range_stddev: float
    variant: str = "as-derived"

    def __post_init__(self):
        if self.cluster_count < 1 or self.links_per_ledger < 1:
            raise ValueError("cluster_count and links_per_ledger must be >= 1")
        if self.parallel_links < 1:
            raise ValueError("parallel_links must be >= 1")
        if self.variant not in ("as-derived", "as-printed"):
            raise ValueError(f"unknown variant {self.variant!r}")

    def total_rate(self) -> float:
        return self.cluster_count * self.links_per_ledger * self.request_rate


def invert_rate(g: GaussianRate) -> float:
    """Recover the rate from its observed frequency (upper branch)."""
    radicand = -2.0 * math.log(SQRT_2PI * g.stddev * g.frequency)
    if radicand < 0:
        if radicand < -_RADICAND_EPS:
            raise InfeasibleRateError(
                f"frequency {g.frequency!r} above the density peak (radicand {radicand!r})"
            )
        radicand = 0.0
    return g.stddev * math.sqrt(radicand) + g.mean


def _decay_integral(scale: float, lam: float, horizon: float) -> float:
    # integral_0^tau exp(-lam t) dt, with the removable lam -> 0 singularity.
    if lam == 0.0:
        return scale * horizon
    return scale * (-math.expm1(-lam * horizon)) / lam


def energy_decay(p: DecayParams) -> float:
    """Closed-form per-vehicle energy decay over the horizon."""
    lam = invert_rate(p.rate1) + invert_rate(p.rate2)
    return _decay_integral(p.initial_energy / p.app_count, lam, p.horizon)


def energy_decay_at_rates(p: DecayParams, lam1: float, lam2: float) -> float:
    """Energy decay with explicit rates instead of frequency inversion."""
    if lam1 < 0 or lam2 < 0:
        raise ValueError("rates must be >= 0")
    return _decay_integral(p.initial_energy / p.app_count, lam1 + lam2, p.horizon)


def estimate_synchronized_rate(p: DecayParams, lam1: float, f1: float) -> float:
    """Second-rate estimate when operations are synchronized.

    Under synchronization the two rate families share mean and frequency;
    the joint density at (lam1, f1) then pins the second rate.
    """
    s1, s2 = p.rate1.stddev, p.rate2.stddev
    mean1 = p.rate1.mean
    radicand = -2.0 * s1 * s1 * math.log(2.0 * math.pi * f1 * s1 * s2) - (
        lam1 - mean1
    ) ** 2
    if radicand < 0:
        if radicand < -_RADICAND_EPS:
            raise InfeasibleRateError(
                "synchronization assumption infeasible: joint-density radicand "
                f"{radicand!r} < 0"
            )
        radicand = 0.0
    return s2 * math.sqrt(radicand) / s1 + mean1


def energy_decay_synchronized(p: DecayParams, lam1: float, f1: float) -> float:
    """Energy decay when the second rate must be estimated.

    Both rates collapse to the synchronized estimate, so the decay exponent
    is twice the estimated rate. Equals `energy_decay` with both rate models
    replaced by the estimate.
    """
    lam2 = estimate_synchronized_rate(p, lam1, f1)
    return _decay_integral(p.initial_energy / p.app_count, 2.0 * lam2, p.horizon)


def conservation_factor(rate1: GaussianRate, rate2: GaussianRate) -> float:
    """Share of the combined decay rate owned by general (non-ledger) ops.

    This is the fraction of per-member consumption removed when a
    cluster-head absorbs the general coordination traffic, leaving members
    with ledger operations only: lambda1 / (lambda1 + lambda2).
    """
    lam1 = invert_rate(rate1)
    lam2 = invert_rate(rate2)
    total = lam1 + lam2
    return lam1 / total if total > 0 else 0.0


def transaction_count(p: TxCountParams) -> int:
    """Ceiling on the transactions required to shift the accumulated load.

    Valid for positive ranges and horizon. The `as-derived` variant is the
    exact integral of the load model; `as-printed` keeps unscaled erf
    arguments and compensates through the denominator. A positive load
    needs at least one transaction, also where its value underflows; a
    ceiling past the float range raises `ValueError`.
    """
    return _transaction_count(p, p.variant)


def _transaction_count(p: TxCountParams, variant: str) -> int:
    """`transaction_count` of `p` in `variant`, whatever `p.variant` is."""
    if p.mean_range <= 0 or p.radio_range <= 0 or p.horizon <= 0:
        raise ValueError(
            "validity region violated: mean_range, radio_range and horizon must be > 0"
        )
    load = p.total_rate() * p.presence
    if variant == "as-derived":
        mass = gaussian_mass(0.0, p.radio_range, p.mean_range, p.range_stddev)
        value = load * p.horizon**2 * mass / (2.0 * p.parallel_links)
    else:
        mass = half_erf_diff(p.mean_range - p.radio_range, p.mean_range)
        value = load * p.horizon**2 * mass / (2.0**1.5 * p.parallel_links * p.range_stddev)
    if not math.isfinite(value):
        raise ValueError(f"the {variant} transaction ceiling {value!r} is not finite")
    return max(1 if load > 0 else 0, math.ceil(value))


def decay_params_at(p: DecayParams, horizon: float) -> DecayParams:
    """Copy of the decay parameters with a different horizon."""
    return replace(p, horizon=horizon)
