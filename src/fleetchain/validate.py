"""Numerical validation suite: closed forms against independent oracles.

Every closed form in the analytics layer is re-derived here by numerical
integration (scipy quadrature, midpoint rules) or by round-tripping, on
seeded random parameter grids. The suite backs the `validate` CLI command.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

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
    _transaction_count,
    transaction_count,
)
from .mobility import SQRT_2PI, ConnectivityParams, MobilityModel, in_range_probability


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


QUADPACK = "scipy.integrate._quadpack"
# The `limit` that `scipy.integrate.quad` passes by default: at most 50 subintervals.
QUAD_LIMIT = 50
# QUADPACK's `ier` codes on which `quad` warns and still returns its value;
# on any other non-zero code (6: invalid input) it raises ValueError.
QUAD_WARN_CODES = (1, 2, 3, 4, 5, 7)


@functools.cache
def _quadpack():
    """scipy's QUADPACK extension module, or None when its file is not found.

    The file is found next to the `scipy` package and loaded alone. Loading
    it imports the bare `scipy` package, but `scipy/integrate/__init__.py`,
    with the `scipy.special`, `scipy.optimize` and `scipy.linalg` it
    imports, never runs: that import was most of the wall time and peak
    memory of a `validate` run. If `scipy.integrate` is already imported,
    its module is used. A freshly loaded extension enters itself in
    `sys.modules`; it is taken out again, so a later
    `import scipy.integrate` runs as it would without this.
    """
    if QUADPACK in sys.modules:
        return sys.modules[QUADPACK]
    spec = importlib.util.find_spec("scipy")  # locates scipy; imports nothing
    for root in spec.submodule_search_locations if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "integrate", "_quadpack" + suffix)
            if os.path.isfile(path):
                ext = importlib.util.spec_from_file_location(QUADPACK, path)
                module = importlib.util.module_from_spec(ext)
                ext.loader.exec_module(module)
                if sys.modules.get(QUADPACK) is module:
                    del sys.modules[QUADPACK]
                return module
    return None


def _inner_points(points, a: float, b: float) -> list[float]:
    """The values of `points` strictly inside (a, b), sorted, each once: the
    points `quad` keeps, which it takes from `np.unique(points)`. A NaN is
    never inside. Of equal values the first given is kept, so of -0.0 and
    0.0 the first, as `np.unique` keeps on up to 3 points; on more, numpy's
    sort is not stable, but QUADPACK's value does not depend on the sign of
    a zero break point. `np.unique` itself would import `numpy.ma` on its
    first call on floats, about 15 ms of every `validate` run."""
    kept = []
    for x in sorted(x for x in np.asarray(points, dtype=float).ravel().tolist() if a < x < b):
        if not kept or x != kept[-1]:
            kept.append(x)
    return kept


def _quad(f, lo: float, hi: float, points=None, epsabs: float = 1.49e-8,
          epsrel: float = 1.49e-8) -> float:
    """The value of `scipy.integrate.quad(f, lo, hi, points=points,
    epsabs=epsabs, epsrel=epsrel)`, bit for bit, without importing
    `scipy.integrate` (`simulate` never needs scipy at all).

    On finite bounds it calls QUADPACK's `_qagse`, or `_qagpe` with
    `points`, as `quad` does (scipy 1.17.1, `_quadpack_py.py`): an empty
    interval is 0.0, reversed bounds are swapped and the value negated, and
    the points are made unique, kept only strictly inside the bounds and
    padded with two zeros. A non-zero `ier` warns with `IntegrationWarning`,
    or raises ValueError, on the codes where `quad` does.

    The cost: this reaches into a private module of scipy. A scipy whose
    extension moves falls back to `quad` itself, as do infinite bounds; one
    whose `_qagse`/`_qagpe` change their arguments or results breaks this
    helper, and `tests/test_validate.py` holds it equal to `quad` bit for bit.
    """
    quadpack = _quadpack()
    if quadpack is None or not (math.isfinite(lo) and math.isfinite(hi)):
        from scipy import integrate

        return integrate.quad(f, lo, hi, points=points, epsabs=epsabs, epsrel=epsrel)[0]
    if lo == hi:
        return 0.0
    flip, a, b = hi < lo, min(lo, hi), max(lo, hi)
    if points is None:
        value, _, ier = quadpack._qagse(f, a, b, (), 0, epsabs, epsrel, QUAD_LIMIT)
    else:
        breaks = np.array(_inner_points(points, a, b) + [0.0, 0.0])
        value, _, ier = quadpack._qagpe(f, a, b, breaks, (), 0, epsabs, epsrel, QUAD_LIMIT)
    if ier != 0:
        if ier not in QUAD_WARN_CODES:
            raise ValueError(f"QUADPACK rejected the integral over [{lo}, {hi}] (ier {ier})")
        from scipy.integrate import IntegrationWarning

        warnings.warn(f"QUADPACK ier {ier}: the integral over [{lo}, {hi}] may miss its "
                      "tolerance", IntegrationWarning, stacklevel=2)
    return -value if flip else value


def _result(name: str, errors: list, tolerance: float, note: str = "") -> CheckResult:
    """The check of `errors`: an error that is not <= `tolerance` fails, and
    a NaN error, which no comparison holds, is the worst."""
    failures = sum(not err <= tolerance for err in errors)
    worst = max(errors, key=lambda err: math.inf if math.isnan(err) else err, default=0.0)
    return CheckResult(name, len(errors), failures, worst, note)


DRAW_CHUNK = 4096


def _uniform_draws(rng: np.random.Generator, rows: int, width: int):
    """`rows` lists of `width` doubles of `rng.random`, drawn `DRAW_CHUNK`
    rows at a time: the doubles, in order, that `rows * width` scalar
    `rng.uniform` calls consume. Nothing is drawn when `rows` <= 0."""
    for start in range(0, rows, DRAW_CHUNK):
        yield from rng.random((min(DRAW_CHUNK, rows - start), width)).tolist()


def _uniform(low: float, high: float, u: float) -> float:
    """The value `rng.uniform(low, high)` returns when it draws the double `u`:
    `Generator.uniform`'s own `low + (high - low) * u`. So
    `_uniform(low, high, rng.random())` is that scalar call: it draws the
    same double from the stream, without `uniform`'s argument handling.
    Neither call touches the spare 32-bit half that a small `rng.integers`
    draw leaves, so both interleave with such draws alike."""
    return low + (high - low) * u


def _random_decay_params(rng: np.random.Generator) -> DecayParams:
    def rate() -> GaussianRate:
        mean = _uniform(0.0, 5.0, rng.random())
        stddev = _uniform(0.1, 3.0, rng.random())
        f = _uniform(1e-6, 1.0, rng.random()) * peak_frequency(stddev)
        return GaussianRate(mean, stddev, f)

    return DecayParams(
        rate1=rate(),
        rate2=rate(),
        initial_energy=_uniform(1.0, 1e6, rng.random()),
        app_count=int(rng.integers(1, 21)),
        horizon=_uniform(0.01, 50.0, rng.random()),
    )


def decay_oracle(p: DecayParams) -> float:
    """Energy decay by adaptive quadrature of its defining integral,
    (E0 / apps) * integral of exp(-(lam1 + lam2) t) over [0, horizon]."""
    neg = -(invert_rate(p.rate1) + invert_rate(p.rate2))  # -lam * t is (-lam) * t
    exp = math.exp
    value = _quad(lambda t: exp(neg * t), 0.0, p.horizon, epsabs=1e-14, epsrel=1e-13)
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
        s1 = _uniform(0.2, 3.0, rng.random())
        s2 = _uniform(0.2, 3.0, rng.random())
        mean1 = _uniform(0.0, 3.0, rng.random())
        lam1 = mean1 + _uniform(0.0, 2.0 * s1, rng.random())
        bound = math.exp(-0.5 * ((lam1 - mean1) / s1) ** 2) / (2.0 * math.pi * s1 * s2)
        f1 = _uniform(1e-6, 1.0, rng.random()) * bound
        p = DecayParams(
            rate1=GaussianRate(mean1, s1, rate_frequency(mean1, s1, lam1)),
            rate2=GaussianRate(mean1, s2, peak_frequency(s2)),
            initial_energy=_uniform(1.0, 1e6, rng.random()),
            app_count=int(rng.integers(1, 21)),
            horizon=_uniform(0.01, 20.0, rng.random()),
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
    for u_mean, u_sd, u_lam in _uniform_draws(rng, grid, 3):
        mean = _uniform(0.0, 10.0, u_mean)
        stddev = _uniform(0.05, 5.0, u_sd)
        lam = mean + _uniform(0.0, 5.0 * stddev, u_lam)
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
    exp = math.exp

    def integrand(u):  # exp(-(z_peak + u)**2 / 2 - log_peak) without the cancellation
        return exp(-u * (0.5 * u + z_peak))

    points = [0.0] if lo < 0.0 < hi else None
    value = _quad(integrand, lo, hi, points=points, epsabs=0.0, epsrel=1e-12)
    value = value / SQRT_2PI * scale  # a half or whole mass stays exact
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
            request_rate=_uniform(0.1, 5.0, rng.random()),
            presence=_uniform(0.1, 1.0, rng.random()),
            horizon=_uniform(1.0, 100.0, rng.random()),
            parallel_links=int(rng.integers(1, 5)),
            mean_range=_uniform(10.0, 500.0, rng.random()),
            radio_range=_uniform(10.0, 500.0, rng.random()),
            range_stddev=_uniform(1.0, 200.0, rng.random()),
        )
        derived = transaction_count(p)
        errors.append(float(abs(derived - math.ceil(tx_oracle(p)))))
        printed = _transaction_count(p, "as-printed")
        if printed != derived:
            printed_diverged += 1
    note = f"as-printed variant diverges on {printed_diverged}/{grid} points (expected)"
    return _result("transaction ceiling vs double integral", errors, 0.0, note)


MIDPOINTS = 1_000_000
# exp(-0.5 * z * z) is exactly 0.0 beyond this many deviations: the exponent,
# below -748.8, is under the -745.14 at which the smallest subnormal rounds to 0.
MIDPOINT_WINDOW = 38.7
# The midpoint rule evaluates the leaves of numpy's summation tree, runs of at
# most this many nodes, one at a time in one reused buffer of this size (256 KB).
MIDPOINT_BLOCK = 32_768
# numpy's pairwise sum adds a run of at most this many elements without
# splitting it (its PW_BLOCKSIZE), so no leaf is cut shorter.
PAIRWISE_BLOCK = 128


def _pairwise_sum(leaf_sum, start: int, size: int, leaf: int) -> float:
    """The sum that `np.add.reduce` takes over `size` elements from `start`
    of a float array, without the array: numpy's pairwise tree, down to
    leaves of at most `leaf` elements, each summed by `leaf_sum(start, size)`.

    numpy splits a run of more than `PAIRWISE_BLOCK` elements at half its
    length, rounded down to a multiple of 8, and adds the sums of the two
    halves. Each run the tree reaches is split the same way inside it, so
    with `leaf` at least `PAIRWISE_BLOCK` and each leaf summed by numpy, the
    value is the whole array's sum bit for bit. (numpy adds that sum to 0.0,
    which changes only a sum of -0.0.)
    """
    if size <= leaf:
        return leaf_sum(start, size)
    half = size // 2
    half -= half % 8
    return (_pairwise_sum(leaf_sum, start, half, leaf)
            + _pairwise_sum(leaf_sum, start + half, size - half, leaf))


class _MidpointNodes:
    """The densities at the `n` nodes of the midpoint rule for the range
    mass of `m` on [0, connect_range]: node i sits at `(i + 0.5) * step`.

    Only the nodes `lo` to `hi - 1`, within `MIDPOINT_WINDOW` deviations of
    the mean, are evaluated; every other node is the 0.0 its density would
    underflow to. The window is found by bisection on the same float steps.
    """

    def __init__(self, m: MobilityModel, n: int):
        step, mean, sd = m.connect_range / n, m.mean_range, m.range_stddev
        self.step, self.mean, self.sd = step, mean, sd

        def z(i: int) -> float:  # the chain's value at node i, before the square
            return ((i + 0.5) * step - mean) / sd

        # z never decreases along the nodes, so the window is one slice.
        lo = bisect_left(range(n), -MIDPOINT_WINDOW, key=z)
        self.lo, self.hi = lo, bisect_right(range(lo, n), MIDPOINT_WINDOW, key=z) + lo
        self.leaf = max(MIDPOINT_BLOCK, PAIRWISE_BLOCK)
        self.base = np.arange(min(self.leaf, self.hi - lo)) + 0.5
        self.buf = np.empty(min(self.leaf, n))

    def fill(self, start: int, out: np.ndarray) -> None:
        """Write the densities at nodes `start` to `start + len(out) - 1`, a
        run of at most `self.leaf` nodes, into `out`.

        The window's nodes are `base` plus the index of the first of them:
        exact small floats equal to those of `arange(n) + 0.5`, so no node
        array is allocated. Every ufunc writes into `out`.
        """
        size = len(out)
        a = min(max(self.lo - start, 0), size)
        b = max(min(self.hi - start, size), a)
        out[:a] = 0.0
        out[b:] = 0.0
        w = out[a:b]
        np.add(self.base[:b - a], start + a, out=w)
        np.multiply(w, self.step, out=w)
        np.subtract(w, self.mean, out=w)
        np.divide(w, self.sd, out=w)
        np.square(w, out=w)
        w *= -0.5
        np.exp(w, out=w)
        np.divide(w, self.sd * SQRT_2PI, out=w)

    def leaf_sum(self, start: int, size: int) -> float:
        """numpy's sum of the densities at `size` nodes from `start`: 0.0,
        without evaluating any, when the run lies wholly outside the window."""
        if self.hi <= start or start + size <= self.lo:
            return 0.0
        out = self.buf[:size]
        self.fill(start, out)
        return float(out.sum())


def midpoint_range_mass(m: MobilityModel, n: int = MIDPOINTS) -> float:
    """Midpoint rule for the Gaussian range mass on [0, connect_range], on
    `n` nodes, with no n-node buffer.

    The node values are summed in numpy's pairwise order (`_pairwise_sum`),
    one leaf of its tree of at most `MIDPOINT_BLOCK` nodes at a time, each
    evaluated into one reused buffer (`_MidpointNodes`); a leaf wholly
    outside the window is 0.0 and not evaluated. The value is bit-identical
    to evaluating `exp(-0.5 * z * z) / (sd * sqrt(2 pi))` at every midpoint
    and summing the n-element array.
    """
    nodes = _MidpointNodes(m, n)
    return _pairwise_sum(nodes.leaf_sum, 0, n, nodes.leaf) * m.connect_range / n


def quad_range_mass(m: MobilityModel) -> float:
    """Range mass on [0, connect_range] by adaptive quadrature of `m.pdf`,
    broken at the mean and at mean +- 8 sd, so that the quadrature finds a
    density far narrower than the range."""
    mean, sd, r = m.mean_range, m.range_stddev, m.connect_range
    points = [x for x in (mean - 8.0 * sd, mean, mean + 8.0 * sd) if 0.0 < x < r]
    return _quad(m.pdf, 0.0, r, points=points or None, epsabs=1e-13, epsrel=1e-12)


def check_in_range_probability(grid: int, rng: np.random.Generator) -> CheckResult:
    """Closed-form in-range probability vs a dense midpoint rule, and, on
    narrow densities (sd 0.1 to 100) over ranges up to 1e23 that no midpoint
    rule resolves, vs breakpoint quadrature."""
    errors = []
    for u in _uniform_draws(rng, max(1, grid // 20), 5):
        m = MobilityModel(
            connect_range=_uniform(10.0, 500.0, u[0]),
            radio_range=_uniform(10.0, 500.0, u[1]),
            mean_range=_uniform(10.0, 500.0, u[2]),
            range_stddev=_uniform(1.0, 200.0, u[3]),
        )
        c = ConnectivityParams(presence_prob=_uniform(0.0, 1.0, u[4]))
        mid = 1.0 - c.presence_prob * midpoint_range_mass(m)
        errors.append(abs(in_range_probability(m, c) - mid))
    for i, u in enumerate(_uniform_draws(rng, max(1, grid // 2), 4)):
        sd = 10.0 ** _uniform(-1.0, 2.0, u[0])
        mean = 10.0 ** _uniform(3.0, 6.0, u[1])
        # Every other range lies within 8 sd of the mean, so part of the mass is cut.
        r = 10.0 ** _uniform(1.0, 23.0, u[2]) if i % 2 == 0 else mean + sd * _uniform(-8.0, 8.0, u[2])
        m = MobilityModel(connect_range=r, radio_range=r, mean_range=mean, range_stddev=sd)
        c = ConnectivityParams(presence_prob=_uniform(0.0, 1.0, u[3]))
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
