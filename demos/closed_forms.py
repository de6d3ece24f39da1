"""
Closed forms against their numerical oracles
============================================

Rate inversion round-trips, the energy-decay integral, the synchronized-rate
estimate, and the transaction ceiling - each checked against quadrature.
"""

import math

from scipy import integrate

from fleetchain import (
    DecayParams,
    GaussianRate,
    TxCountParams,
    energy_decay,
    energy_decay_synchronized,
    estimate_synchronized_rate,
    invert_rate,
    transaction_count,
)

# A rate of 3.0 events/s observed through its Gaussian density inverts back
# exactly on the upper branch.
g = GaussianRate.at_rate(mean=1.0, stddev=0.8, rate=3.0)
print("inverted rate:", invert_rate(g), "(expected 3.0)")

# Energy decay: closed form vs adaptive quadrature of the defining integral.
p = DecayParams(
    rate1=GaussianRate.at_rate(0.0, 1.0, 1.0),
    rate2=GaussianRate.at_rate(0.0, 1.0, 2.0),
    initial_energy=1.0e9,
    app_count=10,
    horizon=100.0,
)
closed = energy_decay(p)
lam = invert_rate(p.rate1) + invert_rate(p.rate2)
oracle, _ = integrate.quad(lambda t: math.exp(-lam * t), 0, p.horizon)
oracle *= p.initial_energy / p.app_count
print(f"decay closed={closed:.6f} J, quadrature={oracle:.6f} J, "
      f"rel err={abs(closed - oracle) / oracle:.2e}")

# Synchronized case: the second rate is pinned by the joint density.
f1 = 0.5 / (2.0 * math.pi)
lam2 = estimate_synchronized_rate(p, 1.0, f1)
print(f"estimated second rate: {lam2:.6f}; synchronized decay: "
      f"{energy_decay_synchronized(p, 1.0, f1):.6f} J")

# Transaction ceiling, both typographic variants. The derived variant is the
# exact integral of the load model; the printed one drops the erf scaling.
txp = TxCountParams(
    cluster_count=5,
    links_per_ledger=1,
    request_rate=2.0,
    presence=1.0,
    horizon=50.0,
    parallel_links=1,
    mean_range=300.0,
    radio_range=300.0,
    range_stddev=40.0,
)
print("ceiling (as-derived):", transaction_count(txp))
print("ceiling (as-printed):", transaction_count(txp, "as-printed"))
