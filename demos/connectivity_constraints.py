"""
In-range probability, transfer score and the operating constraints
==================================================================

The movement density integrates against the presence probability to give
the in-range probability; the transfer score scales it across clusters,
vehicles and applications; the constraint report says whether a setting is
operable at all.
"""

from fleetchain import (
    ConnectivityParams,
    ConstraintSet,
    MobilityModel,
    check_constraints,
    in_range_probability,
    transfer_function,
)

# A narrow movement density centred on the connect range: half the mass
# sits beyond it, so the in-range probability lands at one half.
preset = MobilityModel(connect_range=300.0, radio_range=300.0, mean_range=300.0, range_stddev=1.0)
c = ConnectivityParams(presence_prob=1.0, receiver_prob=1.0)
p = in_range_probability(preset, c)
print("in-range probability (density centred on the connect range):", round(p, 6))
print("transfer score over 5 clusters x 10 vehicles x 10 apps:",
      transfer_function(preset, c, clusters=5, vehicles=10, apps=10))

# The default density is a Gaussian centred on the mean connection range.
# Widening the deviation pushes mass outside the integration range and
# raises the in-range probability.
print("\nrange_stddev -> in-range probability")
for stddev in (10.0, 50.0, 150.0, 400.0):
    m = MobilityModel(connect_range=500.0, radio_range=300.0, mean_range=300.0,
                      range_stddev=stddev)
    print(f"  {stddev:6.0f}  {in_range_probability(m, c):.6f}")

# Constraint checking: a request bound of 0.6 against a stay share of
# 5/10 = 0.5 violates the rate constraint; violations are data, not errors.
cs = ConstraintSet(
    op_time=10.0,
    stay_time=5.0,
    request_bound=0.6,
    transfer_error=((0.0, 0.1), (6.0, 0.4)),
)
report = check_constraints(cs, preset, c)
print("\nconstraint report:")
print("  request rate ok :", report.request_rate_ok)
print("  stay time ok    :", report.stay_time_ok)
print("  threshold ok    :", report.threshold_ok)
print("  in-range prob   :", round(report.in_range_prob, 6))
print("  error integral  :", round(report.transfer_error_integral, 6))
print("  all satisfied   :", report.satisfied)
