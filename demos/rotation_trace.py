"""
Cluster-head rotation on a scripted score dip
=============================================

One cluster of four vehicles runs ten decision slots. The observed score is
healthy except at slot 5, where it drops below the expected score: exactly
one head change fires there, with the offload stamped one slot earlier.
"""

from fleetchain import ConnectivityParams, ControllerConfig, FleetState, MobilityModel, run_controller
from fleetchain.sim import VehicleState

vehicles = [
    VehicleState(
        id=i,
        cluster=0,
        residual_energy=1000.0 - 10.0 * i,  # vehicle 1 has the best rating among members
        stay_time=10.0,
        radio_range=300.0,
        role="ch" if i == 0 else "member",
        initial_energy=1000.0,
    )
    for i in range(4)
]

fleet = FleetState(
    vehicles=vehicles,
    mobility=MobilityModel(connect_range=500, radio_range=300, mean_range=300, range_stddev=1.0),
    connectivity=ConnectivityParams(),
    score_default=5.0,
    score_schedule={5: 0.1},  # the engineered dip
)

cfg = ControllerConfig(slot=1.0, horizon=10.0, expected_score=1.0)
trace = run_controller(fleet, cfg)

print("slot  cluster  rule          action  old  new  offload")
for row in trace:
    new = "-" if row.new_ch is None else row.new_ch
    print(f"{row.slot:4d}  {row.cluster:7d}  {row.rule_used:12s}  {row.action:6s}  "
          f"{row.old_ch:3d}  {new!s:>3}  {row.offload_slot:7.1f}")

heads = [v.id for v in fleet.vehicles if v.cluster == 0 and v.role == "ch"]
print("\nhead after the run:", *heads)
