"""
Per-vehicle energy accounting
=============================

Walks the cost model bottom-up: ledger updates, transmission across message
kinds, and the per-vehicle total assembled from its three components.
"""

from fleetchain import EnergyParams, ledger_update_energy, transmission_energy

# Reference constants: 2580 J per record and per request, ten intermediate
# hops, three message kinds (send / receive / acknowledgement), two requests
# per blockchain per second; ten applications per vehicle, each with a
# 0.625 J security charge.
params = EnergyParams(
    per_record_energy=2580.0,
    per_request_energy=2580.0,
    hop_count=10,
    message_kinds=3,
    request_rate=2.0,
    records_per_tx=1,
)
APPS, SECURITY_COST = 10, 0.625

print("ledger update energy :", ledger_update_energy(params), "J")
print("transmission energy  :", transmission_energy(params), "J")

# The total per vehicle is the three components over all its applications;
# the split shows where the joules go: the transmission term dominates at
# any realistic request rate.
upd = APPS * ledger_update_energy(params)
tx = APPS * transmission_energy(params)
sec = APPS * SECURITY_COST
print("per-vehicle total    :", sec + tx + upd, "J per second")
print(f"split: security {sec:.2f} J, updates {upd:.0f} J, transmission {tx:.0f} J")
