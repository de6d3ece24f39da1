import math

import numpy as np
import pytest

from fleetchain.energy import EnergyParams, ledger_update_energy, transmission_energy


def params(**overrides) -> EnergyParams:
    base = dict(
        per_record_energy=2580.0,
        per_request_energy=2580.0,
        hop_count=10,
        message_kinds=3,
        request_rate=2.0,
        records_per_tx=1,
    )
    base.update(overrides)
    return EnergyParams(**base)


def test_ledger_update_energy_values():
    assert ledger_update_energy(params(hop_count=10, records_per_tx=1)) == 25_800.0
    assert ledger_update_energy(params(hop_count=0, records_per_tx=5)) == 0.0
    assert ledger_update_energy(params(hop_count=1, records_per_tx=2)) == 5_160.0


def test_transmission_energy_values():
    p = params(hop_count=1, message_kinds=1, per_request_energy=2.0, request_rate=3.0)
    assert transmission_energy(p) == 6.0
    assert transmission_energy(params(request_rate=0.0)) == 0.0
    assert transmission_energy(params(hop_count=10, message_kinds=3, request_rate=2.0)) == 154_800.0


def test_transmission_energy_per_kind_override():
    p = params(hop_count=2, message_kinds=3, per_kind_cost=(1.0, 2.0, 3.0))
    assert transmission_energy(p) == 12.0
    with pytest.raises(ValueError):
        params(message_kinds=3, per_kind_cost=(1.0, 2.0))


def test_total_blockchain_energy_composition():
    # A vehicle's total per app is its security charge (0.625 J at the
    # reference point) plus the two charges.
    p = params()
    assert transmission_energy(p) == 154_800.0
    assert ledger_update_energy(p) == 25_800.0
    assert 0.625 + transmission_energy(p) + ledger_update_energy(p) == 180_600.625
    zero = params(
        per_record_energy=0.0,
        per_request_energy=0.0,
        request_rate=0.0,
    )
    assert transmission_energy(zero) == ledger_update_energy(zero) == 0.0


def test_linearity_in_hops():
    rng = np.random.default_rng(3)
    for _ in range(20):
        h = int(rng.integers(1, 30))
        p1 = params(hop_count=h, request_rate=float(rng.uniform(0, 5)))
        p2 = params(hop_count=2 * h, request_rate=p1.request_rate)
        assert ledger_update_energy(p2) == 2.0 * ledger_update_energy(p1)
        assert transmission_energy(p2) == 2.0 * transmission_energy(p1)


def test_total_energy_monotone_in_each_parameter():
    # Each constant the two charges read raises one of them and lowers none.
    base = params()
    bumped = [
        params(per_record_energy=3000.0),
        params(per_request_energy=3000.0),
        params(hop_count=11),
        params(message_kinds=4),
        params(request_rate=3.0),
        params(records_per_tx=2),
    ]
    for p in bumped:
        assert transmission_energy(p) >= transmission_energy(base)
        assert ledger_update_energy(p) >= ledger_update_energy(base)
        assert (transmission_energy(p) + ledger_update_energy(p)
                > transmission_energy(base) + ledger_update_energy(base))


def test_params_validation():
    with pytest.raises(ValueError):
        params(per_record_energy=-1.0)
    with pytest.raises(ValueError):
        params(hop_count=1.5)
    with pytest.raises(ValueError):
        params(message_kinds=0)
    with pytest.raises(ValueError):
        params(per_record_energy=math.inf)
