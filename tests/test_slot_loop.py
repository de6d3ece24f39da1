"""Invariants of the array-backed slot loop over random small configs, and
the work the controller does on a run where no head changes."""

import fleetchain.controller
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetchain.sim import SimConfig, paired_comparison

configs = st.builds(
    SimConfig,
    cluster_count=st.integers(1, 4),
    vehicles_per_cluster=st.integers(1, 6),
    app_count=st.integers(1, 4),
    lam=st.sampled_from([0.0, 0.1, 1.0, 1.5, 2.0, 3.0]),
    hops=st.integers(0, 10),
    horizon=st.integers(1, 40).map(float),
    initial_energy=st.sampled_from([7e4, 3e5, 1e6, 2.5e7, 1e9]),
    critical_fraction=st.sampled_from([0.0, 0.1, 0.5, 0.9]),
    global_exchange_period=st.one_of(st.none(), st.integers(1, 5)),
    use_load_model_exchange=st.booleans(),
    vehicle_tx_limit=st.sampled_from([None, 10.0, 60.0]),
    required_tx_limit=st.sampled_from([None, 50.0]),
    seed=st.integers(0, 1000),
)


@settings(max_examples=60, deadline=None)
@given(configs)
def test_slot_loop_invariants(cfg):
    comp = paired_comparison(cfg)
    heads = [v.cluster for v in comp.clustered.vehicles if v.role == "ch"]
    assert sorted(heads) == list(range(cfg.cluster_count))
    for report in (comp.baseline, comp.clustered):
        residual = 0.0
        for v in report.vehicles:
            residual += v.residual_energy
        assert report.rows[-1].fleet_residual == residual
        prev_residual = cfg.initial_energy * cfg.n_vehicles
        prev_energy = 0.0
        for row in report.rows:
            itemised = row.security_j + row.transmission_j + row.update_j
            scale = max(1.0, prev_residual)
            assert abs(prev_residual - row.fleet_residual - itemised) <= 1e-12 * scale
            assert abs(row.energy_cum - prev_energy - itemised) <= 1e-12 * max(1.0, row.energy_cum)
            prev_residual, prev_energy = row.fleet_residual, row.energy_cum


def test_steady_run_builds_no_candidates(monkeypatch):
    counts = {"candidates": 0, "pre_decay": 0}
    candidate = fleetchain.controller.Candidate
    pre_decay_check = fleetchain.controller.pre_decay_check

    def counting_candidate(*args, **kwargs):
        counts["candidates"] += 1
        return candidate(*args, **kwargs)

    def counting_pre_decay(*args, **kwargs):
        counts["pre_decay"] += 1
        return pre_decay_check(*args, **kwargs)

    monkeypatch.setattr(fleetchain.controller, "Candidate", counting_candidate)
    monkeypatch.setattr(fleetchain.controller, "pre_decay_check", counting_pre_decay)
    # 5 clusters x 10 vehicles x 100 slots at the lam 2 tie: every head stays.
    comp = paired_comparison(SimConfig(lam=2.0, horizon=100.0))
    assert len(comp.clustered.trace) == 5 * 100
    assert comp.clustered.ch_changes_total == 0
    assert counts == {"candidates": 0, "pre_decay": 1}
