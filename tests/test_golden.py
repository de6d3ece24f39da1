"""Golden digests of paired runs: CSV text, controller trace and final vehicles.

Each config pins three sha256 digests, taken from the per-vehicle reference
implementation of the slot loop: the `comparison_csv` text, the clustered
trace rows and the final vehicle states of both regimes. A digest that no
longer matches means the simulation's output changed; it is never to be
regenerated to make this test pass.
"""

import hashlib

import pytest

from fleetchain.sim import SimConfig, comparison_csv, paired_comparison

CONFIGS = {
    # lam 2 is the exact OST tie, so the pre-decay rule keeps every head.
    "tie-3x10": dict(cluster_count=3, vehicles_per_cluster=10, lam=2.0, horizon=50.0,
                     global_exchange_period=10, seed=11),
    # lam 1.5 changes every head every slot; energies drain, critical heads
    # are handed over and vehicles deactivate in both regimes.
    "churn-drain": dict(cluster_count=2, vehicles_per_cluster=5, lam=1.5,
                        initial_energy=2.5e7, horizon=260.0),
    # 0.1 is not exactly representable, so running sums round on every slot.
    "lam-0.1": dict(cluster_count=3, vehicles_per_cluster=4, lam=0.1, horizon=40.0,
                    global_exchange_period=4, seed=3),
    "load-model": dict(lam=2.0, use_load_model_exchange=True, horizon=50.0,
                       range_stddev=80.0, mean_range=250.0, seed=1),
    # Head limit under the requirement and no qualified candidate: split.
    "limit-split": dict(lam=2.0, vehicle_tx_limit=10.0, required_tx_limit=50.0,
                        horizon=20.0, cluster_count=3, vehicles_per_cluster=4, seed=8),
    # Limit known and met: the OST rule keeps the head.
    "limit-keep": dict(lam=2.5, vehicle_tx_limit=100.0, required_tx_limit=50.0,
                       horizon=20.0, cluster_count=3, vehicles_per_cluster=4, seed=8),
    # Every vehicle of both regimes runs dry before the horizon.
    "full-drain": dict(cluster_count=2, vehicles_per_cluster=3, app_count=2, lam=1.0, hops=4,
                       horizon=30.0, global_exchange_period=3, initial_energy=3e5, seed=5),
}

GOLDEN = {
    "churn-drain": (
        "f78150230ff5be69c132cb110e725ed9a4d9dbc99ba2d527050c1a0d4ab46803",
        "59ee65d45d7579334e2e9eaa3244c2062922b746f3928348c835d1d7783ab525",
        "81cbf3145176dc59cb6341ed7376d792bd5f141da0df34e12a3adb0cf9a947c3",
    ),
    "full-drain": (
        "62656ea91e0b985a687d6b8cdaf8411671980881ed6c03796b0464d4cb7dd410",
        "73355b3a2b578aa0dbcd367b20b01265f5586998bf96076485ac367d40d6aa34",
        "8fddb7f2cb2a40a713d87e60d0c5fcb0e307d1db20e8e5c03fef6247abb65d5a",
    ),
    "lam-0.1": (
        "389b5a7d519276125fe5e2af3ec7a7bc8c737dc4d67de19989cb6b51c25f9a59",
        "113f96c0ff28bf61fffaeeb62635b17ce3b4fd431668deb24356fd43c1bea3d6",
        "1761e7758a7535874a139d7eb4cc951ec12a5874d9b47dcecec2324350d9a93f",
    ),
    "limit-keep": (
        "86c096acfa832cc86197e8f335f292198f298a827e5747190e17f239803e26ad",
        "62eb58f60427dffa30515bf7d40710a2e12f5e5f2105ea91791db59d47bdada9",
        "2e88d1b9aefdfb6920ca49de12d7c81ac08152e7c1f1102ce993c2c3ab17738c",
    ),
    "limit-split": (
        "b8769ad2f9b4abb3f78123049109ea92159c82b675769f2436c26a55023efe37",
        "e5a0261075288e824d2f60fffab57874768042d753fc14543699556413eba8c2",
        "2039734533adbb2681f887e42b94cb081e74e25a49a26235f182949ab97c1834",
    ),
    "load-model": (
        "e3377f82d83208a164852816e6c95459974950606309e6f9edac7abc2d1f866f",
        "00eb0c11241ce8fcf5705713dcc8f34ae5f2e7b72dc6b5359a939bf20cbc9d19",
        "5c267dd797878ff22f70903d1d85aaf50357b5c06e341795bc4b1c1197ed6c3a",
    ),
    "tie-3x10": (
        "310fc7e32da176df64717cb6faf9aced3fa784505009dba110ea3b44e1287792",
        "0982b0e8b18e4019edf5645d411816269e50e7b4fccfc83713ae7b6cbdb5537e",
        "31df371e03efb1485dd4abfa46d77eae3f8fd7dc9ba4aa1aca936759e058a292",
    ),
}


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digests(cfg: SimConfig) -> tuple[str, str, str]:
    comp = paired_comparison(cfg)
    trace = (
        f"{r.slot},{r.cluster},{r.rule_used},{r.action},{r.old_ch},{r.new_ch!r},"
        f"{r.offload_slot!r}"
        for r in comp.clustered.trace
    )
    vehicles = (
        f"{report.regime},{v.id},{v.cluster},{v.position!r},{v.residual_energy!r},"
        f"{v.stay_time!r},{v.radio_range!r},{v.role},{v.critical!r},{v.active!r},"
        f"{v.tx_limit!r},{v.initial_energy!r},{v.joined!r}"
        for report in (comp.baseline, comp.clustered)
        for v in report.vehicles
    )
    return _sha([comparison_csv(comp)]), _sha(trace), _sha(vehicles)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digests(name):
    csv_digest, trace_digest, vehicles_digest = digests(SimConfig(**CONFIGS[name]))
    want = GOLDEN[name]
    assert csv_digest == want[0], "comparison CSV changed"
    assert trace_digest == want[1], "controller trace changed"
    assert vehicles_digest == want[2], "final vehicle states changed"
