"""Deterministic simulator and analytics for blockchain-enabled vehicle fleets.

The library quantifies what distributed clustering saves over full-broadcast
ledger dissemination: per-vehicle energy accounting, connectivity and
constraint models, closed-form decay/transaction analytics with numerical
oracles, an optimal-stopping cluster-head controller, and a paired
baseline/clustered simulator.
"""

from .analytics import (
    DecayParams,
    GaussianRate,
    InfeasibleRateError,
    TxCountParams,
    conservation_factor,
    energy_decay,
    energy_decay_at_rates,
    energy_decay_synchronized,
    estimate_synchronized_rate,
    invert_rate,
    peak_frequency,
    rate_frequency,
    transaction_count,
)
from .controller import (
    ControllerConfig,
    FleetState,
    TraceRow,
    ost_score,
    ost_threshold,
    pre_decay_check,
    run_controller,
)
from .energy import (
    EnergyParams,
    HestonParams,
    ledger_update_energy,
    transmission_energy,
)
from .mobility import (
    ConnectivityParams,
    ConstraintReport,
    ConstraintSet,
    MobilityModel,
    check_constraints,
    in_range_probability,
)
from .scenario import ConfigError, Scenario, SweepAxis, expand, load_scenario
from .sim import (
    Comparison,
    RunReport,
    SimConfig,
    VehicleState,
    compare_reports,
    comparison_csv,
    paired_comparison,
    run_baseline,
    run_clustered,
)
from .validate import ValidationReport, run_validation

__version__ = "0.1.0"


__all__ = [
    "Comparison",
    "ConfigError",
    "ConnectivityParams",
    "ConstraintReport",
    "ConstraintSet",
    "ControllerConfig",
    "DecayParams",
    "EnergyParams",
    "FleetState",
    "GaussianRate",
    "HestonParams",
    "InfeasibleRateError",
    "MobilityModel",
    "RunReport",
    "Scenario",
    "SimConfig",
    "SweepAxis",
    "TraceRow",
    "TxCountParams",
    "ValidationReport",
    "VehicleState",
    "check_constraints",
    "compare_reports",
    "comparison_csv",
    "conservation_factor",
    "energy_decay",
    "energy_decay_at_rates",
    "energy_decay_synchronized",
    "estimate_synchronized_rate",
    "expand",
    "in_range_probability",
    "invert_rate",
    "ledger_update_energy",
    "load_scenario",
    "ost_score",
    "ost_threshold",
    "paired_comparison",
    "peak_frequency",
    "pre_decay_check",
    "rate_frequency",
    "run_baseline",
    "run_clustered",
    "run_controller",
    "transaction_count",
    "transmission_energy",
]
