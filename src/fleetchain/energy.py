"""Per-vehicle blockchain energy accounting.

The cost model splits a vehicle's expenditure per application into three
parts:

* a fixed security charge (lightweight cryptographic checks),
* transmission energy ``hops * sum_j(per_request_energy * request_rate)_j``
  over the configured message kinds (send / receive / acknowledgement, ...),
* ledger-update energy ``hops * records_per_tx * per_record_energy``.

The simulator charges the last two per slot and the security charge when a
vehicle joins or takes head duty. `HestonParams` holds the drift terms the
controller's pre-decay rule compares against the decay closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _check_nonneg(value: float, name: str) -> None:
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class EnergyParams:
    """Energy constants of one vehicle and one blockchain app.

    `per_kind_cost` optionally overrides the uniform per-message-kind term
    with explicit ``per_request_energy * request_rate`` products, one per
    message kind.
    """

    per_record_energy: float
    per_request_energy: float
    hop_count: int
    message_kinds: int
    request_rate: float
    records_per_tx: int
    per_kind_cost: tuple[float, ...] | None = None

    def __post_init__(self):
        _check_nonneg(self.per_record_energy, "per_record_energy")
        _check_nonneg(self.per_request_energy, "per_request_energy")
        _check_nonneg(self.request_rate, "request_rate")
        for name in ("hop_count", "message_kinds", "records_per_tx"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.hop_count < 0 or self.records_per_tx < 0:
            raise ValueError("hop_count and records_per_tx must be >= 0")
        if self.message_kinds < 1:
            raise ValueError("message_kinds must be >= 1")
        if self.per_kind_cost is not None:
            if len(self.per_kind_cost) != self.message_kinds:
                raise ValueError("per_kind_cost must have one entry per message kind")
            for c in self.per_kind_cost:
                _check_nonneg(c, "per_kind_cost entry")


@dataclass(frozen=True)
class HestonParams:
    """Drift terms of the pre-decay rule (`controller.pre_decay_check`).

    The expected consumption drift per unit of accumulated decay is
    `request_rate`; `excess_energy_ratio * sqrt(energy_stddev) *
    request_change_rate` is the drift added per unit of time by request
    changes.
    """

    request_rate: float
    excess_energy_ratio: float
    energy_stddev: float
    request_change_rate: float = 0.0

    def __post_init__(self):
        _check_nonneg(self.request_rate, "request_rate")
        _check_nonneg(self.excess_energy_ratio, "excess_energy_ratio")
        _check_nonneg(self.energy_stddev, "energy_stddev")


def ledger_update_energy(p: EnergyParams) -> float:
    """Energy of one blockchain-update (ledger write) operation."""
    return p.hop_count * (p.records_per_tx * p.per_record_energy)


def transmission_energy(p: EnergyParams) -> float:
    """Energy of the transmission procedures across all message kinds."""
    if p.per_kind_cost is not None:
        per_kind = sum(p.per_kind_cost)
    else:
        per_kind = p.message_kinds * p.per_request_energy * p.request_rate
    return p.hop_count * per_kind
