"""Discrete-time, deterministic fleet simulation under two ledger regimes.

Baseline regime (broadcast): every active vehicle issues `lam` ledger
updates per slot, each counted once per (sender, receiver) pair across the
other N-1 vehicles, and pays the full hop-count energy every slot.

Clustered regime: members push their `lam` updates to the cluster head over
a single hop; heads accumulate the records and perform a global exchange
(one batched transfer to each other head) every `global_exchange_period`
slots at the configured hop count. Head rotation and offload stamping are
driven by the controller cascade each slot.

With `use_load_model_exchange` the global transfer volume is instead emitted
from the cumulative Gaussian-mobility load integral, so the horizon total
matches the analytic transaction ceiling; in that mode the transaction
metric counts global transfers only (member updates are accumulated
records, not ledger transfers).

Energy bookkeeping is itemised per slot into security, transmission and
ledger-update components; a vehicle that cannot fund its full slot charge
stops transacting (residual energy never goes negative and never rises).

Vehicle state is kept as arrays over the run, and both regimes step through
one slot loop; only the clustered run attaches the controller. The loop
steps the stretches between events as blocks, each repeating a cycle of
slot traces. After a slot stepped alone (its charge, critical marking and
`evaluate_slot`) that changed no head by the fixed verdict, the cycle is
its trace and every head is kept. After one that changed the head of
every cluster with a trace row, where the controller tells that the next
slot hands each head back (`FIXED_SWAP`), the cycle is the trace of that
hand-back and then the slot's own, and each such head alternates between
its two vehicles, a pair. A block runs while every active vehicle can pay
its charge and no watched head falls below the critical level: the heads
not yet critical and both vehicles of each pair. With pairs it also needs
each new head to pay its security charge and the returning vehicle to be
rated strictly above every other member of its cluster after the charge.
Exchange slots stay inside every block. A head that paid the exchange is
mostly not rated above the others on the next slot, which breaks its pair:
where that rating check alone fails, the block asks the controller for the
member it would pick there (`FleetState.handed_on`), from the block's own
columns: the pair clusters' active vehicles, with their residuals after
that slot's charge. Where each pick can pay its security charge and hands
back on the next slot, the block goes on with the new pairs, and charges
the slots after the break up to the slot after the next exchange first,
where the next break mostly falls. The vehicles' residuals, critical flags
and heads are written back once, when the block ends. The first slot that
breaks any other condition ends the block and runs alone; so does slot 1,
which carries the join charge, and a break the picks do not carry on.
Each slot's itemised sums add the vehicles' shares left to right, heads
before members, in id order, so they round as one addition per vehicle
would. A head adds no transactions: the running transaction count adds each
member's pushes to its head, in id order, and then the slot's global
transfers.

Where that order cannot matter, the loop does not keep it. Each run tests
once, from the amounts it adds, whether its transaction counts stay on an
exact grid (`_on_grid`): every amount is a multiple of one power of two g,
and no partial sum can reach 2**53 * g. The amounts are a member's
increment, the only one per payer (`lam * slot * (N - 1)` in the baseline,
`lam * slot` or, under the load model, 0 in the clustered run), and the
whole transfers. The reach is slots x vehicles x that increment plus the
transfers (vehicles**2 a slot, or the load model's count at the last slot).
On the grid every sum is exact, so every order gives the same bits, and the
count adds each slot's total. Off it the count adds each member's increment
and then the slot's transfers, as one chain built in chunks of `BLOCK_CELLS`
cells.

A block's residuals are one 2-D array of sequential subtractions: a row
per slot for its charge by role and, with pairs, a second for the new
heads' security charge; a column per distinct member residual, per paying
head and per vehicle of a pair, and with pairs one per pair cluster's
richest other member, read for the rating. Members pay alike, so members
whose residuals have the same bits keep the same bits, and a column per
member would only repeat those subtractions; across a break only the
returning vehicle joins them and its pick leaves them. Member columns are
kept until the block ends, with or without a member: each break adds at
most one a pair, and the block's cap is recomputed from its columns, so
they stay bounded. A block charges up to `BLOCK_CELLS // (rows a slot x
(columns + 1))` slots (1 489 for a keep of 20 heads and one member
residual), so it mostly runs from a slot stepped alone to the next event; a
block that reaches its cap is followed by another.

A slot stepped alone works in vehicle-sized buffers reused from slot to
slot: each residual minus its charge, written as one subtraction with the
heads' charge gathered and scattered over it, and the flags of the
vehicles that paid. The heads are the controller's, which head changes
update in place. The controller keeps each cluster's active count and the
loop hands it the vehicles that stop, so no slot counts the fleet again;
the join flags are set on slot 1 only. The new heads pay their security
charge with one fancy-index subtraction.

While it runs, the loop records two things: one bool array of the slots'
exchange flags, and a list of spans, one per slot stepped alone and one per
block. A span is (first slot, slots, paying heads, payers, head changes,
new heads that paid their security charge); its slots share all of these.
Nothing reads a run's columns before it ends, so `_columns` builds them
once, from the spans and flags: each slot's item sums are one of at most
two rows of its span, picked by its exchange flag, the global transfers are
array expressions, and the running transaction and energy counts are each
one `np.add.accumulate`, which adds strictly in order and so gives the bits
of one addition a slot. So a slot stepped alone and a block take one
bookkeeping path, at the run's end.

A run is recorded as columns: one list per `SlotRow` field
(`SlotColumns`), and for each slot stepped alone the columnar `SlotTrace`
that `evaluate_slot` returns. A block's slots repeat its cycle of those
traces, so `RunReport` keeps the cycle and the slot range. The totals,
`comparison_csv` and the new-head security charge read the columns;
`RunReport.rows`, `trace` and `vehicles` build their dataclasses only when
read.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import compress

import numpy as np

from .analytics import (
    DecayParams,
    GaussianRate,
    TxCountParams,
    conservation_factor,
    energy_decay,  # noqa: F401  benchmarks/tracing.py wraps fleetchain.sim.energy_decay
)
from .controller import (
    FIXED_KEEP,
    FIXED_SWAP,
    ControllerConfig,
    FleetState,
    SlotTrace,
    TraceRow,
    VehicleArrays,
    _Segments,
    evaluate_slot,
    slot_count,
    tx_limit_value,
    whole_quotient,
)
from .energy import EnergyParams, HestonParams, ledger_update_energy, transmission_energy
from .mobility import (
    ConnectivityParams,
    ConstraintReport,
    ConstraintSet,
    MobilityModel,
    check_constraints,
    range_mass,
)

REGIME_BASELINE = "baseline"
REGIME_CLUSTERED = "clustered"

# The largest run a `SimConfig` accepts. A run keeps every vehicle's state
# and one row per slot, and per cluster and slot, in memory; the caps admit
# the 100 clusters x 100 vehicles x 1000 slots run.
MAX_VEHICLES = 100_000
MAX_SLOTS = 100_000
MAX_VEHICLE_SLOTS = 10_000_000

# Cells of a block's widest array: a stretch of slots between events is
# charged in blocks of BLOCK_CELLS // (rows x (columns + 1)) slots. A keep
# takes one row a slot and a swap two; the columns are the distinct member
# residuals, the paying heads and the pairs' vehicles, and for a swap each
# pair cluster's richest other member. A block's float arrays then take
# about 256 KiB at most, which stays in cache. Off the exact transaction
# grid, a run's transaction chain is added in chunks of BLOCK_CELLS cells.
BLOCK_CELLS = 2**15

# The (cur, new) pairs of a block that keeps every head.
_NO_PAIRS = (np.empty(0, dtype=np.intp),) * 2

RUN_CSV_COLUMNS = ("t", "regime", "transactions_cum", "energy_cum_J", "ch_changes", "offloads")
COMPARISON_EXTRA_COLUMNS = ("tx_reduction_pct", "energy_conservation_pct")


@dataclass
class VehicleState:
    id: int
    cluster: int
    residual_energy: float
    stay_time: float
    radio_range: float
    role: str = "member"
    critical: bool = False
    active: bool = True
    tx_limit: float | None = None
    initial_energy: float = 0.0
    joined: bool = False


@dataclass(frozen=True)
class SimConfig:
    """Full scenario parameterisation; defaults follow the reference setting."""

    cluster_count: int = 5
    vehicles_per_cluster: int = 10
    app_count: int = 10
    lam: float = 2.0
    lam1: float | None = None
    lam2: float | None = None
    gamma: float | None = None
    message_kinds: int = 3
    hops: int = 10
    energy_per_record: float = 2580.0
    energy_per_request: float = 2580.0
    security_cost: float = 0.625
    excess_ratio: float = 2.0
    energy_stddev: float = 1.0
    request_change_rate: float = 0.0
    horizon: float = 100.0
    slot: float = 1.0
    connect_range: float = 500.0
    mean_range: float = 300.0
    radio_range: float = 300.0
    range_stddev: float = 1.0
    presence: float = 1.0
    threshold_prob: float = 0.0
    stay_time: float | None = None
    links_per_ledger: int = 1
    parallel_links: int = 1
    records_per_tx: int = 1
    initial_energy: float = 1.0e9
    critical_fraction: float = 0.1
    seed: int = 0
    global_exchange_period: int | None = None
    use_load_model_exchange: bool = False
    expected_rate: float | None = None
    expected_score: float | None = None
    vehicle_tx_limit: float | None = None
    required_tx_limit: float | None = None
    op_mean1: float = 0.0
    op_sigma1: float = 1.0
    op_mean2: float = 0.0
    op_sigma2: float = 1.0
    op_frequency1: float | None = None
    op_frequency2: float | None = None
    # Optional per-message-kind (E_C * gamma)_j products overriding the
    # uniform transmission term.
    per_kind_cost: tuple[float, ...] | None = None

    def __post_init__(self):
        # The parameter objects built last check the fields they take; the
        # rest is checked first. `decay_params()` is left out, so that
        # `analytics` can report an infeasible rate as a row.
        for name, optional in _NUMBER_FIELDS:
            value = getattr(self, name)
            try:
                finite = optional and value is None or math.isfinite(value)
            except (TypeError, OverflowError):  # not a number, or an int past float range
                finite = False
            if not finite or type(value) is bool and name not in _INT_FIELDS:
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            if value is not None and name not in _INT_FIELDS:  # numpy holds no int past int64
                object.__setattr__(self, name, float(value))
        for name in _INT_FIELDS:
            value = getattr(self, name)
            low = 0 if name in ("hops", "records_per_tx", "seed") else 1
            if value is not None and (type(value) is not int or value < low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.per_kind_cost is not None:  # a scenario's JSON list: a frozen config hashes
            object.__setattr__(self, "per_kind_cost", tuple(self.per_kind_cost))
            if any(type(cost) is bool for cost in self.per_kind_cost):
                raise ValueError(
                    f"per_kind_cost entries must be numbers, got {self.per_kind_cost!r}")
        if type(self.use_load_model_exchange) is not bool:
            raise ValueError(
                f"use_load_model_exchange must be true or false, got {self.use_load_model_exchange!r}"
            )
        if min(self.initial_energy, self.security_cost, self.vehicle_tx_limit or 0) < 0:
            raise ValueError("initial_energy, security_cost and vehicle_tx_limit must be >= 0")
        if not 0 <= self.critical_fraction <= 1:
            raise ValueError(f"critical_fraction must be in [0, 1], got {self.critical_fraction!r}")
        if min(self.op_sigma1, self.op_sigma2) <= 0:
            raise ValueError("op_sigma1 and op_sigma2 must be > 0")
        if not 0 < self.slot <= self.horizon or not math.isfinite(self.horizon / self.slot):
            raise ValueError("need 0 < slot <= horizon and a finite horizon / slot")
        if not math.isfinite(self.stay_value / self.slot):
            raise ValueError("need a finite stay_time / slot")
        vehicles, slots = self.n_vehicles, self.n_slots
        if vehicles > MAX_VEHICLES or slots > MAX_SLOTS or vehicles * slots > MAX_VEHICLE_SLOTS:
            raise ValueError(
                f"run too large: {vehicles} vehicles x {slots} slots; the caps are "
                f"{MAX_VEHICLES} vehicles, {MAX_SLOTS} slots, {MAX_VEHICLE_SLOTS} vehicle-slots"
            )
        if not math.isfinite(self.initial_energy * vehicles):  # bounds every sum of energies
            raise ValueError("initial_energy x vehicles must be finite")
        if self.use_load_model_exchange and not math.isfinite(
            self.load_model_rate() * self.horizon * self.horizon / 2.0
        ):
            raise ValueError("the load model's transfers over the horizon must be finite")
        for build in (self.mobility, self.connectivity, self.heston_params,
                      self.tx_count_params, self.constraint_set):
            build()
        self.energy_params(self.hops)

    # Derived values; None fields follow the reference coupling.
    @property
    def n_vehicles(self) -> int:
        return self.cluster_count * self.vehicles_per_cluster

    @property
    def lam1_value(self) -> float:
        return self.lam1 if self.lam1 is not None else max(self.lam - 1.0, 0.0)

    @property
    def lam2_value(self) -> float:
        return self.lam2 if self.lam2 is not None else self.lam

    @property
    def gamma_value(self) -> float:
        return self.gamma if self.gamma is not None else self.lam

    @property
    def stay_value(self) -> float:
        return self.stay_time if self.stay_time is not None else self.horizon

    @property
    def period_value(self) -> int:
        if self.global_exchange_period is not None:
            return self.global_exchange_period
        return max(1, whole_quotient(self.stay_value, self.slot, math.ceil))

    @property
    def expected_rate_value(self) -> float:
        return self.expected_rate if self.expected_rate is not None else self.lam

    @property
    def n_slots(self) -> int:
        return slot_count(self.horizon, self.slot)

    def load_model_rate(self) -> float:
        """Growth of the load model's cumulative transfers: `rate * t**2 / 2` by time t."""
        mass = range_mass(self.mobility(), upper=self.radio_range)
        return self.tx_count_params().total_rate() * self.presence * mass / self.parallel_links

    def mobility(self) -> MobilityModel:
        return MobilityModel(
            connect_range=self.connect_range,
            radio_range=self.radio_range,
            mean_range=self.mean_range,
            range_stddev=self.range_stddev,
        )

    def connectivity(self) -> ConnectivityParams:
        return ConnectivityParams(
            presence_prob=self.presence,
            threshold_prob=self.threshold_prob,
        )

    def constraint_set(self) -> ConstraintSet:
        return ConstraintSet(
            op_time=self.horizon, stay_time=self.stay_value, request_bound=self.gamma_value
        )

    def gaussian_rates(self) -> tuple[GaussianRate, GaussianRate]:
        if self.op_frequency1 is not None:
            r1 = GaussianRate(self.op_mean1, self.op_sigma1, self.op_frequency1)
        else:
            r1 = GaussianRate.at_rate(self.op_mean1, self.op_sigma1, self.lam1_value)
        if self.op_frequency2 is not None:
            r2 = GaussianRate(self.op_mean2, self.op_sigma2, self.op_frequency2)
        else:
            r2 = GaussianRate.at_rate(self.op_mean2, self.op_sigma2, self.lam2_value)
        return r1, r2

    def decay_params(self) -> DecayParams:
        r1, r2 = self.gaussian_rates()
        return DecayParams(
            rate1=r1,
            rate2=r2,
            initial_energy=self.initial_energy,
            app_count=self.app_count,
            horizon=self.horizon,
        )

    def heston_params(self) -> HestonParams:
        return HestonParams(
            request_rate=self.lam,
            excess_energy_ratio=self.excess_ratio,
            energy_stddev=self.energy_stddev,
            request_change_rate=self.request_change_rate,
        )

    def tx_count_params(self) -> TxCountParams:
        return TxCountParams(
            cluster_count=self.cluster_count,
            links_per_ledger=self.links_per_ledger,
            request_rate=self.lam,
            presence=self.presence,
            horizon=self.horizon,
            parallel_links=self.parallel_links,
            mean_range=self.mean_range,
            radio_range=self.radio_range,
            range_stddev=self.range_stddev,
        )

    def energy_params(self, hops: int) -> EnergyParams:
        return EnergyParams(
            per_record_energy=self.energy_per_record,
            per_request_energy=self.energy_per_request,
            hop_count=hops,
            message_kinds=self.message_kinds,
            request_rate=self.gamma_value,
            records_per_tx=self.records_per_tx,
            per_kind_cost=self.per_kind_cost,
        )


# (name, accepts None) of each int and float field, and the int fields.
_NUMBER_FIELDS = [(f.name, f.type.endswith("None")) for f in fields(SimConfig)
                  if f.type.startswith(("int", "float"))]
_INT_FIELDS = [f.name for f in fields(SimConfig) if f.type.startswith("int")]

# The fields `run_baseline` reads, and those its report reads from its
# config (`RunReport.vehicles` and `.trace`): `stay_time`, `radio_range`,
# `vehicle_tx_limit`, `initial_energy`, `horizon` and `slot`. Configs that
# agree on these run the same baseline.
BASELINE_FIELDS = (
    "cluster_count", "vehicles_per_cluster", "app_count", "lam", "gamma", "message_kinds",
    "hops", "energy_per_record", "energy_per_request", "security_cost", "horizon", "slot",
    "radio_range", "stay_time", "records_per_tx", "initial_energy", "vehicle_tx_limit",
    "per_kind_cost",
)
_baseline_values = operator.attrgetter(*BASELINE_FIELDS)


def baseline_key(cfg: SimConfig) -> str:
    """The `repr` of `cfg`'s `BASELINE_FIELDS` values. Equal keys hold the
    same values bit for bit; values equal only as numbers (0.0 and -0.0, or
    1 and 1.0 in `per_kind_cost`) give different keys."""
    return repr(_baseline_values(cfg))


@dataclass(frozen=True)
class SlotRow:
    t: float
    transactions_cum: float
    energy_cum: float
    ch_changes: int
    offloads: int
    security_j: float
    transmission_j: float
    update_j: float


@dataclass
class SlotColumns:
    """A run's per-slot values, one list per `SlotRow` field in slot order.
    A slot's `offloads` equal its `ch_changes`; every other value is a float."""

    t: list[float]
    transactions_cum: list[float]
    energy_cum: list[float]
    ch_changes: list[int]
    security_j: list[float]
    transmission_j: list[float]
    update_j: list[float]


@dataclass
class RunReport:
    regime: str
    slots: SlotColumns = field(repr=False)
    # The controller's trace as (the cycle of slot traces it repeats, first
    # slot, last slot): slot s takes the rows of trace (s - first) % cycle
    # length, with their slot set to s. A slot stepped alone starts a run of
    # its one trace and a swap block one of the two it alternates; a block
    # that continues the last run's cycle extends that run.
    trace_runs: list[tuple[tuple[SlotTrace, ...], int, int]] = field(repr=False,
                                                                     compare=False)
    # The run's final vehicle arrays and its config, read by `vehicles`.
    final: tuple[_SimVehicles, SimConfig] = field(repr=False, compare=False)

    @property
    def rows(self) -> list[SlotRow]:
        """The per-slot rows, built when read."""
        c = self.slots
        return [
            SlotRow(t, tx, energy, changes, changes, security, transmission, update)
            for t, tx, energy, changes, security, transmission, update in zip(
                c.t, c.transactions_cum, c.energy_cum, c.ch_changes, c.security_j,
                c.transmission_j, c.update_j)
        ]

    @property
    def vehicles(self) -> list[VehicleState]:
        """The final vehicle states, built when read."""
        v, cfg = self.final
        return v.states(cfg)

    @property
    def trace(self) -> list[TraceRow]:
        """The controller's trace rows in slot order, built when read. A
        change row's offload is stamped one slot before its slot."""
        rows, slot = [], self.final[1].slot
        for traces, first, last in self.trace_runs:
            cycle = [trace.cells() for trace in traces]
            for s in range(first, last + 1):
                offload = max(s * slot - slot, 0.0)
                rows += [TraceRow(s, cluster, rule, action, old, new,
                                  0.0 if new is None else offload)
                         for cluster, rule, action, old, new, _ in cycle[(s - first) % len(cycle)]]
        return rows

    @cached_property
    def csv_half(self) -> tuple[list[str], list[str], str]:
        """The `t` and `transactions_cum` cells, as `_cells` writes them,
        and the report's rows of a comparison CSV, whose reduction cells it
        leaves empty: the baseline half of every comparison it is part of.
        Formatted when first read and kept, as one baseline report can serve
        several sweep points (`shared_baselines`)."""
        c, regime = self.slots, self.regime
        t, tx = _cells(c.t), _cells(c.transactions_cum)
        rows = "".join([f"{a},{regime},{x},{e},{n},{n},,\r\n" for a, x, e, n in zip(
            t, tx, _cells(c.energy_cum), c.ch_changes)])
        return t, tx, rows

    @property
    def transactions_total(self) -> float:
        column = self.slots.transactions_cum
        return column[-1] if column else 0.0

    @property
    def energy_total(self) -> float:
        column = self.slots.energy_cum
        return column[-1] if column else 0.0

    @property
    def ch_changes_total(self) -> int:
        return sum(self.slots.ch_changes)


@dataclass(eq=False)
class _SimVehicles(VehicleArrays):
    """The run's vehicle arrays plus the state only the simulator reads."""

    joined: np.ndarray

    def states(self, cfg: SimConfig) -> list[VehicleState]:
        roles = ["ch" if h else "member" for h in self.head.tolist()]
        stay, radio_range, tx_limit, energy = (
            cfg.stay_value, cfg.radio_range, cfg.vehicle_tx_limit, cfg.initial_energy
        )
        return [
            VehicleState(vid, cluster, residual, stay, radio_range, role, critical, active,
                         tx_limit, energy, joined)
            for vid, cluster, residual, role, critical, active, joined in zip(
                self.id.tolist(),
                self.cluster.tolist(),
                self.residual.tolist(),
                roles,
                self.critical.tolist(),
                self.active.tolist(),
                self.joined.tolist(),
            )
        ]


def _init_vehicles(cfg: SimConfig, clustered: bool) -> _SimVehicles:
    """Vehicle `id` is its index; clustered runs start with each cluster's
    lowest id as head."""
    n = cfg.n_vehicles
    ids = np.arange(n, dtype=np.int64)
    return _SimVehicles(
        id=ids,
        cluster=ids // cfg.vehicles_per_cluster,
        residual=np.full(n, cfg.initial_energy, dtype=float),
        radio_range=np.full(n, cfg.radio_range, dtype=float),
        tx_limit=np.full(n, tx_limit_value(cfg.vehicle_tx_limit)),
        head=(ids % cfg.vehicles_per_cluster == 0) if clustered else np.zeros(n, dtype=bool),
        critical=np.zeros(n, dtype=bool),
        active=np.ones(n, dtype=bool),
        joined=np.zeros(n, dtype=bool),
    )


def _on_grid(amounts: Iterable[float], reach: float) -> bool:
    """Whether every sum of `amounts` is exact: each amount is a multiple of
    one power of two g, and `reach`, the largest magnitude a partial sum can
    take, is below 2**53 * g. Sums on the grid give the same bits in any
    order. A non-finite or negative amount is off the grid."""
    grid = math.inf
    for x in amounts:
        if not math.isfinite(x) or x < 0:
            return False
        if x:
            num, den = x.as_integer_ratio()
            grid = min(grid, (num & -num) / den)
    return reach < 2.0**53 * grid


def _payer_sums(n_heads: int, n_members: int, head: tuple, member: tuple) -> list[float]:
    """A slot's (security, transmission, update) sums: the items of
    `n_heads` heads at `head` and then `n_members` members at `member`,
    added left to right."""
    items = np.empty((n_heads + n_members + 1, 3))
    items[0] = 0.0
    items[1 : n_heads + 1] = head
    items[n_heads + 1 :] = member
    return items.cumsum(axis=0)[-1].tolist()


class _SlotLoop:
    """One regime's run, stepped one slot or one block of slots at a time.

    `member`, `head_local` and `head_global` are each role's (transmission,
    update) per payer; heads pay `head_global` on exchange slots. A member
    adds `member_tx` transactions a slot and a head none; the global
    transfers add the rest. Exchanges fall every `period_value` slots, or,
    with a `load_rate`, on the slots where the load model's cumulative
    transfers pass a whole number. Only with a `controller` are critical
    vehicles marked, heads rotated and each new head charged its security
    cost.
    """

    def __init__(
        self,
        cfg: SimConfig,
        vehicles: _SimVehicles,
        member: tuple[float, float],
        head_local: tuple[float, float],
        head_global: tuple[float, float],
        member_tx: float,
        load_rate: float | None = None,
        controller: tuple[FleetState, ControllerConfig] | None = None,
    ):
        n, n_slots = vehicles.id.size, cfg.n_slots
        self.cfg, self.v, self.member_tx, self.n_slots = cfg, vehicles, member_tx, n_slots
        self.load_rate, self.controller = load_rate, controller
        # Reused by every slot stepped alone: each vehicle's residual minus
        # its charge, and whether it paid.
        self.after = np.empty(n)
        self.paid = np.empty(n, dtype=bool)
        # The flagged heads; once the controller has indexed the clusters,
        # its `heads`, which head changes update in place.
        self.heads = vehicles.head.nonzero()[0]
        self.n_active = int(np.count_nonzero(vehicles.active))
        # No slot of the run divides a period past its last slot; capped,
        # the period stays in numpy's int64 for `_exchanges`.
        self.period = min(cfg.period_value, n_slots + 1)
        self.critical_level = cfg.critical_fraction * cfg.initial_energy
        # The load model's whole transfers emitted so far.
        self.emitted_prev = 0.0
        # What the run records, read once at its end (`_columns`): its spans
        # of slots that share their payers (`_span`), and each slot's
        # exchange flag, by slot.
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.exchange = np.zeros(n_slots + 1, dtype=bool)
        self.trace_runs: list[tuple[tuple[SlotTrace, ...], int, int]] = []
        # The next block's cycle of slot traces, the next slot's first, and
        # its (cur, new) pairs: one trace and none for a keep, two for a swap.
        self.cycle: tuple[SlotTrace, ...] = ()
        self.pairs = _NO_PAIRS
        # The distinct item sums of the run's slots (`_sums`), and each one's
        # position by its payers, whether it is slot 1 (the join charge),
        # whether it is an exchange slot and its new heads' security charges.
        self.sum_rows: list[tuple[float, float, float]] = []
        self.slot_sums: dict[tuple, int] = {}
        # The cost table, by whether the slot is slot 1: a member's cost,
        # and a head's by whether the slot is an exchange slot. A cost is
        # one payer's (security, transmission, update) items and its charge,
        # `(security + transmission) + update`. Every vehicle that pays
        # slot 1 joins and one that cannot stops, so only slot 1 carries the
        # join charge.
        self.costs = {}
        for first in (False, True):
            sec = cfg.app_count * cfg.security_cost + (cfg.security_cost if first else 0.0)
            member_cost, local, exchange = (
                ((sec, t, u), (sec + t) + u) for t, u in (member, head_local, head_global))
            self.costs[first] = member_cost, {False: local, True: exchange}
        # Whether the transaction count stays on an exact grid (`_on_grid`)
        # for the whole run; then its sums are taken in any order. Every
        # term of the reach is on the grid, so its float value is exact
        # below 2**53 * g and at least that above it. The transfers are
        # whole numbers: at most vehicles**2 a slot, or the load model's
        # cumulative count at the last slot.
        transfers = n_slots * n * n if load_rate is None else self._due(n_slots).item()
        self.exact_tx = _on_grid([1.0, member_tx], n_slots * n * member_tx + transfers)

    def run(self, regime: str) -> RunReport:
        n_slots = self.n_slots
        s, block = 1, False
        while s <= n_slots:
            if not block:
                block = self._single(s)
                s += 1
            else:
                # A block cut short of its size cap stops before an event;
                # that slot runs alone. One that reached its cap is followed
                # by another block.
                ran, block = self._block(s, n_slots - s + 1)
                s += ran
        return RunReport(regime, self._columns(), self.trace_runs, (self.v, self.cfg))

    def _single(self, s: int) -> bool:
        """Step slot s alone; return whether a block may follow it, and if
        so set the `cycle` and `pairs` it repeats. After a fixed keep the
        cycle is the slot's trace. After a fixed swap it is the trace of
        the next slot, which hands each head back
        (`FleetState.handed_back`), and then the slot's own, and the pairs
        are (new head, old head); it does not start where a vehicle to take
        a head back stopped."""
        v = self.v
        n_heads, payers = self._charge_one(s)
        changes = paid = 0
        follow = True
        if self.controller is not None:
            np.less(v.residual, self.critical_level, out=v.critical)
            fleet, ctrl = self.controller
            trace = evaluate_slot(fleet, ctrl, s)
            cycle = (trace,)
            self.trace_runs.append((cycle, s, s))
            self.heads = fleet.heads
            new = list(compress(trace.new, trace.change))
            changes = len(new)
            if new:
                # A new head pays one security charge when it can fund it.
                cost = self.cfg.security_cost
                new = np.array(new)
                new = new[v.residual[new] >= cost]
                v.residual[new] -= cost
                paid = new.size
            follow = fleet.fixed == FIXED_KEEP
            if follow:
                self.cycle, self.pairs = cycle, _NO_PAIRS
            elif fleet.fixed == FIXED_SWAP and self.cfg.lam > 0:
                # The block's first slot hands each head back (at lam 0,
                # where no vehicle pays a slot, swaps run alone). Vehicle
                # ids are positions in the arrays.
                self.cycle = fleet.handed_back(trace), trace
                self.pairs = np.array(trace.new), np.array(trace.old)
                # A vehicle that stopped takes over no head.
                follow = bool(v.active[self.pairs[1]].all())
        self._span(s, 1, n_heads, payers, changes, paid)
        return follow

    def _block(self, s: int, k: int) -> tuple[int, bool]:
        """Step up to k slots from s as one block (`_Block`), ending at its
        size cap or before its first event (see the module docstring);
        return how many slots it stepped and whether it reached its cap.

        Slot s repeats the first trace of `cycle`, the next slot the next
        one, and so on; with `pairs` (cur, new), each pair cluster's head
        goes from cur to new and back, one change a slot. Exchange slots
        stay inside: on them the heads pay the exchange charge, and each
        slot's sums are those of its kind. The rating, floor, security and
        charge checks run on every slot, the first too. A slot on which the
        rating check alone fails is a break of the pairs; where the block
        carries it (`_Block.carry`), it charges the slots up to the one
        after the next exchange first, and the rest only if no event comes."""
        if self.cfg.lam <= 0:  # no vehicle pays, and only keeps form blocks
            if self.controller is not None:
                np.less(self.v.residual, self.critical_level, out=self.v.critical)
                self._extend_run(self.cycle, s, s + k - 1)
            self._span(s, k, 0, 0, 0, 0)
            return k, True
        block = _Block(self, s, k)
        seg, w = 0, block.k
        while True:
            j, broke = block.charge(seg, w)
            if j == w - seg and w < block.k:
                w = block.k  # no break by the slot after the exchange: charge them all
                continue
            if not broke or not block.carry(seg, j):
                break
            seg, j = seg + j + 1, 0
            if seg == block.k:
                break
            # A head that pays the exchange mostly breaks its pair on the
            # next slot: the next segment ends there.
            ahead = block.exchange[seg : block.k]
            i = int(ahead.argmax())
            w = min(block.k, seg + i + 2) if ahead[i] else block.k
        ran = block.write_back(seg, j)
        return ran, ran == block.k

    def _extend_run(self, cycle: tuple[SlotTrace, ...], first: int, last: int) -> None:
        """Record that slots first .. last repeat `cycle` from its first
        trace on, extending the last trace run where it repeats the same
        cycle."""
        if last < first:
            return
        traces, start, _ = self.trace_runs[-1]
        if traces is cycle:
            self.trace_runs[-1] = (cycle, start, last)
        else:
            self.trace_runs.append((cycle, first, last))

    # `_charge_one` stays beside `_block`: on a slot where no vehicle stops
    # a one-slot block gives the same bits, but on a 10 x 50 baseline fleet
    # it costs about five times as much a call (25-29 us against 5-9 us over
    # four series). The 24 fleet-churn paired runs of seed 1 step 117 slots
    # alone, 69 of them clustered, so it would add about 2 ms to their
    # 0.04 s (2-vCPU Xeon, CPython 3.11, numpy 2.4).
    def _charge_one(self, s: int) -> tuple[int, int]:
        """Charge slot s alone: every active vehicle that can pay does and
        the rest stop. Record its exchange flag and return how many heads
        and how many vehicles paid.

        The `after` buffer gets every vehicle's residual minus its charge,
        a head's charge in place of a member's; an inactive vehicle's entry
        is masked out by `paid`. Only on a slot where some vehicle stops are
        the `active` flags written, through the controller when there is
        one, which keeps each cluster's active count."""
        v, heads = self.v, self.heads
        if self.cfg.lam <= 0:  # no vehicle transacts, so none pays
            return 0, 0
        if self.load_rate is None:
            exchange = s % self.period == 0
        else:
            exchange = self._due(s).item() > self.emitted_prev
        self.exchange[s] = exchange
        member, head = self.costs[s == 1]
        after = np.subtract(v.residual, member[1], out=self.after)
        after[heads] = v.residual[heads] - head[exchange][1]
        # A residual minus a charge is >= 0 exactly when it covers the charge.
        paid = np.greater_equal(after, 0.0, out=self.paid)
        paid &= v.active
        payers = int(np.count_nonzero(paid))
        if payers < self.n_active:
            stopped = (v.active > paid).nonzero()[0]
            if self.controller is None:
                v.active[stopped] = False
            else:
                self.controller[0].deactivate(stopped)
            self.n_active = payers
        np.copyto(v.residual, after, where=paid)
        if s == 1:  # every vehicle that pays slot 1 joins, and only those pay later
            v.joined |= paid
        return int(np.count_nonzero(paid[heads])), payers

    def _span(self, s: int, k: int, n_heads: int, payers: int, changes: int, paid: int) -> None:
        """Record slots s .. s + k - 1, on each of which `payers` vehicles
        paid, `n_heads` heads among them, and `changes` heads changed, of
        which `paid` new heads paid their security charge."""
        self.spans.append((s, k, n_heads, payers, changes, paid))
        if self.load_rate is not None and n_heads:
            # The load model's count never falls: by the last slot its heads
            # have emitted that slot's count.
            self.emitted_prev = max(self.emitted_prev, self._due(s + k - 1).item())

    def _sums(self, n_heads, payers, first, exchange, paid) -> int:
        """The position in `sum_rows` of a slot's (security, transmission,
        update) sums, that `payers` vehicles paid, `n_heads` heads first, on
        slot 1 (`first`) or not and on an exchange slot or not, and on which
        `paid` new heads paid their security charge: the payers' items added
        left to right, heads before members, in id order, and then one
        security charge per new head. Computed once per key."""
        # Only a head's cost depends on the exchange: with no head paying,
        # both kinds of slot add the same items.
        exchange = exchange and n_heads > 0
        key = (n_heads, payers, first, exchange, paid)
        row = self.slot_sums.get(key)
        if row is None:
            member, head = self.costs[first]
            security, transmission, update = _payer_sums(n_heads, payers - n_heads,
                                                         head[exchange][0], member[0])
            for _ in range(paid):
                security += self.cfg.security_cost
            row = self.slot_sums[key] = len(self.sum_rows)
            self.sum_rows.append((security, transmission, update))
        return row

    def _columns(self) -> SlotColumns:
        """The run's columns, from its spans and exchange flags. Each slot's
        sums are one of at most two rows of its span, picked by its exchange
        flag, and slots with the same sums share their float objects. The
        running energy and transaction counts each add in order, one
        addition a slot (`np.add.accumulate`); off the exact transaction
        grid, the transactions add each member's increment and then the
        slot's global transfers, as one chain in chunks of `BLOCK_CELLS`
        cells. Heads add no transactions."""
        n_slots, spans = self.n_slots, self.spans
        exchange = self.exchange[1:]
        n_on = np.add.reduceat(exchange, [span[0] - 1 for span in spans]).tolist()
        # Per span: its sums' rows off and on an exchange slot, its members,
        # its heads and their C(C - 1) pairs; a flag no slot of the span has
        # takes the other's.
        table, lengths, changes = [], [], []
        for (s, k, n_heads, payers, n_changes, paid), on in zip(spans, n_on):
            off = self._sums(n_heads, payers, s == 1, False, paid) if on < k else None
            on = self._sums(n_heads, payers, s == 1, True, paid) if on else off
            table.append((off if off is not None else on, on, payers - n_heads, n_heads,
                          n_heads * (n_heads - 1)))
            lengths.append(k)
            changes += [n_changes] * k
        off, on, members, heads, pairs = np.array(table, dtype=np.int64).repeat(lengths, axis=0).T
        picks = np.where(exchange, on, off)
        rows = self.sum_rows
        security, transmission, update = np.array(rows, dtype=object).T.take(picks, axis=1).tolist()
        # The global transfers: the pairs on an exchange slot, or what the
        # load model emits by each slot on which heads paid.
        if self.load_rate is None:
            transfers = np.where(exchange, pairs, 0.0)
        else:
            transfers = np.zeros(n_slots)
            paying = heads.nonzero()[0]
            emitted = np.zeros(paying.size + 1)
            emitted[1:] = self._due(paying + 1)
            transfers[paying] = np.diff(np.maximum.accumulate(emitted))
        # The running energy and transaction counts, from 0.
        cum = np.zeros((2, n_slots + 1))
        cum[0, 1:] = np.array([(a + b) + c for a, b, c in rows]).take(picks)
        if self.exact_tx:
            cum[1, 1:] = members * self.member_tx + transfers
            np.add.accumulate(cum, axis=1, out=cum)
        else:
            np.add.accumulate(cum[0], out=cum[0])
            # Cell ends[i] - 1 of the chain holds slot i's transfers, after
            # its members' increments.
            ends = np.cumsum(members + 1)
            total = 0.0
            for lo in range(0, ends[-1], BLOCK_CELLS):
                hi = min(lo + BLOCK_CELLS, ends[-1])
                a, b = ends.searchsorted((lo, hi), side="right")
                flat = np.full(hi - lo + 1, self.member_tx)
                flat[0] = total
                at = ends[a:b] - lo
                flat[at] = transfers[a:b]
                np.add.accumulate(flat, out=flat)
                cum[1, a + 1 : b + 1] = flat[at]
                total = flat[-1]
        energy, txs = cum[:, 1:].tolist()
        slot = self.cfg.slot
        return SlotColumns(
            t=[s * slot for s in range(1, n_slots + 1)],
            transactions_cum=txs,
            energy_cum=energy,
            ch_changes=changes,
            security_j=security,
            transmission_j=transmission,
            update_j=update,
        )

    def _due(self, slots):
        """The load model's whole transfers by the end of `slots`, an int
        or an int array: its cumulative count, rounded up."""
        t = slots * self.cfg.slot
        return np.ceil(self.load_rate * t * t / 2.0)

    def _exchanges(self, s: int, k: int, heads: int) -> np.ndarray:
        """For each of slots s .. s + k - 1, with `heads` heads paying each,
        whether it is an exchange slot, written into the run's flags and
        returned as a view of them. Under the load model a slot is an
        exchange slot where its count (`_due`) passes the most emitted
        before it, and with heads it emits its count."""
        slots = np.arange(s, s + k)
        flags = self.exchange[s : s + k]
        if self.load_rate is None:
            np.equal(slots % self.period, 0, out=flags)
            return flags
        due = self._due(slots)
        before = self.emitted_prev
        if heads:
            before = np.maximum.accumulate(np.concatenate(([before], due[:-1])))
        return np.greater(due, before, out=flags)


class _Block:
    """The state of one block of `_SlotLoop._block` at lam > 0.

    Its array's columns are the f other paying heads, the pairs' vehicles
    by the slots they head (A on even block slots, up to a; B on odd ones,
    up to b), each pair cluster's richest other member (up to c; -inf
    where there is none) and the member columns, one per distinct member
    residual by bit pattern (0.0 and -0.0 stay apart). Each segment of
    slots is charged from the row `start`; `low` holds the least residual
    each slot may leave a paying head with. From the first break on,
    `column` gives each active vehicle its column and `cand` lists the
    candidates (`_index`). Member columns are kept until the block ends,
    with or without a member: each break adds at most p of them, and the
    size cap is recomputed from `start.size`, so they stay bounded.

    Where the window after a carried break holds no event, `_block`
    charges again from the break; going on from the window's last row is
    equivalent. The residuals are the same sequential subtractions, and only
    the last new heads' flags differ, where the next event falls on the
    first slot after the window: that slot runs alone, and `_single` marks
    every vehicle again before a flag is read.

    Members mostly hold one residual bit pattern, often none; then the
    members take one column with no `np.unique`. `exchange` holds the
    block's exchange flags (`_SlotLoop._exchanges`); `write_back` records
    the slots it stepped as one span (`_SlotLoop._span`).
    """

    __slots__ = ("loop", "s", "p", "member", "cost", "fleet", "paired", "paying", "members",
                 "inverse", "f", "a", "b", "c", "rows", "k", "n_heads", "exchange", "head_charges",
                 "low", "start", "work", "A", "B", "column", "cand", "segs", "at_a", "at_b",
                 "cycle", "first")

    def __init__(self, loop: _SlotLoop, s: int, k: int):
        v, (cur, new), level = loop.v, loop.pairs, loop.critical_level
        self.loop, self.s, self.p = loop, s, cur.size
        self.member, self.cost = loop.costs[False][0][1], loop.cfg.security_cost
        heads = fixed = loop.heads[v.active[loop.heads]]
        if self.p:
            self.fleet = loop.controller[0]
            self.paired = np.zeros(loop.cfg.cluster_count, dtype=bool)
            self.paired[v.cluster[cur]] = True
            fixed = heads[~self.paired[v.cluster[heads]]]
        self.paying = np.concatenate((fixed, cur, new))
        self.members = v.active.copy()
        self.members[self.paying] = False
        residual = v.residual[self.members]
        bits = residual.view(np.int64)
        # Members mostly hold one residual, and then it is the one column.
        if np.count_nonzero(bits != bits[:1]):
            bits, self.inverse = np.unique(bits, return_inverse=True)
        else:
            bits, self.inverse = bits[:1], np.zeros(bits.size, dtype=np.intp)
        f = self.f = fixed.size
        a, b, c = self.a, self.b, self.c = f + self.p, f + 2 * self.p, f + 3 * self.p
        self.rows = 2 if self.p else 1
        k = self.k = max(1, min(k, BLOCK_CELLS // (self.rows * (c + bits.size + 1))))
        self.n_heads = heads.size
        self.exchange = loop._exchanges(s, k, heads.size)
        head = loop.costs[False][1]
        self.head_charges = np.where(self.exchange, head[True][1], head[False][1])[:, None]
        low = self.low = np.full((k if self.p else 1, b), level)
        low[:, :f][:, v.critical[fixed]] = 0.0
        rich = np.empty(0)
        if self.p:
            # A vehicle taking the head must also pay its security charge.
            low[1::2, f:a] = low[0::2, a:b] = max(level, self.cost)
            rich = np.full(loop.cfg.cluster_count, -np.inf)
            np.maximum.at(rich, v.cluster[self.members], residual)
            rich = rich[v.cluster[cur]]
        self.start = np.concatenate((v.residual[self.paying], rich, bits.view(float)))
        self.A, self.B, self.column = cur, new, None
        # The trace run the block's slots extend: slot s + i repeats trace
        # (s + i - first) % its length of `cycle`.
        self.cycle, self.first = loop.cycle, s

    def charge(self, seg: int, w: int) -> tuple[int, bool]:
        """Charge block slots seg .. w - 1 into `work`, from `start`: a row
        a slot for its charge by role and, with pairs, a second for the
        security charge of the vehicles taking the head. Return the first
        event among them, as its offset j from seg (w - seg where there is
        none), and whether the rating check alone fails there: a break."""
        f, a, b, c, p, rows, start = self.f, self.a, self.b, self.c, self.p, self.rows, self.start
        work = self.work = np.empty((rows * (w - seg) + 1, start.size))
        work[0] = start
        out = work[1:]
        out[::rows, :b] = self.head_charges[seg:w]
        out[::rows, b:] = self.member
        e = seg % 2  # 1 where the segment starts on an odd block slot
        if p:
            # A heads the even block slots and takes the head on odd ones;
            # B the other way round.
            heading, taking = (slice(a, b), slice(f, a)) if e else (slice(f, a), slice(a, b))
            out[1::2] = 0.0
            out[2::4, heading] = out[::4, taking] = self.member
            out[3::4, heading] = out[1::4, taking] = self.cost
        np.subtract.accumulate(work, axis=0, out=work)
        charged = work[1::rows]
        # With no pairs, residuals only fall: no event by the last slot
        # means none at all.
        if not p and (charged[-1, :b] >= self.low[0]).all() and (charged[-1, c:] >= 0.0).all():
            return w - seg, False
        # Each row's failed checks: the new heads' rating (ratings of slots
        # that a pair's B takes on even block slots and A on odd ones), the
        # paying heads' floors and security, and the members' charge.
        bad = np.empty((w - seg, p + b + start.size - c), dtype=bool)
        if p:
            rated = self.fleet.ratings(charged[:, f:c])
            o = 1 - e  # rows e, e + 2, ... are even block slots; o, o + 2, ... odd
            np.less_equal(rated[e::2, p : 2 * p], rated[e::2, 2 * p :], out=bad[e::2, :p])
            np.less_equal(rated[o::2, :p], rated[o::2, 2 * p :], out=bad[o::2, :p])
        np.less(charged[:, :b], self.low[seg:w], out=bad[:, p : p + b])
        np.less(charged[:, c:], 0.0, out=bad[:, p + b :])
        i = int(bad.argmax())
        if not bad.item(i):
            return w - seg, False
        j = i // bad.shape[1]
        return j, not np.count_nonzero(bad[j, p:])

    def carry(self, seg: int, j: int) -> bool:
        """Carry the break on block slot t = seg + j, where h heads and r
        was to take the head, if the controller hands each pair cluster's
        head to a member (`FleetState.handed_on`, from the slot's charge
        row) that can pay its security charge; return whether it did. Each
        pick takes r's column, r joins the members, and `start` becomes the
        row slot t leaves, the picks' security charge paid."""
        loop, fleet, t, after = self.loop, self.fleet, seg + j, self.work[2 * j + 1]
        if self.column is None:
            self._index()
        f, a, b, c, cand = self.f, self.a, self.b, self.c, self.cand
        at_h, at_r, r_cols = (self.at_b, self.at_a, slice(f, a)) if t % 2 else (
            self.at_a, self.at_b, slice(a, b))
        res = after[self.column[cand]]
        handed = fleet.handed_on(self.cycle[(self.s + t - self.first) % 2], self.s + t, cand,
                                 at_h, res, res >= loop.critical_level, self.segs)
        if handed is None:
            return False
        trace, picks = handed
        picked = res[picks]
        # A pick is rated at least as high as r, which can pay: it falls
        # short only on a rating tie. Both paid a member's charge (at least
        # this one) on slot t from a binade up, so near the charge their
        # residuals differ by an even number of its ulps, which normal
        # ratings tell apart; where all ratings are 0 or inf, r is the
        # lowest eligible id. Only subnormal ratings are left: they need a
        # decay estimate 2**1021 times a member's charge.
        if np.count_nonzero(picked < self.cost):
            return False
        taken = cand[picks]
        loop._extend_run(self.cycle, self.first, self.s + t - 1)
        self.cycle, self.first = (trace, fleet.handed_back(trace)), self.s + t
        # Each pick that was a member takes r's column; r joins the members.
        moved = picks != at_r
        returning = at_r[moved]
        self.column[taken[moved]] = self.column[cand[returning]]
        added = self._join(cand[returning], res[returning], after)
        if t % 2:
            self.A, self.at_a = taken, picks
        else:
            self.B, self.at_b = taken, picks
        # The next slots start from slot t's residuals, the picks' after
        # their security charge, and each pair cluster's richest member.
        res[at_h] = res[picks] = -np.inf
        start = self.start = np.concatenate(
            (after[:b], np.maximum.reduceat(res, self.segs.starts), after[c:], added))
        start[r_cols] = picked - self.cost
        self.k = t + 1 + min(self.k - t - 1, BLOCK_CELLS // (2 * (start.size + 1)))
        return True

    def _index(self) -> None:
        """At the first break: each active vehicle's column, and the
        candidates in (cluster, id) order, one segment per pair, with A's
        and B's positions among them."""
        v = self.loop.v
        self.column = np.empty(v.id.size, dtype=np.intp)
        self.column[self.paying] = np.arange(self.paying.size)
        self.column[self.members] = self.inverse + self.c
        # Vehicle ids follow the clusters, so id order is (cluster, id) order.
        cand = self.cand = (v.active & self.paired[v.cluster]).nonzero()[0]
        self.segs = _Segments.of_lengths(np.bincount(v.cluster[cand])[v.cluster[self.A]])
        self.at_a, self.at_b = cand.searchsorted(self.A), cand.searchsorted(self.B)

    def _join(self, joining: np.ndarray, residual: np.ndarray, after: np.ndarray) -> np.ndarray:
        """Give each vehicle at `joining`, whose residual is `residual`, the
        member column of `after` whose residual has its residual's bits, or
        a new one; return the new columns' residuals."""
        joined = residual.view(np.int64).tolist()
        known = dict(zip(after[self.c :].view(np.int64).tolist(), range(self.c, after.size)))
        added = [bits for bits in dict.fromkeys(joined) if bits not in known]
        known.update(zip(added, range(after.size, after.size + len(added))))
        self.column[joining] = [known[bits] for bits in joined]
        return np.array(added, dtype=np.int64).view(float)

    def write_back(self, seg: int, j: int) -> int:
        """End the block j slots into the segment from block slot seg:
        write back the residuals, the heads and the critical flags, record
        the slots, and return how many the block stepped."""
        loop, v, p, k = self.loop, self.loop.v, self.p, seg + j
        if k == 0:  # slot s runs alone and marks the critical vehicles again
            return 0
        end = self.work[self.rows * j] if j else self.start
        if self.column is None:
            v.residual[self.paying] = end[: self.b]
            v.residual[self.members] = end[self.c :][self.inverse]
        else:
            v.residual[v.active] = end[self.column[v.active]]
        if loop.controller is not None:
            np.less(v.residual, loop.critical_level, out=v.critical)
            if p:
                # The heads of slot s + k, and the pairs from there. The last
                # slot's new heads are marked from its charge row, before
                # their security charge; a break's picks are never critical.
                cur, new, cols = (self.B, self.A, slice(self.a, self.b)) if k % 2 else (
                    self.A, self.B, slice(self.f, self.a))
                v.critical[cur] = self.work[2 * j - 1, cols] < loop.critical_level if j else False
                if self.column is not None or k % 2:
                    self.fleet.hand_over(loop.pairs[0], cur)
                loop.pairs = cur, new
            loop._extend_run(self.cycle, self.first, self.s + k - 1)
            turn = (self.s + k - self.first) % len(self.cycle)
            loop.cycle = self.cycle[turn:] + self.cycle[:turn] if turn else self.cycle
        loop._span(self.s, k, self.n_heads, loop.n_active, p, p)
        return k


def run_baseline(cfg: SimConfig) -> RunReport:
    """Broadcast regime: full-mesh dissemination, full hop cost each slot."""
    vehicles = _init_vehicles(cfg, clustered=False)
    p_full = cfg.energy_params(cfg.hops)
    # Every vehicle is a member: (transmission, update) per slot, and one
    # transaction per update and other vehicle. No vehicle is a head, so no
    # head cost or exchange is counted.
    costs = (
        cfg.app_count * transmission_energy(p_full) * cfg.slot,
        cfg.app_count * ledger_update_energy(p_full),
    )
    member_tx = cfg.lam * cfg.slot * (cfg.n_vehicles - 1)
    return _SlotLoop(cfg, vehicles, costs, costs, costs, member_tx).run(REGIME_BASELINE)


def run_clustered(cfg: SimConfig) -> RunReport:
    """Two-tier regime: one-hop local updates, batched global exchanges."""
    vehicles = _init_vehicles(cfg, clustered=True)
    fleet = FleetState(
        vehicles=vehicles,
        mobility=cfg.mobility(),
        connectivity=cfg.connectivity(),
        lam1=cfg.lam1_value,
        decay=cfg.decay_params(),
        heston=cfg.heston_params(),
        required_tx_limit=cfg.required_tx_limit,
    )
    ctrl = ControllerConfig(
        slot=cfg.slot,
        horizon=cfg.horizon,
        expected_rate=cfg.expected_rate_value,
        expected_score=cfg.expected_score,
    )

    p_local = cfg.energy_params(1)
    p_global = cfg.energy_params(cfg.hops)
    upd_local = cfg.app_count * ledger_update_energy(p_local)
    # (transmission, update) per payer; member updates are ledger transfers
    # unless the load model emits them.
    member = (cfg.app_count * transmission_energy(p_local) * cfg.slot, upd_local)
    head_global = (
        cfg.app_count * transmission_energy(p_global) * cfg.slot,
        cfg.app_count * ledger_update_energy(p_global),
    )
    member_tx = 0.0 if cfg.use_load_model_exchange else cfg.lam * cfg.slot
    load_rate = cfg.load_model_rate() if cfg.use_load_model_exchange else None
    loop = _SlotLoop(cfg, vehicles, member, (0.0, upd_local), head_global, member_tx,
                     load_rate, (fleet, ctrl))
    return loop.run(REGIME_CLUSTERED)


def _reduction_pct(base: float, other: float) -> float:
    if base == 0.0:
        return 0.0
    return 100.0 * (1.0 - other / base)


def _reduction_pcts(base: np.ndarray, other: np.ndarray) -> np.ndarray:
    """`_reduction_pct` of each pair of `base` and `other`, bit for bit, as
    one array expression. As with Python floats, a quotient or product past
    the float range is inf and inf / inf is NaN, with no warning."""
    with np.errstate(all="ignore"):
        return 100.0 * (1.0 - np.divide(other, base, out=np.ones(base.shape), where=base != 0.0))


@dataclass
class Comparison:
    """A paired run of `config`. Inside `shared_baselines`, `baseline` may
    be the one report of several comparisons whose configs share a
    `baseline_key`; its `final` then holds the first such config. Nothing
    changes a report once its run has returned it; `csv_half` only keeps
    the cells it formats."""

    config: SimConfig
    baseline: RunReport
    clustered: RunReport
    tx_reduction_pct: float
    energy_reduction_pct: float
    conservation_factor_pct: float
    assumptions: tuple[str, ...]
    constraints: ConstraintReport


def compare_reports(base: RunReport, other: RunReport) -> tuple[float, float]:
    """Total transaction and energy percentage deltas of `other` against `base`."""
    return (
        _reduction_pct(base.transactions_total, other.transactions_total),
        _reduction_pct(base.energy_total, other.energy_total),
    )


def baseline_assumptions(cfg: SimConfig) -> tuple[str, ...]:
    """The modelling choices the headline percentages depend on."""
    if cfg.use_load_model_exchange:
        exchange = (
            "global transfers are emitted from the cumulative Gaussian-mobility "
            "load integral (transaction metric counts global transfers only)"
        )
    else:
        exchange = (
            f"heads exchange batched ledgers every {cfg.period_value} slot(s); "
            "each exchange counts one transfer per (head, other head) pair"
        )
    capacity = ()
    if cfg.required_tx_limit is not None:
        capacity = (
            f"head capacity: a head whose tx limit is under {cfg.required_tx_limit:g} "
            "hands over to the best member whose limit covers it and whose radio "
            "range covers the connect range, else stays; no cluster split is modelled",
        )
    return (
        "baseline regime: full-mesh broadcast; every active vehicle issues "
        f"lam={cfg.lam:g} updates per slot, each counted per (sender, receiver) "
        f"pair across the other {cfg.n_vehicles - 1} vehicles, at hop count "
        f"{cfg.hops}",
        "baseline energy: app_count * (security + hops*kinds*E_C*gamma*slot + "
        "hops*records*E_R) per vehicle per operating slot",
        "clustered regime: members send their updates to the head over one hop; "
        + exchange,
        "clustered energy: members pay the one-hop charge; heads pay the local "
        "ledger-update charge off-exchange and the full-hop charge on exchange "
        "slots",
        "security: one fixed charge per app per operating slot, plus one per "
        "vehicle join and one per head change",
        "acknowledgements are energy-costed through the message kinds but not "
        "transaction-counted; transactions are ledger-transfer messages",
        "energy-conservation factor: general-operations share of the combined "
        "rate, lam1/(lam1+lam2); the raw simulated energy delta is reported "
        "alongside it",
    ) + capacity


# While a `shared_baselines` block is open: its baseline reports by key. A
# context variable, not an argument, so that `paired_comparison(cfg)` keeps
# its one argument, through which `benchmarks/operations.py` wraps it.
_shared: ContextVar[dict[str, RunReport] | None] = ContextVar("shared_baselines", default=None)


@contextmanager
def shared_baselines() -> Iterator[None]:
    """Within the block, `paired_comparison` runs the baseline once per
    `baseline_key` and gives that one report to every config with the key.
    The reports are dropped when the block ends, so two blocks, or a call
    outside any, share none."""
    token = _shared.set({})
    try:
        yield
    finally:
        _shared.reset(token)


def paired_comparison(cfg: SimConfig) -> Comparison:
    """Run both regimes with identical parameters and compare. Inside
    `shared_baselines`, the baseline runs once per `baseline_key`."""
    shared = _shared.get()
    if shared is None:
        base = run_baseline(cfg)
    else:
        key = baseline_key(cfg)
        base = shared.get(key)
        if base is None:
            base = shared[key] = run_baseline(cfg)
    clus = run_clustered(cfg)
    tx_red, energy_red = compare_reports(base, clus)
    r1, r2 = cfg.gaussian_rates()
    return Comparison(
        config=cfg,
        baseline=base,
        clustered=clus,
        tx_reduction_pct=tx_red,
        energy_reduction_pct=energy_red,
        conservation_factor_pct=100.0 * conservation_factor(r1, r2),
        assumptions=baseline_assumptions(cfg),
        constraints=check_constraints(cfg.constraint_set(), cfg.mobility(), cfg.connectivity()),
    )


def _cells(values: Iterable[float]) -> list[str]:
    """Floats as CSV cells: an integral one under 1e16 in magnitude as an
    int, any other by `repr`."""
    return [str(int(x)) if x.is_integer() and abs(x) < 1e16 else repr(x) for x in values]


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """`header` and `rows` as CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def comparison_csv(comp: Comparison, cells: dict | None = None) -> str:
    """The paired run as CSV text: a header, each baseline slot, then each
    clustered slot with the percentage reductions at it. The bytes are
    those `csv_text` writes; no cell needs quoting. Both runs share the
    slot times, so the `t` cells are formatted once, with the baseline half
    (`RunReport.csv_half`). A `cells` dict gets the `t` cells and each
    regime's `transactions_cum` cells, by the keys "t", "baseline" and
    "clustered"."""
    base, clus = comp.baseline.slots, comp.clustered.slots
    t, base_tx, base_rows = comp.baseline.csv_half
    clus_tx = _cells(clus.transactions_cum)
    if cells is not None:
        cells.update(t=t, baseline=base_tx, clustered=clus_tx)
    tx_red, energy_red = map(_cells, _reduction_pcts(
        np.array((base.transactions_cum, base.energy_cum), dtype=float),
        np.array((clus.transactions_cum, clus.energy_cum), dtype=float)).tolist())
    rows = [",".join(RUN_CSV_COLUMNS + COMPARISON_EXTRA_COLUMNS) + "\r\n", base_rows]
    regime = comp.clustered.regime
    rows += [f"{a},{regime},{tx},{e},{c},{c},{r},{q}\r\n" for a, tx, e, c, r, q in zip(
        t, clus_tx, _cells(clus.energy_cum), clus.ch_changes, tx_red,
        energy_red)]
    return "".join(rows)
