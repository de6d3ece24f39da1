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
count adds each slot's total.

A block's residuals are one 2-D array of sequential subtractions: a row
per slot for its charge by role and, with pairs, a second for the new
heads' security charge; a column per distinct member residual, per paying
head and per vehicle of a pair, and with pairs one per pair cluster's
richest other member, read for the rating. Members pay alike, so members
whose residuals have the same bits keep the same bits, and a column per
member would only repeat those subtractions; across a break only the
returning vehicle joins them and its pick leaves them. On the transaction
grid a block charges up to `BLOCK_CELLS // (rows a slot x (columns + 1))`
slots (1 489 for a keep of 20 heads and one member residual), so it mostly
runs from a slot stepped alone to the next event; a block that reaches its
cap is followed by another. Off that grid it charges at most `BLOCK_CELLS
// vehicles` slots, adding the members' increments in order in a buffer
reused from block to block.

A slot stepped alone works in vehicle-sized buffers reused from slot to
slot: each residual minus its charge, written as one subtraction with the
heads' charge gathered and scattered over it, and the flags of the
vehicles that paid. The heads are the controller's, which head changes
update in place. The controller keeps each cluster's active count and the
loop hands it the vehicles that stop, so no slot counts the fleet again;
the join flags are set on slot 1 only. The new heads pay their security
charge with one fancy-index subtraction.

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
from itertools import accumulate, compress

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
# charged in blocks of BLOCK_CELLS // (rows x (columns + 1)) slots, and off
# the exact transaction grid of at most BLOCK_CELLS // vehicles. A keep takes
# one row a slot and a swap two; the columns are the distinct member
# residuals, the paying heads and the pairs' vehicles, and for a swap each
# pair cluster's richest other member. A block's float arrays then take
# about 256 KiB at most, which stays in cache.
BLOCK_CELLS = 2**15

# The (cur, new) pairs of a block that keeps every head.
_NO_PAIRS = (np.empty(0, dtype=np.intp),) * 2
# The member columns a break adds where no member joins.
_NO_COLUMNS = np.empty(0)

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

    t: list[float] = field(default_factory=list)
    transactions_cum: list[float] = field(default_factory=list)
    energy_cum: list[float] = field(default_factory=list)
    ch_changes: list[int] = field(default_factory=list)
    security_j: list[float] = field(default_factory=list)
    transmission_j: list[float] = field(default_factory=list)
    update_j: list[float] = field(default_factory=list)


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
        n = vehicles.id.size
        self.cfg, self.v, self.member_tx = cfg, vehicles, member_tx
        self.load_rate, self.controller = load_rate, controller
        # Reused by every slot stepped alone: each vehicle's residual minus
        # its charge, and whether it paid.
        self.after = np.empty(n)
        self.paid = np.empty(n, dtype=bool)
        # The flagged heads; once the controller has indexed the clusters,
        # its `heads`, which head changes update in place.
        self.heads = vehicles.head.nonzero()[0]
        self.n_active = int(np.count_nonzero(vehicles.active))
        self.period = cfg.period_value
        self.critical_level = cfg.critical_fraction * cfg.initial_energy
        self.tx_cum = self.e_cum = 0.0
        self.emitted_prev = 0
        self.slots = SlotColumns()
        self.trace_runs: list[tuple[tuple[SlotTrace, ...], int, int]] = []
        # The next block's cycle of slot traces, the next slot's first, and
        # its (cur, new) pairs: one trace and none for a keep, two for a swap.
        self.cycle: tuple[SlotTrace, ...] = ()
        self.pairs = _NO_PAIRS
        # A slot's item sums, by its payers, whether it is slot 1 (the join
        # charge) and whether it is an exchange slot.
        self.slot_sums: dict[tuple, list[float]] = {}
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
        n_slots = cfg.n_slots
        if load_rate is None:
            transfers = n_slots * n * n
        else:
            last = n_slots * cfg.slot
            transfers = load_rate * last * last / 2.0
            transfers = math.ceil(transfers) if math.isfinite(transfers) else math.inf
        self.exact_tx = _on_grid([1.0, member_tx], n_slots * n * member_tx + transfers)
        # Off the transaction grid a block adds its members' increments in
        # order in a buffer a fleet wide per slot, reused from block to block.
        if not self.exact_tx:
            self.increments = np.empty(max(1, min(n_slots, BLOCK_CELLS // n)) * (n + 1) + 1)
        # The slots the last block could step: those left, or fewer by its
        # size cap.
        self.size = 0

    def run(self, regime: str) -> RunReport:
        n_slots = self.cfg.n_slots
        s, block = 1, False
        while s <= n_slots:
            if not block:
                block = self._single(s)
                s += 1
            else:
                ran = self._block(s, n_slots - s + 1)
                # A block cut short of its size stops before an event; that
                # slot runs alone. One that reached its size cap is followed
                # by another block.
                block = ran == self.size
                s += ran
        self.slots.t = [s * self.cfg.slot for s in range(1, n_slots + 1)]
        return RunReport(regime, self.slots, self.trace_runs, (self.v, self.cfg))

    def _single(self, s: int) -> bool:
        """Step slot s alone; return whether a block may follow it, and if
        so set the `cycle` and `pairs` it repeats. After a fixed keep the
        cycle is the slot's trace. After a fixed swap it is the trace of
        the next slot, which hands each head back
        (`FleetState.handed_back`), and then the slot's own, and the pairs
        are (new head, old head); it does not start where a vehicle to take
        a head back stopped."""
        v = self.v
        (security, transmission, update), tx = self._charge_one(s)
        changes, follow = 0, True
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
                # A new head pays one security charge when it can fund it;
                # the slot's sum adds one charge per payer.
                cost = self.cfg.security_cost
                new = np.array(new)
                new = new[v.residual[new] >= cost]
                v.residual[new] -= cost
                for _ in range(new.size):
                    security += cost
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
        self._record_one(security, transmission, update, tx, changes)
        return follow

    def _block(self, s: int, k: int) -> int:
        """Step up to k slots from s as one block, ending at its size cap
        or before its first event (see the module docstring); return how
        many slots it stepped. `size` gets the slots it could step: k, or
        fewer by its cap.

        Slot s repeats the first trace of `cycle`, the next slot the next
        one, and so on; with `pairs` (cur, new), each pair cluster's head
        goes from cur to new and back, one change a slot. Exchange slots
        stay inside: on them the heads pay the exchange charge, and each
        slot's sums are those of its kind. The rating, floor, security and
        charge checks run on every slot, the first too. The columns are the
        other paying heads, the pairs' vehicles by the slots they head (A
        on even block slots, B on odd ones), each pair cluster's richest
        other member (-inf where there is none) and the distinct member
        residuals (by bit pattern, so 0.0 and -0.0 stay apart).

        A slot on which the rating check alone fails, after a charge every
        vehicle pays with every floor held, is the break of the pairs: the
        controller hands each pair cluster's head to the member it picks
        (`FleetState.handed_on`), read from the slot's row: at the first
        break, the block gives each vehicle its column and lists the pair
        clusters' active vehicles as the candidates. Where every pick can
        pay its security charge and the picks hand back on the next slot,
        the block charges that slot's security; each pick takes the
        returning vehicle's column, and the returning vehicle joins the
        member column with its residual's bits, or a new one, while a member
        column left with no member is dropped. It charges the slots after
        the break from there, with the same charges a slot, up to the slot
        after the next exchange first. Otherwise the slot runs alone. The
        residuals, the heads and the critical flags are written when the
        block ends; the flags are left as its last slot marked them, after
        its charge."""
        v, (cur, new), cost = self.v, self.pairs, self.cfg.security_cost
        p = cur.size
        self.size = k
        # The trace run the block's slots extend: slot s + i repeats trace
        # (s + i - first) % its length of `cycle`.
        cycle, first = self.cycle, s
        if self.cfg.lam <= 0:  # no vehicle pays: the residuals stay as the last slot left them
            sums, txs = [(0.0, 0.0, 0.0)] * k, [self.tx_cum] * k
        else:
            heads = fixed = self.heads[v.active[self.heads]]
            if p:
                fleet = self.controller[0]
                paired = np.zeros(self.cfg.cluster_count, dtype=bool)
                paired[v.cluster[cur]] = True
                fixed = heads[~paired[v.cluster[heads]]]
            paying = np.concatenate((fixed, cur, new))
            members = v.active.copy()
            members[paying] = False
            residual = v.residual[members]
            bits, inverse = np.unique(residual.view(np.int64), return_inverse=True)
            # Column offsets: other heads, A, B, richest members, members.
            f = fixed.size
            a, b, c = f + p, f + 2 * p, f + 3 * p
            rows = 2 if p else 1
            cap = BLOCK_CELLS // (rows * (c + bits.size + 1))
            if not self.exact_tx:
                cap = min(cap, BLOCK_CELLS // v.id.size)
            k = self.size = max(1, min(k, cap))
            exchange, transfers = self._exchanges(s, k, heads.size)
            head = self.costs[False][1]
            head_charges = np.array([head[ex][1] for ex in exchange[:k]])[:, None]
            # The least residual each slot may leave a paying head with.
            low = np.full((k if p else 1, b), self.critical_level)
            low[:, :f][:, v.critical[fixed]] = 0.0
            rich, column = np.empty(0), None
            if p:
                # A vehicle taking the head must also pay its security charge.
                low[1::2, f:a] = low[0::2, a:b] = max(self.critical_level, cost)
                rich = np.full(self.cfg.cluster_count, -np.inf)
                np.maximum.at(rich, v.cluster[members], residual)
                rich = rich[v.cluster[cur]]
                A, B = cur, new
            start = np.concatenate((v.residual[paying], rich, bits.view(float)))
            seg, w = 0, k
            while True:
                # Charge block slots seg .. w - 1, starting from `start`, and
                # find the first event j among them (none: the w - seg
                # slots).
                e = seg % 2  # 1 where the segment starts on an odd block slot
                work = np.empty((rows * (w - seg) + 1, start.size))
                work[0] = start
                self._charges(work[1:], head_charges[seg:w], f, p, e)
                np.subtract.accumulate(work, axis=0, out=work)
                charged = work[1::rows]
                j = w - seg
                # With no pairs, residuals only fall: no event by the last
                # slot means none at all.
                if not p and (charged[-1, :b] >= low[0]).all() and (charged[-1, c:] >= 0.0).all():
                    break
                # Each row's failed checks: the new heads' rating (ratings
                # of slots that a pair's B takes on even block slots and A
                # on odd ones), the paying heads' floors and security, and
                # the members' charge.
                bad = np.empty((w - seg, p + b + start.size - c), dtype=bool)
                if p:
                    rated = fleet.ratings(charged[:, f:c])
                    o = 1 - e  # rows e, e + 2, ... are even block slots; o, o + 2, ... odd
                    np.less_equal(rated[e::2, p : 2 * p], rated[e::2, 2 * p :], out=bad[e::2, :p])
                    np.less_equal(rated[o::2, :p], rated[o::2, 2 * p :], out=bad[o::2, :p])
                np.less(charged[:, :b], low[seg:w], out=bad[:, p : p + b])
                np.less(charged[:, c:], 0.0, out=bad[:, p + b :])
                i = int(bad.argmax())
                if not bad.item(i):
                    if w == k:
                        break
                    w = k  # no break by the slot after the exchange: charge them all
                    continue
                j = i // bad.shape[1]
                if np.count_nonzero(bad[j, p:]):
                    break
                # The break at block slot t, where h heads and r was to take
                # the head: the candidates' residuals after its charge.
                t, after = seg + j, work[2 * j + 1]
                if column is None:
                    column, cand, segs, at_a, at_b, live = self._candidates(
                        paying, members, inverse + c, paired, A, B)
                    counts = np.bincount(inverse).tolist()  # each member column's members
                at_h, at_r, r_cols = (at_b, at_a, slice(f, a)) if t % 2 else (
                    at_a, at_b, slice(a, b))
                res = after[column[cand]]
                handed = fleet.handed_on(cycle[(s + t - first) % 2], s + t, cand, at_h, res,
                                         res >= self.critical_level, segs)
                if handed is None:
                    break  # slot t runs alone
                trace, picks = handed
                picked = res[picks]
                if np.count_nonzero(picked < cost):
                    break
                taken, taken_res = cand[picks], picked
                self._extend_run(cycle, first, s + t - 1)
                cycle, first = (trace, fleet.handed_back(trace)), s + t
                # Each pick that was a member takes r's column, and r joins
                # the members.
                added, kept = _NO_COLUMNS, None
                moved = (picks != at_r).nonzero()[0]
                if moved.size:
                    returning, leaving = at_r[moved], taken[moved]
                    joining, left = cand[returning], column[leaving].tolist()
                    column[leaving] = column[joining]
                    added, kept = self._join(column, counts, live, joining, res[returning], left,
                                             after, c)
                if t % 2:
                    A, at_a = taken, picks
                else:
                    B, at_b = taken, picks
                # The next slots start from slot t's residuals, the picks' after
                # their security charge, and each pair cluster's richest member.
                res[at_h] = res[picks] = -np.inf
                start = np.concatenate((after[:b], np.maximum.reduceat(res, segs.starts),
                                        after[c:], added))
                if kept is not None:
                    start = start[kept]
                start[r_cols] = taken_res - cost
                seg = t + 1
                k = self.size = seg + min(k - seg, BLOCK_CELLS // (2 * (start.size + 1)))
                if seg == k:
                    j, work = 0, start[None]
                    break
                # A head that pays the exchange mostly breaks its pair on the
                # next slot: the next segment ends there.
                w = min(k, next((i + 2 for i in range(seg, k) if exchange[i]), k))
            k = seg + j
            end = work[rows * j]
            if column is None:
                v.residual[paying] = end[:b]
                v.residual[members] = end[c:][inverse]
            else:
                v.residual[live] = end[column[live]]
            if k == 0:  # slot s runs alone and marks the critical vehicles again
                return 0
            sums, txs = self._tally(s, k, self.n_active, heads.size, exchange, transfers, p)
            if p:
                # A slot marks the critical vehicles after its charge, before
                # its new heads pay their security charge: the last slot's
                # new heads are marked from its charge row, or from a break
                # on it. (After a break that runs alone, that slot marks them
                # again.)
                taken, cols = (A, slice(f, a)) if k % 2 == 0 else (B, slice(a, b))
                marked = work[2 * j - 1, cols] < self.critical_level if j else (
                    taken_res < self.critical_level)
                # The heads of slot s + k, and the pairs from there.
                cur, new = (B, A) if k % 2 else (A, B)
                if column is not None or k % 2:
                    fleet.hand_over(self.pairs[0], cur)
        if self.controller is not None:
            np.less(v.residual, self.critical_level, out=v.critical)
            if p:
                v.critical[taken] = marked
            self._extend_run(cycle, first, s + k - 1)
            turn = (s + k - first) % len(cycle)
            self.cycle = cycle[turn:] + cycle[:turn] if turn else cycle
            self.pairs = cur, new
        self._record(sums, txs, [p] * k)
        return k

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

    def _candidates(self, paying, members, classes, paired, A, B):
        """At a block's first break: each vehicle's column (the paying
        vehicles' in order, each member's its class's in `classes`); the
        candidates, the active vehicles of the `paired` clusters in
        (cluster, id) order, one segment per pair; A's and B's positions
        among them; and the active vehicles."""
        v = self.v
        column = np.empty(v.id.size, dtype=np.intp)
        column[paying] = np.arange(paying.size)
        column[members] = classes
        # Vehicle ids follow the clusters, so id order is (cluster, id) order.
        cand = (v.active & paired[v.cluster]).nonzero()[0]
        segs = _Segments.of_lengths(np.bincount(v.cluster[cand])[v.cluster[A]])
        return (column, cand, segs, cand.searchsorted(A), cand.searchsorted(B),
                v.active.nonzero()[0])

    def _charges(self, out, head_charges, f, p, e):
        """Fill `out` with a block's charges by row from a block slot whose
        parity is e: a row a slot, and with p pairs a second for the
        security charges. The columns are the f other paying heads, which
        pay `head_charges`, the pairs' A and B, and then columns that pay a
        member's charge."""
        member, cost = self.costs[False][0][1], self.cfg.security_cost
        a, b = f + p, f + 2 * p
        rows = 2 if p else 1
        out[::rows, :b] = head_charges
        out[::rows, b:] = member
        if p:
            # A heads the even block slots and takes the head on odd ones;
            # B the other way round. Row 0 is the first slot's charge.
            heading, taking = (slice(a, b), slice(f, a)) if e else (slice(f, a), slice(a, b))
            out[1::2] = 0.0
            out[2::4, heading] = out[::4, taking] = member
            out[3::4, heading] = out[1::4, taking] = cost

    @staticmethod
    def _join(column: np.ndarray, counts: list[int], live: np.ndarray, joining: np.ndarray,
              residual: np.ndarray, left: list[int], after: np.ndarray,
              c: int) -> tuple[np.ndarray, np.ndarray | None]:
        """The member columns once a member has left each column in `left`
        and the vehicles at `joining`, whose residuals are `residual`, are
        members: each joins the column, from c on in `after`, whose residual
        has its residual's bits, or a new one. Return the new columns'
        residuals and, where a column is left with no member, which columns
        stay, new ones included. `counts` holds each member column's
        members, and `column` each `live` vehicle's column, renumbered to
        the columns that stay."""
        for i in left:
            counts[i - c] -= 1
        known = dict(zip(after[c:].view(np.int64).tolist(), range(c, after.size)))
        added, index = [], []
        for bits in residual.view(np.int64).tolist():
            i = known.get(bits)
            if i is None:
                i = known[bits] = after.size + len(added)
                added.append(bits)
                counts.append(0)
            counts[i - c] += 1
            index.append(i)
        column[joining] = index
        kept = None
        if 0 in counts:
            kept = np.concatenate((np.ones(c, dtype=bool), np.array(counts) > 0))
            column[live] = (np.cumsum(kept) - 1)[column[live]]
            counts[:] = [n for n in counts if n]
        return np.array(added, dtype=np.int64).view(float), kept

    # `_charge_one` stays beside `_block`: on a slot where no vehicle stops
    # a one-slot block gives the same bits, but on a 10 x 50 fleet it costs
    # about four times as much a call (71-74 us against 17-18 us over four
    # series). The 24 fleet-churn paired runs of seed 1 step 179 slots
    # alone, 131 of them clustered, so it would add about 10 ms to their
    # 0.08 s (2-vCPU Xeon, CPython 3.11, numpy 2.4).
    def _charge_one(self, s: int) -> tuple[list[float], float]:
        """Charge slot s alone: every active vehicle that can pay does and
        the rest stop. Return its (security, transmission, update) sums and
        its `transactions_cum`.

        The `after` buffer gets every vehicle's residual minus its charge,
        a head's charge in place of a member's; an inactive vehicle's entry
        is masked out by `paid`. Only on a slot where some vehicle stops are
        the `active` flags written, through the controller when there is
        one, which keeps each cluster's active count."""
        v, heads = self.v, self.heads
        if self.cfg.lam <= 0:  # no vehicle transacts, so none pays
            return [0.0, 0.0, 0.0], self.tx_cum
        exchange, transfers = self._exchanges(s, 1, heads.size)
        member, head = self.costs[s == 1]
        after = np.subtract(v.residual, member[1], out=self.after)
        after[heads] = v.residual[heads] - head[exchange[0]][1]
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
        n_heads = int(np.count_nonzero(paid[heads]))
        if n_heads < heads.size:
            _, transfers = self._exchanges(s, 1, n_heads)
        sums, txs = self._tally(s, 1, payers, n_heads, exchange, transfers)
        return sums[0], txs[0]

    def _tally(self, s, k, payers, n_heads, exchange, transfers, changes=0):
        """The sums and `transactions_cum` of k slots from s that `payers`
        vehicles paid, `n_heads` heads first, and on which `changes` new
        heads paid their security charge. Each slot's sums add the payers'
        items left to right, heads before members, in id order, and then one
        security charge per new head. Off the exact grid the running
        transaction count adds each member's increment in order, then the
        transfers; heads add none. A slot's sums are computed once per
        (payer counts, slot 1, exchange, changes) and kept in `slot_sums`;
        the k slots look up at most two keys, exchange or not."""
        if self.load_rate is not None:
            self.emitted_prev += sum(transfers[:k])
        members = payers - n_heads
        if self.exact_tx:
            # Exact sums: each slot adds its members' and transfers' total.
            txs = list(accumulate([members * self.member_tx + t for t in transfers[:k]],
                                  initial=self.tx_cum))[1:]
        else:
            txs = self._tx_chain(k, members, transfers)
        self.tx_cum = txs[-1]
        exchange, first, by_exchange = exchange[:k], s == 1, {}
        for ex in {*exchange}:
            key = (n_heads, payers, first, ex, changes)
            sums = self.slot_sums.get(key)
            if sums is None:
                member, head = self.costs[first]
                security, transmission, update = _payer_sums(n_heads, members, head[ex][0],
                                                             member[0])
                for _ in range(changes):
                    security += self.cfg.security_cost
                sums = self.slot_sums[key] = security, transmission, update
            by_exchange[ex] = sums
        return list(map(by_exchange.__getitem__, exchange)), txs

    def _tx_chain(self, k, members, transfers):
        """The `transactions_cum` of k slots as one sequential chain, a row
        per slot in the reused `increments` buffer: each member's increment,
        then the slot's global transfers."""
        width = members + 1
        flat = self.increments[: k * width + 1]
        flat[0] = self.tx_cum
        grid = flat[1:].reshape(k, width)
        grid[:, :-1] = self.member_tx
        grid[:, -1] = transfers[:k]
        return np.add.accumulate(flat, out=flat)[width::width].tolist()

    def _exchanges(self, s: int, k: int, heads: int) -> tuple[list[bool], list[int]]:
        """For each of slots s .. s + k - 1, with `heads` heads paying each:
        whether it is an exchange slot, and the global transfers it counts."""
        if self.load_rate is None:
            exchange = [(s + i) % self.period == 0 for i in range(k)]
            return exchange, [heads * (heads - 1) if ex else 0 for ex in exchange]
        exchange, transfers = [], []
        emitted_prev = self.emitted_prev
        for slot in range(s, s + k):
            t = slot * self.cfg.slot
            emitted = max(0, math.ceil(self.load_rate * t * t / 2.0) - emitted_prev)
            counted = emitted if heads else 0
            emitted_prev += counted
            exchange.append(emitted > 0)
            transfers.append(counted)
        return exchange, transfers

    # `_record_one` stays beside `_record`: a one-row `_record` costs 3.1 us
    # a call against 0.7 us here (2-vCPU Xeon, CPython 3.11).
    def _record_one(self, security, transmission, update, tx, changes) -> None:
        """Append one slot's columns."""
        c = self.slots
        self.e_cum += security + transmission + update
        c.energy_cum.append(self.e_cum)
        c.security_j.append(security)
        c.transmission_j.append(transmission)
        c.update_j.append(update)
        c.transactions_cum.append(tx)
        c.ch_changes.append(changes)

    def _record(self, sums, txs, changes) -> None:
        """Append the next slots' columns: each one's (security,
        transmission, update) sums, `transactions_cum` and head changes."""
        c = self.slots
        energy = list(accumulate([a + b + d for a, b, d in sums], initial=self.e_cum))
        self.e_cum = energy[-1]
        c.energy_cum += energy[1:]
        for column, values in zip((c.security_j, c.transmission_j, c.update_j), zip(*sums)):
            column += values
        c.transactions_cum += txs
        c.ch_changes += changes


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
    tx_red, energy_red = (
        _cells([_reduction_pct(b, c) for b, c in zip(base_col, clus_col)])
        for base_col, clus_col in ((base.transactions_cum, clus.transactions_cum),
                                   (base.energy_cum, clus.energy_cum))
    )
    rows = [",".join(RUN_CSV_COLUMNS + COMPARISON_EXTRA_COLUMNS) + "\r\n", base_rows]
    regime = comp.clustered.regime
    rows += [f"{a},{regime},{tx},{e},{c},{c},{r},{q}\r\n" for a, tx, e, c, r, q in zip(
        t, clus_tx, _cells(clus.energy_cum), clus.ch_changes, tx_red,
        energy_red)]
    return "".join(rows)
