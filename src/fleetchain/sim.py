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
steps the stretches between events as blocks. After a slot stepped alone
(its charge, critical marking and `evaluate_slot`), the slots that follow
join one block while every active vehicle can pay its charge, no head falls
below the critical level, and that slot kept every head by the fixed
verdict (no head changed and no new head was selected). The first slot that
breaks a condition ends the block and runs alone; so does slot 1, which
carries the join charge. Exchange slots stay inside a block. Each slot's
itemised sums and the running transaction count add the vehicles' shares
left to right, heads before members, in id order, so they round as one
addition per vehicle would.

Where that order cannot matter, the loop does not keep it. Each run tests
once, from the amounts it adds, whether its transaction counts stay on an
exact grid (`_on_grid`): every amount is a multiple of one power of two g,
and no partial sum can reach 2**53 * g. The amounts are the per-payer
increments and the whole transfers, and the reach is slots x vehicles x
largest increment plus the transfers (vehicles**2 a slot, or the load
model's count at the last slot). On the grid every sum is exact, so every
order gives the same bits, and the count adds each slot's total.

A block's residuals are one 2-D array of sequential subtractions: a row per
slot, and a column per distinct member residual and per paying head.
Members pay alike, so members whose residuals have the same bits keep the
same bits, and a column per member would only repeat those subtractions.
On the transaction grid a block charges up to `BLOCK_CELLS // (columns + 1)`
slots (1 489 for 20 heads and one member residual), so it mostly runs from
a slot stepped alone to the next event; a block that reaches its cap is
followed by another. Off that grid it charges up to `BLOCK_CELLS //
vehicles` slots, adding the transaction increments in order in a buffer
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
that `evaluate_slot` returns. A block's slots repeat the trace of the slot
before it, so `RunReport` keeps that trace and the slot range. The totals,
`comparison_csv` and the new-head security charge read the columns;
`RunReport.rows`, `trace` and `vehicles` build their dataclasses only when
read.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, fields
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
    ControllerConfig,
    FleetState,
    SlotTrace,
    TraceRow,
    VehicleArrays,
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
# charged in blocks of BLOCK_CELLS // (columns + 1) slots, the columns being
# the distinct member residuals and the paying heads, or off the exact
# transaction grid of BLOCK_CELLS // vehicles. A block's float arrays then
# take about 256 KiB at most, which stays in cache.
BLOCK_CELLS = 2**15

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
        per_kind = tuple(self.per_kind_cost) if self.per_kind_cost is not None else None
        return EnergyParams(
            per_record_energy=self.energy_per_record,
            per_request_energy=self.energy_per_request,
            hop_count=hops,
            message_kinds=self.message_kinds,
            request_rate=self.gamma_value,
            records_per_tx=self.records_per_tx,
            per_kind_cost=per_kind,
        )


# (name, accepts None) of each int and float field, and the int fields.
_NUMBER_FIELDS = [(f.name, f.type.endswith("None")) for f in fields(SimConfig)
                  if f.type.startswith(("int", "float"))]
_INT_FIELDS = [f.name for f in fields(SimConfig) if f.type.startswith("int")]


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
    # The controller's trace as (one slot's trace, first slot, last slot):
    # its rows repeat, with their slot set, on every slot of the range.
    trace_runs: list[tuple[SlotTrace, int, int]] = field(repr=False, compare=False)
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
        """The controller's trace rows in slot order, built when read."""
        rows = []
        for trace, first, last in self.trace_runs:
            cells = trace.cells()
            rows += [TraceRow(s, *row) for s in range(first, last + 1) for row in cells]
        return rows

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
    update, transactions) per payer; heads pay `head_global` on exchange
    slots. Exchanges fall every `period_value` slots, or, with a
    `load_rate`, on the slots where the load model's cumulative transfers
    pass a whole number. Only with a `controller` are critical vehicles
    marked, heads rotated and each new head charged its security cost.
    """

    def __init__(
        self,
        cfg: SimConfig,
        vehicles: _SimVehicles,
        member: tuple[float, float, float],
        head_local: tuple[float, float, float],
        head_global: tuple[float, float, float],
        load_rate: float | None = None,
        controller: tuple[FleetState, ControllerConfig] | None = None,
    ):
        n = vehicles.id.size
        self.cfg, self.v = cfg, vehicles
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
        self.trace_runs: list[tuple[SlotTrace, int, int]] = []
        # A slot's item sums, by its payers, whether it is slot 1 (the join
        # charge) and whether it is an exchange slot.
        self.slot_sums: dict[tuple, list[float]] = {}
        # By whether the slot is slot 1: the (security, transmission,
        # update, transactions) of a member, and of a head by whether the
        # slot is an exchange slot. Every vehicle that pays slot 1 joins and
        # one that cannot stops, so only slot 1 carries the join charge.
        self.items = {}
        for first in (False, True):
            sec = cfg.app_count * cfg.security_cost + (cfg.security_cost if first else 0.0)
            self.items[first] = (sec, *member), {False: (sec, *head_local),
                                                 True: (sec, *head_global)}
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
        increments = [c[3] for m, h in self.items.values() for c in (m, *h.values())]
        self.exact_tx = _on_grid([1.0, *increments], n_slots * n * max(increments) + transfers)
        # Off the transaction grid a block adds its increments in order in a
        # buffer of every vehicle per slot, reused from block to block.
        if not self.exact_tx:
            self.increments = np.empty(max(1, min(n_slots, BLOCK_CELLS // n)) * (n + 1) + 1)
        # The slots the last block could step: those left, or fewer by its
        # size cap.
        self.size = 0

    def run(self, regime: str) -> RunReport:
        n_slots = self.cfg.n_slots
        s, steady = 1, False
        while s <= n_slots:
            if steady:
                ran = self._block(s, n_slots - s + 1)
                # A block cut short of its size stops before an event; that
                # slot runs alone. One that reached its size cap is followed
                # by another block.
                steady = ran == self.size
                s += ran
            else:
                steady = self._single(s)
                s += 1
        self.slots.t = [s * self.cfg.slot for s in range(1, n_slots + 1)]
        return RunReport(regime, self.slots, self.trace_runs, (self.v, self.cfg))

    def _single(self, s: int) -> bool:
        """Step slot s alone; return whether a block may follow it."""
        v = self.v
        (security, transmission, update), tx = self._charge_one(s)
        changes, steady = 0, True
        if self.controller is not None:
            np.less(v.residual, self.critical_level, out=v.critical)
            fleet, ctrl = self.controller
            trace = evaluate_slot(fleet, ctrl, s)
            self.trace_runs.append((trace, s, s))
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
            steady = fleet.fixed_keeps
        self._record_one(security, transmission, update, tx, changes)
        return steady

    def _block(self, s: int, k: int) -> int:
        """Step up to k slots from s as one block, ending at its size cap
        or before its first event; return how many slots it stepped. `size`
        gets the slots it could step: k, or fewer by its cap.

        No head changes inside a block, so its slots repeat the trace rows
        of the slot before it. Residuals only fall, so the critical flags
        set from the residuals at its end are those its last slot would
        have marked."""
        self.size = k
        if self.cfg.lam <= 0:  # no vehicle pays: the residuals stay as the last slot left them
            sums, txs = [(0.0, 0.0, 0.0)] * k, [self.tx_cum] * k
        else:
            sums, txs = self._charge(s, k)
        k = len(txs)
        if k == 0:
            return 0
        if self.controller is not None:
            np.less(self.v.residual, self.critical_level, out=self.v.critical)
            trace, first, _ = self.trace_runs[-1]
            self.trace_runs[-1] = (trace, first, s + k - 1)
        self._record(sums, txs, [0] * k)
        return k

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
        member, head_costs = self.items[s == 1]
        head = head_costs[exchange[0]]
        after = np.subtract(v.residual, (member[0] + member[1]) + member[2], out=self.after)
        if heads.size:
            after[heads] = v.residual[heads] - ((head[0] + head[1]) + head[2])
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
        n_heads = int(np.count_nonzero(paid[heads])) if heads.size else 0
        if n_heads < heads.size:
            _, transfers = self._exchanges(s, 1, n_heads)
        sums, txs = self._tally(s, 1, payers, n_heads, exchange, transfers, member, head_costs)
        return sums[0], txs[0]

    def _charge(self, s: int, k: int) -> tuple[list, list[float]]:
        """Charge the slots from s as one block; return each one's
        (security, transmission, update) sums and `transactions_cum`.

        Every active vehicle pays on each of up to k slots; the block ends
        before the first slot where one cannot pay or, with a controller, a
        head falls below the critical level. Members pay alike, so members
        whose residuals have the same bits keep the same bits: the
        residuals are one (k + 1) x columns array of sequential
        subtractions, one column per distinct member residual (by bit
        pattern, so 0.0 and -0.0 stay apart) and one per paying head. On
        the transaction grid a block charges up to BLOCK_CELLS // (columns
        + 1) slots, off it up to BLOCK_CELLS // vehicles.
        """
        v = self.v
        heads = self.heads[v.active[self.heads]]
        members = v.active.copy()
        members[heads] = False
        bits, inverse = np.unique(v.residual[members].view(np.int64), return_inverse=True)
        m = bits.size
        cap = BLOCK_CELLS // (m + heads.size + 1 if self.exact_tx else v.id.size)
        k = self.size = max(1, min(k, cap))
        exchange, transfers = self._exchanges(s, k, heads.size)
        member, head_costs = self.items[s == 1]
        work = np.empty((k + 1, m + heads.size))
        work[0, :m] = bits.view(float)
        work[0, m:] = v.residual[heads]
        work[1:, :m] = (member[0] + member[1]) + member[2]
        if heads.size:
            charges = {ex: (h[0] + h[1]) + h[2] for ex, h in head_costs.items()}
            work[1:, m:] = np.array([charges[ex] for ex in exchange])[:, None]
        if k == 1:  # one subtraction: an accumulate call costs about ten
            np.subtract(work[0], work[1], out=work[1])
        else:
            np.subtract.accumulate(work, axis=0, out=work)
        k = self._slots_before_event(work[1:], m + self._watched(heads).nonzero()[0])
        if k == 0:
            return [], []
        v.residual[members] = work[k, inverse]
        v.residual[heads] = work[k, m:]
        return self._tally(s, k, self.n_active, heads.size, exchange, transfers, member,
                           head_costs)

    def _tally(self, s, k, payers, n_heads, exchange, transfers, member, head_costs):
        """The sums and `transactions_cum` of k slots from s that `payers`
        vehicles paid, `n_heads` heads first. Each slot's sums add the
        payers' items left to right, heads before members, in id order,
        and so does the running transaction count off the exact grid. A
        slot's sums are computed once per (payer counts, slot 1, exchange)
        and kept in `slot_sums`."""
        if self.load_rate is not None:
            self.emitted_prev += sum(transfers[:k])
        if self.exact_tx:
            # Exact sums: each slot adds its payers' and transfers' total.
            members = payers - n_heads
            txs = list(accumulate(
                [n_heads * head_costs[ex][3] + members * member[3] + t
                 for ex, t in zip(exchange[:k], transfers)], initial=self.tx_cum))[1:]
        else:
            txs = self._tx_chain(k, payers, n_heads, exchange, transfers, member, head_costs)
        self.tx_cum = txs[-1]
        sums = []
        for ex in exchange[:k]:
            key = (n_heads, payers, s == 1, ex)
            if key not in self.slot_sums:
                self.slot_sums[key] = _payer_sums(n_heads, payers - n_heads, head_costs[ex][:3],
                                                  member[:3])
            sums.append(self.slot_sums[key])
        return sums, txs

    def _tx_chain(self, k, payers, n_heads, exchange, transfers, member, head_costs):
        """The `transactions_cum` of k slots as one sequential chain: every
        slot's increments, its payers' and then its global transfers, in the
        reused `increments` buffer. One slot (k = 1) fills it as one row of
        slices, a block as a k-row grid."""
        width = payers + 1
        flat = self.increments[: k * width + 1]
        flat[0] = self.tx_cum
        if k == 1:
            flat[1 : n_heads + 1] = head_costs[exchange[0]][3]
            flat[n_heads + 1 : width] = member[3]
            flat[width] = transfers[0]
        else:
            grid = flat[1:].reshape(k, width)
            if n_heads:
                grid[:, :n_heads] = np.array([head_costs[ex][3] for ex in exchange[:k]])[:, None]
            grid[:, n_heads:-1] = member[3]
            grid[:, -1] = transfers[:k]
        return np.add.accumulate(flat, out=flat)[width::width].tolist()

    def _watched(self, heads: np.ndarray) -> np.ndarray:
        """Which of the paying `heads` a block watches for the critical
        level: those not yet critical, and none without a controller."""
        if self.controller is None:
            return np.zeros(heads.size, dtype=bool)
        return ~self.v.critical[heads]

    def _slots_before_event(self, after: np.ndarray, watch: np.ndarray) -> int:
        """The block's slots before the first one after which a residual
        in `after` (one row per slot) is negative, its vehicle could not
        pay, or one in a `watch` column is under the critical level."""
        level = self.critical_level
        # Residuals only fall: no event by the last slot means none at all.
        if after[-1].min(initial=np.inf) >= 0.0 and not (after[-1, watch] < level).any():
            return len(after)
        events = (after < 0.0).any(axis=1) | (after[:, watch] < level).any(axis=1)
        return int(events.argmax())

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
    # Every vehicle is a member: (transmission, update, transactions) per
    # slot. No vehicle is a head, so no head cost or exchange is counted.
    costs = (
        cfg.app_count * transmission_energy(p_full) * cfg.slot,
        cfg.app_count * ledger_update_energy(p_full),
        cfg.lam * cfg.slot * (cfg.n_vehicles - 1),
    )
    return _SlotLoop(cfg, vehicles, costs, costs, costs).run(REGIME_BASELINE)


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
    # (transmission, update, transactions) per payer; member updates are
    # ledger transfers unless the load model emits them.
    member = (
        cfg.app_count * transmission_energy(p_local) * cfg.slot,
        upd_local,
        0.0 if cfg.use_load_model_exchange else cfg.lam * cfg.slot,
    )
    head_global = (
        cfg.app_count * transmission_energy(p_global) * cfg.slot,
        cfg.app_count * ledger_update_energy(p_global),
        0.0,
    )
    load_rate = cfg.load_model_rate() if cfg.use_load_model_exchange else None
    loop = _SlotLoop(cfg, vehicles, member, (0.0, upd_local, 0.0), head_global, load_rate,
                     (fleet, ctrl))
    return loop.run(REGIME_CLUSTERED)


def _reduction_pct(base: float, other: float) -> float:
    if base == 0.0:
        return 0.0
    return 100.0 * (1.0 - other / base)


@dataclass
class Comparison:
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


def paired_comparison(cfg: SimConfig) -> Comparison:
    """Run both regimes with identical parameters and compare."""
    base = run_baseline(cfg)
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


def comparison_csv(comp: Comparison) -> str:
    """The paired run as CSV text: a header, each baseline slot, then each
    clustered slot with the percentage reductions at it. The bytes are
    those `csv_text` writes; no cell needs quoting. Both runs share the
    slot times, so the `t` cells are formatted once."""
    base, clus = comp.baseline.slots, comp.clustered.slots
    t = _cells(base.t)
    tx_red, energy_red = (
        _cells([_reduction_pct(b, c) for b, c in zip(base_col, clus_col)])
        for base_col, clus_col in ((base.transactions_cum, clus.transactions_cum),
                                   (base.energy_cum, clus.energy_cum))
    )
    rows = [",".join(RUN_CSV_COLUMNS + COMPARISON_EXTRA_COLUMNS) + "\r\n"]
    regime = comp.baseline.regime
    rows += [f"{a},{regime},{tx},{e},{c},{c},,\r\n" for a, tx, e, c in zip(
        t, _cells(base.transactions_cum), _cells(base.energy_cum), base.ch_changes)]
    regime = comp.clustered.regime
    rows += [f"{a},{regime},{tx},{e},{c},{c},{r},{q}\r\n" for a, tx, e, c, r, q in zip(
        t, _cells(clus.transactions_cum), _cells(clus.energy_cum), clus.ch_changes, tx_red,
        energy_red)]
    return "".join(rows)
