"""Discrete-time, seeded fleet simulation under two ledger regimes.

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

Vehicle state is kept as arrays over the run. Charges are uniform within a
role, so each slot charges the whole fleet with one masked subtraction at
each vehicle's role cost. The slot's itemised sums and the running
transaction count are accumulated left to right in vehicle-id order, heads
before members, so they round as one addition per vehicle would.
`RunReport.vehicles` is built once, at the end of the run.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .analytics import (
    DecayParams,
    GaussianRate,
    TxCountParams,
    conservation_factor,
    energy_decay,  # noqa: F401  benchmarks/tracing.py wraps fleetchain.sim.energy_decay
)
from .controller import (
    ACTION_CHANGE,
    ControllerConfig,
    FleetState,
    TraceRow,
    VehicleArrays,
    evaluate_slot,
    slot_count,
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

RUN_CSV_COLUMNS = ("t", "regime", "transactions_cum", "energy_cum_J", "ch_changes", "offloads")
COMPARISON_EXTRA_COLUMNS = ("tx_reduction_pct", "energy_conservation_pct")


@dataclass
class VehicleState:
    id: int
    cluster: int
    position: float
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
            if not finite:
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            low = 0 if name in ("hops", "records_per_tx", "seed") else 1
            if value is not None and (type(value) is not int or value < low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if type(self.use_load_model_exchange) is not bool:
            raise ValueError(
                f"use_load_model_exchange must be true or false, got {self.use_load_model_exchange!r}"
            )
        if self.initial_energy < 0 or (self.vehicle_tx_limit or 0) < 0:
            raise ValueError("initial_energy and vehicle_tx_limit must be >= 0")
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
            security_cost=self.security_cost,
            app_count=self.app_count,
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
    fleet_residual: float


@dataclass
class RunReport:
    regime: str
    rows: list[SlotRow]
    trace: list[TraceRow] = field(default_factory=list)
    constraints: ConstraintReport | None = None
    vehicles: list[VehicleState] = field(default_factory=list)

    @property
    def transactions_total(self) -> float:
        return self.rows[-1].transactions_cum if self.rows else 0.0

    @property
    def energy_total(self) -> float:
        return self.rows[-1].energy_cum if self.rows else 0.0

    @property
    def ch_changes_total(self) -> int:
        return sum(r.ch_changes for r in self.rows)


@dataclass(eq=False)
class _SimVehicles(VehicleArrays):
    """The run's vehicle arrays plus the state only the simulator reads."""

    position: np.ndarray
    joined: np.ndarray

    def states(self, cfg: SimConfig) -> list[VehicleState]:
        roles = ["ch" if h else "member" for h in self.head.tolist()]
        return [
            VehicleState(
                vid,
                cluster,
                position,
                residual,
                cfg.stay_value,
                cfg.radio_range,
                role,
                critical,
                active,
                cfg.vehicle_tx_limit,
                cfg.initial_energy,
                joined,
            )
            for vid, cluster, position, residual, role, critical, active, joined in zip(
                self.id.tolist(),
                self.cluster.tolist(),
                self.position.tolist(),
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
    rng = np.random.default_rng(cfg.seed)
    positions = np.clip(
        rng.normal(cfg.mean_range, cfg.range_stddev, cfg.n_vehicles), 0.0, None
    )
    n = cfg.n_vehicles
    ids = np.arange(n, dtype=np.int64)
    return _SimVehicles(
        id=ids,
        cluster=ids // cfg.vehicles_per_cluster,
        residual=np.full(n, cfg.initial_energy, dtype=float),
        radio_range=np.full(n, cfg.radio_range, dtype=float),
        tx_limit=[cfg.vehicle_tx_limit] * n,
        head=(ids % cfg.vehicles_per_cluster == 0) if clustered else np.zeros(n, dtype=bool),
        critical=np.zeros(n, dtype=bool),
        active=np.ones(n, dtype=bool),
        position=positions,
        joined=np.zeros(n, dtype=bool),
    )


def _charge_slot(
    v: _SimVehicles,
    cfg: SimConfig,
    head: tuple[float, float, float],
    member: tuple[float, float, float],
    acc: np.ndarray,
) -> int:
    """Charge every active vehicle one slot and return how many heads paid.

    `head` and `member` are each role's (transmission, update, transactions)
    per payer. A vehicle that cannot fund its charge in full stops
    transacting. `acc` holds the slot's security, transmission and update
    sums and the run's transaction count; each payer's share is added to it
    left to right, heads before members, in id order.
    """
    sec = cfg.app_count * cfg.security_cost + np.where(v.joined, 0.0, cfg.security_cost)
    total = sec + np.where(v.head, head[0], member[0]) + np.where(v.head, head[1], member[1])
    paid = v.active & (v.residual >= total)
    v.active[:] = paid
    np.subtract(v.residual, total, out=v.residual, where=paid)
    v.joined |= paid
    heads_paid = paid & v.head
    sec_heads, sec_members = sec[heads_paid], sec[paid ^ heads_paid]
    n_heads = sec_heads.size
    items = np.empty((n_heads + sec_members.size + 1, 4))
    items[0] = acc
    items[1 : n_heads + 1, 0] = sec_heads
    items[1 : n_heads + 1, 1:] = head
    items[n_heads + 1 :, 0] = sec_members
    items[n_heads + 1 :, 1:] = member
    acc[:] = items.cumsum(axis=0)[-1]
    return n_heads


def _fleet_residual(v: _SimVehicles) -> float:
    """Sum of the residual energies, added left to right in id order."""
    return float(np.cumsum(v.residual)[-1])


def _constraints(cfg: SimConfig) -> ConstraintReport:
    return check_constraints(cfg.constraint_set(), cfg.mobility(), cfg.connectivity())


def run_baseline(cfg: SimConfig) -> RunReport:
    """Broadcast regime: full-mesh dissemination, full hop cost each slot."""
    vehicles = _init_vehicles(cfg, clustered=False)
    n = cfg.n_vehicles
    p_full = cfg.energy_params(cfg.hops)
    tx_slot = cfg.app_count * transmission_energy(p_full) * cfg.slot
    upd_slot = cfg.app_count * ledger_update_energy(p_full)
    # Every vehicle is a member: (transmission, update, transactions) per slot.
    costs = (tx_slot, upd_slot, cfg.lam * cfg.slot * (n - 1))

    rows: list[SlotRow] = []
    acc = np.zeros(4)  # security, transmission, update, transactions_cum
    e_cum = 0.0
    active_rate = cfg.lam > 0
    for s in range(1, cfg.n_slots + 1):
        t = s * cfg.slot
        acc[:3] = 0.0
        if active_rate:
            _charge_slot(vehicles, cfg, costs, costs, acc)
        security, transmission, update, tx_cum = acc.tolist()
        e_cum += security + transmission + update
        rows.append(
            SlotRow(
                t=t,
                transactions_cum=tx_cum,
                energy_cum=e_cum,
                ch_changes=0,
                offloads=0,
                security_j=security,
                transmission_j=transmission,
                update_j=update,
                fleet_residual=_fleet_residual(vehicles),
            )
        )
    return RunReport(
        regime=REGIME_BASELINE,
        rows=rows,
        constraints=_constraints(cfg),
        vehicles=vehicles.states(cfg),
    )


def run_clustered(cfg: SimConfig) -> RunReport:
    """Two-tier regime: one-hop local updates, batched global exchanges."""
    vehicles = _init_vehicles(cfg, clustered=True)
    mobility = cfg.mobility()
    fleet = FleetState(
        vehicles=vehicles,
        mobility=mobility,
        connectivity=cfg.connectivity(),
        lam1=cfg.lam1_value,
        decay=cfg.decay_params(),
        heston=cfg.heston_params(),
        required_tx_limit=cfg.required_tx_limit,
        expected_request_change=cfg.request_change_rate,
    )
    ctrl = ControllerConfig(
        slot=cfg.slot,
        horizon=cfg.horizon,
        expected_rate=cfg.expected_rate_value,
        expected_score=cfg.expected_score,
    )

    p_local = cfg.energy_params(1)
    p_global = cfg.energy_params(cfg.hops)
    member_tx = cfg.app_count * transmission_energy(p_local) * cfg.slot
    member_upd = cfg.app_count * ledger_update_energy(p_local)
    head_upd_local = cfg.app_count * ledger_update_energy(p_local)
    head_tx_global = cfg.app_count * transmission_energy(p_global) * cfg.slot
    head_upd_global = cfg.app_count * ledger_update_energy(p_global)
    # (transmission, update, transactions) per payer; member updates are
    # ledger transfers unless the load model emits them.
    member = (member_tx, member_upd, 0.0 if cfg.use_load_model_exchange else cfg.lam * cfg.slot)
    head_local = (0.0, head_upd_local, 0.0)
    critical_level = cfg.critical_fraction * cfg.initial_energy

    load_model_rate = cfg.load_model_rate() if cfg.use_load_model_exchange else 0.0
    rows: list[SlotRow] = []
    trace: list[TraceRow] = []
    acc = np.zeros(4)  # security, transmission, update, transactions_cum
    e_cum = 0.0
    emitted_prev = 0
    active_rate = cfg.lam > 0
    period = cfg.period_value
    for s in range(1, cfg.n_slots + 1):
        t = s * cfg.slot
        acc[:3] = 0.0

        if cfg.use_load_model_exchange:
            cum_load = load_model_rate * t * t / 2.0
            emitted = max(0, math.ceil(cum_load) - emitted_prev)
            exchange = emitted > 0
        else:
            emitted = 0
            exchange = s % period == 0

        if active_rate:
            # Heads first, so the global-transfer count uses this slot's
            # surviving head set.
            head = (head_tx_global, head_upd_global, 0.0) if exchange else head_local
            operating = _charge_slot(vehicles, cfg, head, member, acc)
            if exchange and operating:
                if cfg.use_load_model_exchange:
                    acc[3] += emitted
                    emitted_prev += emitted
                else:
                    acc[3] += operating * (operating - 1)

        np.less(vehicles.residual, critical_level, out=vehicles.critical)

        slot_rows = evaluate_slot(fleet, ctrl, s)
        trace.extend(slot_rows)
        security, transmission, update, tx_cum = acc.tolist()
        changes = [r for r in slot_rows if r.action == ACTION_CHANGE]
        for row in changes:
            # A new head pays one security charge when it can fund it.
            if vehicles.residual[row.new_ch] >= cfg.security_cost:
                vehicles.residual[row.new_ch] -= cfg.security_cost
                security += cfg.security_cost

        e_cum += security + transmission + update
        rows.append(
            SlotRow(
                t=t,
                transactions_cum=tx_cum,
                energy_cum=e_cum,
                ch_changes=len(changes),
                offloads=len(changes),
                security_j=security,
                transmission_j=transmission,
                update_j=update,
                fleet_residual=_fleet_residual(vehicles),
            )
        )
    return RunReport(
        regime=REGIME_CLUSTERED,
        rows=rows,
        trace=trace,
        constraints=_constraints(cfg),
        vehicles=vehicles.states(cfg),
    )


def _reduction_pct(base: float, other: float) -> float:
    if base == 0.0:
        return 0.0
    return 100.0 * (1.0 - other / base)


@dataclass(frozen=True)
class SlotDelta:
    t: float
    tx_reduction_pct: float
    energy_conservation_pct: float


@dataclass
class Comparison:
    config: SimConfig
    baseline: RunReport
    clustered: RunReport
    per_slot: list[SlotDelta]
    tx_reduction_pct: float
    energy_reduction_pct: float
    conservation_factor_pct: float
    assumptions: tuple[str, ...]


def compare_reports(base: RunReport, other: RunReport) -> tuple[list[SlotDelta], float, float]:
    """Per-slot and total percentage deltas of `other` against `base`."""
    deltas = [
        SlotDelta(
            t=b.t,
            tx_reduction_pct=_reduction_pct(b.transactions_cum, o.transactions_cum),
            energy_conservation_pct=_reduction_pct(b.energy_cum, o.energy_cum),
        )
        for b, o in zip(base.rows, other.rows)
    ]
    return (
        deltas,
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
    """Run both regimes with identical seed/parameters and compare."""
    base = run_baseline(cfg)
    clus = run_clustered(cfg)
    per_slot, tx_red, energy_red = compare_reports(base, clus)
    r1, r2 = cfg.gaussian_rates()
    return Comparison(
        config=cfg,
        baseline=base,
        clustered=clus,
        per_slot=per_slot,
        tx_reduction_pct=tx_red,
        energy_reduction_pct=energy_red,
        conservation_factor_pct=100.0 * conservation_factor(r1, r2),
        assumptions=baseline_assumptions(cfg),
    )


def _fmt(value) -> str:
    if isinstance(value, float):
        if value.is_integer() and abs(value) < 1e16:
            return str(int(value))
        return repr(value)
    return str(value)


def _slot_cells(regime: str, row: SlotRow) -> list:
    """The `RUN_CSV_COLUMNS` cells of one slot row."""
    return [_fmt(row.t), regime, _fmt(row.transactions_cum), _fmt(row.energy_cum),
            row.ch_changes, row.offloads]


def csv_text(header: Sequence[str], rows: list[list]) -> str:
    """`header` and `rows` as CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def comparison_csv(comp: Comparison) -> str:
    base, clus = comp.baseline, comp.clustered
    rows = [_slot_cells(base.regime, row) + ["", ""] for row in base.rows]
    rows += [
        _slot_cells(clus.regime, row)
        + [_fmt(delta.tx_reduction_pct), _fmt(delta.energy_conservation_pct)]
        for row, delta in zip(clus.rows, comp.per_slot)
    ]
    return csv_text(RUN_CSV_COLUMNS + COMPARISON_EXTRA_COLUMNS, rows)
