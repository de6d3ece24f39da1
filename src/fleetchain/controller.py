"""Cluster-head rotation rules and the slotted decision loop.

Decision cascade per cluster and slot:

(a) stopping rule: change the head when the observed score falls strictly
    below the expected score (equality keeps the head);
(b) capacity rule: otherwise compare the head's transaction limit against
    the cluster's required ceiling; an under-provisioned head is replaced
    by a candidate whose limit covers the requirement and whose radio range
    covers the connect range;
(c) split: if no candidate qualifies, load is divided - led by the unique
    largest radio range, or by the best transfer score when ranges tie;
(d) ambiguity: when the score comparison is an exact tie and the capacity
    data is unavailable, the pre-decay test decides.

A change decided at slot t stamps its offload at t - slot so the handover
is prepared one slot ahead. Critical-energy vehicles are never selected:
when a change is indicated and every candidate is critical, the head stays.

The slotted loop keeps the fleet as arrays (`VehicleArrays`) and computes
the run's threshold, default score, pre-decay verdict and slot decay
estimate once. Each slot it applies the keep-or-change test of the cascade
to every cluster's head and builds `Candidate` lists, and calls `decide`,
only for the clusters whose head is dead or critical or where that test
indicates a change or split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .analytics import DecayParams, decay_params_at, energy_decay, invert_rate
from .energy import HestonParams
from .mobility import ConnectivityParams, MobilityModel

RULE_OST = "OST"
RULE_LIMIT = "Lemma2-limit"
RULE_PRE_DECAY = "pre-decay"

ACTION_KEEP = "keep"
ACTION_CHANGE = "change"
ACTION_SPLIT_RANGE = "split_by_range"
ACTION_SPLIT_TRANSFER = "split_by_transfer"


def _erf_scaled(x: float, stddev: float) -> float:
    return math.erf(x / (math.sqrt(2.0) * stddev))


def ost_score(m: MobilityModel, c: ConnectivityParams, lam1: float) -> float:
    """Observable stopping score at negligible drift variance."""
    erf_term = _erf_scaled(m.mean_range - m.radio_range, m.range_stddev) - _erf_scaled(
        m.mean_range, m.range_stddev
    )
    return -c.presence_prob * erf_term / 2.0 + 2.0 * lam1


def ost_threshold(m: MobilityModel, c: ConnectivityParams, lam_expected: float) -> float:
    """Expected-score threshold below which the head must change."""
    return c.presence_prob * _erf_scaled(m.mean_range, m.range_stddev) / 2.0 + lam_expected


def cumulative_decay_integral(p: DecayParams, horizon: float) -> float:
    """Integral over [0, horizon] of the decay value seen up to each time."""
    lam = invert_rate(p.rate1) + invert_rate(p.rate2)
    scale = p.initial_energy / p.app_count
    if lam == 0.0:
        return scale * horizon * horizon / 2.0
    return scale * (horizon + math.expm1(-lam * horizon) / lam) / lam


def pre_decay_check(
    decay: DecayParams,
    heston: HestonParams,
    lam1: float,
    tau: float,
    omega: float,
    expected_request_change: float = 0.0,
) -> bool:
    """Pre-energy-decay rule: True means change the head ahead of shortfall.

    The expected consumption drift accumulated up to one slot before the
    horizon is compared (strictly) against twice the general-rate share of
    the decay closed form plus the deviation allowance.
    """
    if omega >= tau:
        raise ValueError("slot must be smaller than the horizon")
    window = tau - omega
    lhs = heston.request_rate * cumulative_decay_integral(decay, window) + (
        heston.excess_energy_ratio
        * math.sqrt(heston.energy_stddev)
        * expected_request_change
        * window
    )
    rhs = 2.0 * lam1 * energy_decay(decay_params_at(decay, window)) + (
        2.0
        * lam1
        * heston.excess_energy_ratio
        * math.sqrt(decay.rate1.stddev * decay.rate2.stddev)
        * window
    )
    return lhs < rhs


@dataclass(frozen=True)
class Candidate:
    """A vehicle eligible for head duty within its cluster."""

    vehicle_id: int
    energy_rating: float
    radio_range: float
    tx_limit: float | None = None
    critical: bool = False


@dataclass(frozen=True)
class OstObservation:
    observed: float
    expected: float
    upper_tx_limit: float | None
    time: float

    def __post_init__(self):
        if not (math.isfinite(self.observed) and math.isfinite(self.expected)):
            raise ValueError("scores must be finite")
        if self.upper_tx_limit is not None and self.upper_tx_limit < 0:
            raise ValueError("upper_tx_limit must be >= 0")


@dataclass(frozen=True)
class ChDecision:
    action: str
    new_ch: int | None
    offload_slot: float
    rule_used: str

    def __post_init__(self):
        if self.action == ACTION_CHANGE and self.new_ch is None:
            raise ValueError("a change decision must name the new head")
        if self.offload_slot < 0:
            raise ValueError("offload_slot must be >= 0")


@dataclass(frozen=True)
class ControllerConfig:
    slot: float
    horizon: float
    expected_rate: float = 0.0
    # Constant override for the expected score; defaults to ost_threshold.
    expected_score: float | None = None

    def __post_init__(self):
        if self.slot <= 0 or self.slot > self.horizon:
            raise ValueError("slot must satisfy 0 < slot <= horizon")


def _pick(candidates: list[Candidate]) -> Candidate:
    return min(candidates, key=lambda c: (-c.energy_rating, c.vehicle_id))


def _split(
    eligible: list[Candidate],
    transfer_scores: Mapping[int, float] | None,
    offload: float,
) -> ChDecision:
    best_range = max(c.radio_range for c in eligible)
    leaders = [c for c in eligible if c.radio_range == best_range]
    if len(leaders) == 1:
        return ChDecision(ACTION_SPLIT_RANGE, leaders[0].vehicle_id, offload, RULE_LIMIT)
    if transfer_scores:
        lead = min(
            leaders,
            key=lambda c: (-transfer_scores.get(c.vehicle_id, 0.0), c.vehicle_id),
        )
    else:
        lead = min(leaders, key=lambda c: c.vehicle_id)
    return ChDecision(ACTION_SPLIT_TRANSFER, lead.vehicle_id, offload, RULE_LIMIT)


def _keep_or_change(
    obs: OstObservation, required_tx_limit: float | None, pre_decay: bool
) -> tuple[str, bool]:
    """The cascade's test on the head alone: (rule that fired, whether a
    change or split is indicated). It needs no candidates."""
    if obs.observed < obs.expected:
        return RULE_OST, True
    if required_tx_limit is None or obs.upper_tx_limit is None:
        if obs.observed == obs.expected:
            # Tie with no capacity data: the pre-decay rule settles it.
            return RULE_PRE_DECAY, pre_decay
        return RULE_OST, False
    if obs.upper_tx_limit >= required_tx_limit:
        return RULE_OST, False
    return RULE_LIMIT, True


def decide(
    obs: OstObservation,
    cfg: ControllerConfig,
    candidates: list[Candidate],
    *,
    required_tx_limit: float | None = None,
    connect_range: float | None = None,
    transfer_scores: Mapping[int, float] | None = None,
    pre_decay: bool = False,
) -> ChDecision:
    """Pure decision for one cluster at one slot (see module cascade)."""
    rule, change = _keep_or_change(obs, required_tx_limit, pre_decay)
    if not change:
        return ChDecision(ACTION_KEEP, None, 0.0, rule)
    eligible = [c for c in candidates if not c.critical]
    offload = max(obs.time - cfg.slot, 0.0)
    if rule == RULE_LIMIT:
        qualified = [
            c
            for c in eligible
            if c.tx_limit is not None
            and c.tx_limit >= required_tx_limit
            and (connect_range is None or connect_range <= c.radio_range)
        ]
        if qualified:
            return ChDecision(ACTION_CHANGE, _pick(qualified).vehicle_id, offload, RULE_LIMIT)
    if not eligible:
        raise ValueError("change indicated but no candidate set and no split data")
    if rule == RULE_LIMIT:
        return _split(eligible, transfer_scores, offload)
    return ChDecision(ACTION_CHANGE, _pick(eligible).vehicle_id, offload, rule)


@dataclass(frozen=True)
class TraceRow:
    slot: int
    cluster: int
    rule_used: str
    action: str
    old_ch: int
    new_ch: int | None
    offload_slot: float


@dataclass(eq=False)
class VehicleArrays:
    """Vehicle state as parallel arrays, one entry per vehicle.

    `head` flags the vehicles whose role is "ch"; `tx_limit` is a list
    because a limit may be None.
    """

    id: np.ndarray
    cluster: np.ndarray
    residual: np.ndarray
    radio_range: np.ndarray
    tx_limit: list
    head: np.ndarray
    critical: np.ndarray
    active: np.ndarray

    @classmethod
    def of(cls, vehicles: Sequence) -> VehicleArrays:
        """Arrays holding the current attributes of vehicle objects."""
        return cls(
            id=np.array([v.id for v in vehicles], dtype=np.int64),
            cluster=np.array([v.cluster for v in vehicles], dtype=np.int64),
            residual=np.array([v.residual_energy for v in vehicles], dtype=float),
            radio_range=np.array([v.radio_range for v in vehicles], dtype=float),
            tx_limit=[v.tx_limit for v in vehicles],
            head=np.array([v.role == "ch" for v in vehicles], dtype=bool),
            critical=np.array([v.critical for v in vehicles], dtype=bool),
            active=np.array([v.active for v in vehicles], dtype=bool),
        )


@dataclass(frozen=True)
class _RunConstants:
    """Values that stay fixed over one controller run."""

    cfg: ControllerConfig
    threshold: float
    score: float  # observed score of a slot that `score_schedule` skips
    pre_decay: bool
    slot_decay_estimate: float


@dataclass
class FleetState:
    """Mutable view of the fleet the controller steps over.

    `vehicles` is either a `VehicleArrays` or a list of objects exposing
    id/cluster/role/residual_energy/radio_range/tx_limit/critical/active
    attributes (the simulator's VehicleState satisfies this). Objects are
    read into arrays when the fleet is first stepped; afterwards the
    controller writes head changes back to their `role`. Scores come from
    `score_schedule` (per slot index), then `score_default`, then the
    stopping score computed from the mobility model and `lam1`.
    """

    vehicles: Sequence | VehicleArrays
    mobility: MobilityModel
    connectivity: ConnectivityParams
    lam1: float = 0.0
    decay: DecayParams | None = None
    heston: HestonParams | None = None
    score_schedule: Mapping[int, float] | None = None
    score_default: float | None = None
    required_tx_limit: float | None = None
    expected_request_change: float = 0.0

    def __post_init__(self):
        self._arrays = None
        self._run: _RunConstants | None = None
        if isinstance(self.vehicles, VehicleArrays):
            self._index(self.vehicles)

    @property
    def arrays(self) -> VehicleArrays:
        if self._arrays is None:
            self._index(VehicleArrays.of(self.vehicles))
        return self._arrays

    def _index(self, arrays: VehicleArrays) -> None:
        self._arrays = arrays
        order = np.lexsort((arrays.id, arrays.cluster))
        keys, starts = np.unique(arrays.cluster[order], return_index=True)
        self._clusters = keys.tolist()
        members = np.split(order, starts[1:]) if order.size else []
        # A cluster without a head never gains one, so only clusters with
        # a head are stepped; each one's head is its lowest-id flagged member.
        stepped = [k for k, m in enumerate(members) if arrays.head[m].any()]
        self._stepped = [self._clusters[k] for k in stepped]
        self._position = {cluster: j for j, cluster in enumerate(self._stepped)}
        self._members = [members[k] for k in stepped]
        self._member_lists = [m.tolist() for m in self._members]
        self._heads = np.array(
            [m[arrays.head[m]][0] for m in self._members], dtype=np.intp
        )
        # Vehicle -> position of its stepped cluster; the rest share one
        # extra position.
        self._cluster_of = np.full(order.size, len(stepped), dtype=np.intp)
        for j, m in enumerate(self._members):
            self._cluster_of[m] = j
        self._ids = arrays.id.tolist()
        self._index_of = {vid: i for i, vid in enumerate(self._ids)}
        self._ranges = arrays.radio_range.tolist()

    def clusters(self) -> list[int]:
        self.arrays  # reads the vehicles on first use
        return list(self._clusters)

    def head(self, cluster: int):
        """The head of `cluster` as an entry of a `vehicles` list, or None."""
        self.arrays  # reads the vehicles on first use
        j = self._position.get(cluster)
        return None if j is None else self.vehicles[int(self._heads[j])]

    def set_head(self, cluster: int, new_id: int) -> None:
        """Make vehicle `new_id` the only head of `cluster`."""
        a = self.arrays
        k = self._position[cluster]
        new = self._index_of[new_id]
        a.head[self._members[k]] = False
        a.head[new] = True
        self._heads[k] = new
        if not isinstance(self.vehicles, VehicleArrays):
            for i in self._member_lists[k]:
                self.vehicles[i].role = "ch" if i == new else "member"

    def _run_constants(self, cfg: ControllerConfig) -> _RunConstants:
        """The per-run values of the cascade, computed on the first slot of
        a run under `cfg`."""
        if self._run is not None and self._run.cfg is cfg:
            return self._run
        threshold = (
            cfg.expected_score
            if cfg.expected_score is not None
            else ost_threshold(self.mobility, self.connectivity, cfg.expected_rate)
        )
        score = (
            self.score_default
            if self.score_default is not None
            else ost_score(self.mobility, self.connectivity, self.lam1)
        )
        pre = False
        if self.decay is not None and self.heston is not None and cfg.slot < cfg.horizon:
            pre = pre_decay_check(
                self.decay,
                self.heston,
                self.lam1,
                cfg.horizon,
                cfg.slot,
                self.expected_request_change,
            )
        estimate = 0.0
        if self.decay is not None:
            estimate = energy_decay(decay_params_at(self.decay, cfg.slot))
        self._run = _RunConstants(cfg, threshold, score, pre, estimate)
        return self._run

    def _candidates(self, k: int, head: int, estimate: float, state) -> list[Candidate]:
        """Candidates of cluster position `k`: its active members other than
        the head, in id order, rated in slots of decay when `estimate` > 0.
        `state` holds the residual, active and critical lists of this slot."""
        residual, active, critical = state
        ids, ranges, limits = self._ids, self._ranges, self._arrays.tx_limit
        return [
            Candidate(
                ids[i],
                residual[i] / estimate if estimate > 0 else residual[i],
                ranges[i],
                limits[i],
                critical[i],
            )
            for i in self._member_lists[k]
            if i != head and active[i]
        ]


def evaluate_slot(
    fleet: FleetState, cfg: ControllerConfig, slot_index: int
) -> list[TraceRow]:
    """Run the decision cascade for every cluster at one slot.

    Applies head changes to the fleet in place and returns the trace rows.
    A cluster without a head or without an active candidate is skipped. A
    dead or critical head is replaced ahead of the cascade when any
    non-critical candidate exists (energy-driven handover).
    """
    run = fleet._run_constants(cfg)
    a = fleet.arrays
    t = slot_index * cfg.slot
    offload = max(t - cfg.slot, 0.0)
    observed = run.score
    if fleet.score_schedule and slot_index in fleet.score_schedule:
        observed = fleet.score_schedule[slot_index]

    heads = fleet._heads
    n_active = np.bincount(fleet._cluster_of, weights=a.active, minlength=heads.size + 1)
    head_active = a.active[heads]
    has_candidate = (n_active[: heads.size] > head_active).tolist()
    steady = (head_active & ~a.critical[heads]).tolist()

    rows: list[TraceRow] = []
    verdicts: dict = {}  # head tx limit -> (observation, rule, change indicated)
    state = None  # the slot's per-vehicle lists, once a cluster needs candidates
    clusters = zip(heads.tolist(), fleet._stepped, has_candidate, steady)
    for k, (head, cluster, live, ok) in enumerate(clusters):
        if not live:
            continue
        head_id = fleet._ids[head]
        if not ok:
            state = state or (a.residual.tolist(), a.active.tolist(), a.critical.tolist())
            eligible = [
                c
                for c in fleet._candidates(k, head, run.slot_decay_estimate, state)
                if not c.critical
            ]
            if eligible:
                new_id = _pick(eligible).vehicle_id
                rows.append(
                    TraceRow(slot_index, cluster, RULE_PRE_DECAY, ACTION_CHANGE, head_id, new_id,
                             offload)
                )
                _apply_change(fleet, cluster, new_id)
            continue

        limit = a.tx_limit[head]
        verdict = verdicts.get(limit)
        if verdict is None:
            obs = OstObservation(observed=observed, expected=run.threshold,
                                 upper_tx_limit=limit, time=t)
            verdict = verdicts[limit] = (
                obs, *_keep_or_change(obs, fleet.required_tx_limit, run.pre_decay)
            )
        obs, rule, change = verdict
        if not change:
            rows.append(TraceRow(slot_index, cluster, rule, ACTION_KEEP, head_id, None, 0.0))
            continue

        state = state or (a.residual.tolist(), a.active.tolist(), a.critical.tolist())
        candidates = fleet._candidates(k, head, run.slot_decay_estimate, state)
        if all(c.critical for c in candidates):
            # Critical-energy vehicles are never selected: the head stays.
            rows.append(TraceRow(slot_index, cluster, rule, ACTION_KEEP, head_id, None, 0.0))
            continue
        decision = decide(
            obs,
            cfg,
            candidates,
            required_tx_limit=fleet.required_tx_limit,
            connect_range=fleet.mobility.connect_range,
            pre_decay=run.pre_decay,
        )
        rows.append(
            TraceRow(
                slot_index,
                cluster,
                decision.rule_used,
                decision.action,
                head_id,
                decision.new_ch,
                decision.offload_slot,
            )
        )
        if decision.action == ACTION_CHANGE:
            _apply_change(fleet, cluster, decision.new_ch)
    return rows


def _apply_change(fleet: FleetState, cluster: int, new_id: int) -> None:
    fleet.set_head(cluster, new_id)


def run_controller(fleet: FleetState, cfg: ControllerConfig) -> list[TraceRow]:
    """Iterate the decision cascade over every slot up to the horizon."""
    rows: list[TraceRow] = []
    n_slots = int(round(cfg.horizon / cfg.slot))
    for slot_index in range(1, n_slots + 1):
        rows.extend(evaluate_slot(fleet, cfg, slot_index))
    return rows
