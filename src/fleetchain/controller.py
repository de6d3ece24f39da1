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
to every cluster's head. When a head is dead or critical, or the test
indicates a change or split, one array pass over the stepped clusters'
members (`_select`) picks the new head or split lead of every cluster at
once. `decide` is the same selection over one cluster's `Candidate` list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .analytics import DecayParams, decay_params_at, energy_decay, invert_rate
from .energy import HestonParams
from .mobility import ConnectivityParams, MobilityModel, range_mass

RULE_OST = "OST"
RULE_LIMIT = "Lemma2-limit"
RULE_PRE_DECAY = "pre-decay"

ACTION_KEEP = "keep"
ACTION_CHANGE = "change"
ACTION_SPLIT_RANGE = "split_by_range"
ACTION_SPLIT_TRANSFER = "split_by_transfer"


def ost_score(m: MobilityModel, c: ConnectivityParams, lam1: float) -> float:
    """Observable stopping score at negligible drift variance."""
    return c.presence_prob * range_mass(m, m.radio_range) + 2.0 * lam1


def ost_threshold(m: MobilityModel, c: ConnectivityParams, lam_expected: float) -> float:
    """Expected-score threshold below which the head must change."""
    return c.presence_prob * range_mass(m, m.mean_range) + lam_expected


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


def whole_quotient(num: float, den: float, rounding) -> int:
    """`num / den` as a whole number of slots. A quotient within a relative
    1e-9 of a whole number counts as that number (0.3 / 0.1 gives 3, 2.1 /
    0.7 gives 3); any other is rounded by `rounding` (`math.floor` or
    `math.ceil`)."""
    q = num / den
    n = round(q)
    return n if abs(n - q) <= 1e-9 * q else rounding(q)


def slot_count(horizon: float, slot: float) -> int:
    """Number of slots in a run: the largest n with n * slot <= horizon, up
    to the tolerance of `whole_quotient` (14 / 4 gives 3)."""
    return whole_quotient(horizon, slot, math.floor)


@dataclass(frozen=True)
class _Segments:
    """Consecutive runs of a flat array; segment k starts at `starts[k]`."""

    starts: np.ndarray
    segment: np.ndarray  # segment of each flat position
    position: np.ndarray  # 0, 1, ... over the flat positions

    @classmethod
    def of_lengths(cls, lengths: Sequence[int]) -> _Segments:
        lengths = np.asarray(lengths, dtype=np.intp)
        ends = np.cumsum(lengths)
        return cls(
            starts=ends - lengths,
            segment=np.repeat(np.arange(lengths.size), lengths),
            position=np.arange(ends[-1] if lengths.size else 0),
        )


def _first_best(
    values: np.ndarray, mask: np.ndarray, seg: _Segments
) -> tuple[np.ndarray, np.ndarray]:
    """Per segment: the largest masked value and the flat position of the
    first masked entry holding it, or `values.size` when none is masked."""
    top = np.maximum.reduceat(np.where(mask, values, -np.inf), seg.starts)
    hit = mask & (values == top[seg.segment])
    first = np.minimum.reduceat(np.where(hit, seg.position, values.size), seg.starts)
    return top, first


def _qualified(
    tx_limit: Sequence, radio_range: np.ndarray, required: float, connect_range: float | None
) -> np.ndarray:
    """Vehicles whose limit covers `required` and whose radio range covers
    `connect_range`: those the Lemma2-limit rule may hand the head to."""
    ok = np.array([lim is not None and lim >= required for lim in tx_limit], dtype=bool)
    if connect_range is not None:
        ok &= connect_range <= radio_range
    return ok


def _select(
    rating: np.ndarray,
    eligible: np.ndarray,
    seg: _Segments,
    limit: np.ndarray,
    qualified: np.ndarray | None,
    radio_range: np.ndarray,
    transfer: np.ndarray | None = None,
) -> tuple[list[int], list[str]]:
    """The cascade's choice of a new head for every segment at once.

    Entries are vehicles in id order within each segment. A segment picks
    its eligible vehicle of highest `rating`, ties to the lowest id. Where
    `limit` marks that the Lemma2-limit rule fired, it picks among the
    `qualified` eligible vehicles instead; with none qualified it splits
    the load, led by the unique largest radio range, else by the highest
    `transfer` score (lowest id without scores) among the range leaders.
    Returns each segment's flat position of the pick, `rating.size` where
    no vehicle is eligible, and its action.
    """
    n = rating.size
    _, pick = _first_best(rating, eligible, seg)
    action = [ACTION_CHANGE] * seg.starts.size
    if not limit.any():
        return pick.tolist(), action
    _, best_qualified = _first_best(rating, eligible & qualified, seg)
    split = limit & (best_qualified == n)
    pick = np.where(limit, best_qualified, pick)
    if split.any():
        top, lead = _first_best(radio_range, eligible, seg)
        leaders = eligible & (radio_range == top[seg.segment])
        unique = np.add.reduceat(leaders, seg.starts) == 1
        if transfer is not None:
            _, by_transfer = _first_best(transfer, leaders, seg)
        else:
            by_transfer = lead
        pick = np.where(split, np.where(unique, lead, by_transfer), pick)
        for k in np.flatnonzero(split).tolist():
            action[k] = ACTION_SPLIT_RANGE if unique[k] else ACTION_SPLIT_TRANSFER
    return pick.tolist(), action


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
    if all(c.critical for c in candidates):
        raise ValueError("change indicated but no candidate set and no split data")
    pool = sorted(candidates, key=lambda c: c.vehicle_id)
    ranges = np.array([c.radio_range for c in pool], dtype=float)
    limit = rule == RULE_LIMIT
    qualified = transfer = None
    if limit:
        limits = [c.tx_limit for c in pool]
        qualified = _qualified(limits, ranges, required_tx_limit, connect_range)
        if transfer_scores:
            transfer = np.array([transfer_scores.get(c.vehicle_id, 0.0) for c in pool], dtype=float)
    (pick,), (action,) = _select(
        np.array([c.energy_rating for c in pool], dtype=float),
        np.array([not c.critical for c in pool], dtype=bool),
        _Segments.of_lengths([len(pool)]),
        np.array([limit]),
        qualified,
        ranges,
        transfer,
    )
    return ChDecision(action, pool[pick].vehicle_id, max(obs.time - cfg.slot, 0.0), rule)


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
        # The stepped clusters' members as one flat array in (cluster, id)
        # order, one segment per cluster, for the head selection.
        self._flat = np.concatenate(self._members) if stepped else np.empty(0, np.intp)
        self._segments = _Segments.of_lengths([m.size for m in self._members])
        self._flat_position = np.full(order.size, -1, dtype=np.intp)
        self._flat_position[self._flat] = self._segments.position
        self._flat_ids = arrays.id[self._flat].tolist()
        self._flat_range = arrays.radio_range[self._flat]
        self._flat_qualified = None  # built when the Lemma2-limit rule first fires
        # Vehicle -> position of its stepped cluster; the rest share one
        # extra position.
        self._cluster_of = np.full(order.size, len(stepped), dtype=np.intp)
        for j, m in enumerate(self._members):
            self._cluster_of[m] = j
        self._ids = arrays.id.tolist()
        self._index_of = {vid: i for i, vid in enumerate(self._ids)}

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

    def _select_heads(
        self, run: _RunConstants, limit: np.ndarray
    ) -> tuple[list[int | None], list[str]]:
        """Per stepped cluster: the id of its new head or split lead among
        its active, non-critical members other than the head (None when
        there is none) and the action, by `_select`. Members are rated in
        slots of decay when the run's estimate is positive; `limit` marks
        the clusters where the Lemma2-limit rule fired."""
        a, flat = self._arrays, self._flat
        eligible = a.active[flat] & ~a.critical[flat]
        eligible[self._flat_position[self._heads]] = False
        rating = a.residual[flat]
        if run.slot_decay_estimate > 0:
            rating = rating / run.slot_decay_estimate
        if limit.any() and self._flat_qualified is None:
            self._flat_qualified = _qualified(
                [a.tx_limit[i] for i in flat.tolist()],
                self._flat_range,
                self.required_tx_limit,
                self.mobility.connect_range,
            )
        picks, actions = _select(
            rating, eligible, self._segments, limit, self._flat_qualified, self._flat_range
        )
        ids = self._flat_ids
        return [ids[p] if p < len(ids) else None for p in picks], actions


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

    rows: list[TraceRow | None] = []
    verdicts: dict = {}  # head tx limit -> (rule, change indicated)
    # (row index, cluster position, head id, rule) of each cluster that needs
    # a new head; the rule is None for an energy handover.
    pending = []
    ids = fleet._ids
    clusters = zip(heads.tolist(), fleet._stepped, has_candidate, steady)
    for k, (head, cluster, live, ok) in enumerate(clusters):
        if not live:
            continue
        if not ok:
            pending.append((len(rows), k, ids[head], None))
            rows.append(None)
            continue
        limit = a.tx_limit[head]
        verdict = verdicts.get(limit)
        if verdict is None:
            obs = OstObservation(observed=observed, expected=run.threshold,
                                 upper_tx_limit=limit, time=t)
            verdict = verdicts[limit] = _keep_or_change(
                obs, fleet.required_tx_limit, run.pre_decay
            )
        rule, change = verdict
        if change:
            pending.append((len(rows), k, ids[head], rule))
            rows.append(None)
        else:
            rows.append(TraceRow(slot_index, cluster, rule, ACTION_KEEP, ids[head], None, 0.0))
    if not pending:
        return rows

    limit_fired = np.zeros(heads.size, dtype=bool)
    limit_fired[[k for _, k, _, rule in pending if rule == RULE_LIMIT]] = True
    picks, actions = fleet._select_heads(run, limit_fired)
    for i, k, head_id, rule in pending:
        cluster, new_id = fleet._stepped[k], picks[k]
        if new_id is None:
            # Critical-energy vehicles are never selected: the head stays. A
            # handover with no one to take over writes no row.
            if rule is not None:
                rows[i] = TraceRow(slot_index, cluster, rule, ACTION_KEEP, head_id, None, 0.0)
            continue
        action = actions[k]
        rows[i] = TraceRow(slot_index, cluster, rule or RULE_PRE_DECAY, action, head_id,
                           new_id, offload)
        if action == ACTION_CHANGE:
            _apply_change(fleet, cluster, new_id)
    return [row for row in rows if row is not None]


def _apply_change(fleet: FleetState, cluster: int, new_id: int) -> None:
    fleet.set_head(cluster, new_id)


def run_controller(fleet: FleetState, cfg: ControllerConfig) -> list[TraceRow]:
    """Iterate the decision cascade over every slot up to the horizon."""
    rows: list[TraceRow] = []
    for slot_index in range(1, slot_count(cfg.horizon, cfg.slot) + 1):
        rows.extend(evaluate_slot(fleet, cfg, slot_index))
    return rows
