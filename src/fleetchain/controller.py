"""Cluster-head rotation rules and the slotted decision loop.

Decision cascade per cluster and slot:

(a) stopping rule: change the head when the observed score falls strictly
    below the expected score (equality keeps the head);
(b) capacity rule: otherwise compare the head's transaction limit against
    the cluster's required ceiling; an under-provisioned head is replaced
    by a candidate whose limit covers the requirement and whose radio range
    covers the connect range;
(c) no qualified member: the head stays (no cluster split is modelled);
(d) ambiguity: when the score comparison is an exact tie and the capacity
    data is unavailable, the pre-decay test decides.

A change decided at slot t stamps its offload at t - slot so the handover
is prepared one slot ahead. Critical-energy vehicles are never selected:
when a change is indicated and no candidate is eligible, the head stays.

The slotted loop steps the fleet as arrays (`VehicleArrays`) only;
`run_controller` is the one entry that also takes a list of vehicle
objects, read into arrays once when the run starts. On its first slot a run
indexes the clusters, gives each vehicle its head class (no capacity data,
a limit that covers the requirement, a limit below it) and computes the
threshold, default score, pre-decay verdict and slot decay estimate. Each
slot it applies the keep-or-change test of the cascade to every cluster's
head in one array pass: the verdict depends on the head's class alone, so
a table of one verdict per class (`_verdict_table`) is spread over the
vehicles while the observed score stays the same, and gathered per head.
When a head is dead or critical, or the test indicates a change, one array
pass over the stepped clusters' members (`_select`) picks the new head of
every cluster at once. These two passes are the package's only implementation of the
cascade; the slot-loop specification in the tests writes it out again,
one cluster at a time.

`evaluate_slot` returns the slot's rows as a `SlotTrace` of columns, which
holds no slot: `SlotTrace.rows_at` gives them as the `TraceRow`s of a slot,
the rows `run_controller` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import compress
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

# The fixed verdicts of `FleetState.fixed`.
FIXED_KEEP = "keep every head"
FIXED_SWAP = "swap every pair"

# Rule codes of a `SlotTrace`: index into RULES.
RULES = (RULE_OST, RULE_LIMIT, RULE_PRE_DECAY)
_OST_CODE, _LIMIT_CODE, _PRE_DECAY_CODE = range(len(RULES))

# Nothing calls these names; benchmarks/tracing.py looks them up to install
# its `controller.decide` span and `controller.candidates_built` counter.
decide = None
Candidate = None


def ost_score(m: MobilityModel, c: ConnectivityParams, lam1: float) -> float:
    """Observable stopping score at negligible drift variance."""
    return c.presence_prob * range_mass(m, m.radio_range) + 2.0 * lam1


def ost_threshold(m: MobilityModel, c: ConnectivityParams, lam_expected: float) -> float:
    """Expected-score threshold below which the head must change."""
    return c.presence_prob * range_mass(m, m.mean_range) + lam_expected


def cumulative_decay_integral(p: DecayParams, horizon: float) -> float:
    """Integral over [0, horizon] of the decay value seen up to each time.

    That is `scale * (h + expm1(-x) / lam) / lam` with x = lam * h, which
    cancels as x -> 0; below x = 1 it is taken as `scale * h**2` times the
    series sum over k >= 0 of (-x)**k / (k + 2)!, whose terms past k = 16
    fall below 1e-17 of the first. At lam = 0 the series is 1/2."""
    lam = invert_rate(p.rate1) + invert_rate(p.rate2)
    scale, x = p.initial_energy / p.app_count, lam * horizon
    if x >= 1.0:
        return scale * (horizon + math.expm1(-x) / lam) / lam
    series = 0.0
    for k in range(18, 1, -1):  # Horner's rule, from the last term
        series = series * -x + 1.0 / math.factorial(k)
    return scale * horizon * horizon * series


def pre_decay_check(
    decay: DecayParams,
    heston: HestonParams,
    lam1: float,
    tau: float,
    omega: float,
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
        * heston.request_change_rate
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
class ControllerConfig:
    slot: float
    horizon: float
    expected_rate: float = 0.0
    # Constant override for the expected score; defaults to ost_threshold.
    expected_score: float | None = None

    def __post_init__(self):
        if not 0 < self.slot <= self.horizon < math.inf:  # NaN fails every comparison
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


def tx_limit_value(limit: float | None) -> float:
    """A tx limit as a float: NaN for no limit (None)."""
    return math.nan if limit is None else limit


def _head_classes(tx_limit: np.ndarray, required: float | None) -> np.ndarray:
    """The class of each head for the keep-or-change test: 0 without
    capacity data (no `required` limit, or a NaN limit), 1 where its limit
    covers `required`, 2 where its limit is below it."""
    if required is None:
        return np.zeros(tx_limit.shape, dtype=np.intp)
    return np.where(tx_limit >= required, 1, np.where(np.isnan(tx_limit), 0, 2))


def _verdict_table(
    observed: float, expected: float, pre_decay: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The cascade's test on a head alone, per head class (`_head_classes`):
    the rule code that fires and whether a change is indicated. It needs no
    candidates."""
    if not (math.isfinite(observed) and math.isfinite(expected)):
        raise ValueError("scores must be finite")
    if observed < expected:
        return np.full(3, _OST_CODE), np.ones(3, dtype=bool)
    # A tie with no capacity data: the pre-decay rule settles it.
    no_data = (_PRE_DECAY_CODE, pre_decay) if observed == expected else (_OST_CODE, False)
    rule, change = zip(no_data, (_OST_CODE, False), (_LIMIT_CODE, True))
    return np.array(rule), np.array(change)


def _select(rating: np.ndarray, eligible: np.ndarray, seg: _Segments) -> np.ndarray:
    """The cascade's choice of a new head for every segment at once.

    Entries are vehicles in id order within each segment. A segment picks
    its `eligible` vehicle of highest `rating`, ties to the lowest id.
    Returns each segment's flat position of the pick, or `rating.size`
    where no vehicle is eligible.
    """
    top = np.maximum.reduceat(np.where(eligible, rating, -np.inf), seg.starts)
    hit = eligible & (rating == top[seg.segment])
    return np.minimum.reduceat(np.where(hit, seg.position, rating.size), seg.starts)


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
class SlotTrace:
    """The trace rows of a slot as columns, one entry per row in cluster
    order. They hold no slot: a run repeats one trace on many slots.

    `rule` indexes `RULES`; `change` is the action, a change where set and
    a keep elsewhere. `new` holds the new head's id where `change` is set.
    `len()` is the row count, and `rows_at` gives the `TraceRow`s. The
    columns are lists: a run keeps one trace per slot stepped alone, and
    small arrays kept that long fragment the heap (peak RSS rose by about
    0.5 MB on a churn run)."""

    cluster: list[int]
    rule: list[int]
    change: list[bool]
    old: list[int]
    new: list[int]

    def __len__(self) -> int:
        return len(self.cluster)

    def rows_at(self, slot: int, length: float) -> list[TraceRow]:
        """The rows as those of slot `slot`, `length` long. A change stamps
        its offload one slot ahead, at `slot * length - length` and at least
        0; a keep's is 0.0."""
        offload = max(slot * length - length, 0.0)
        return [
            TraceRow(slot, cluster, RULES[rule], ACTION_CHANGE, old, new, offload) if change
            else TraceRow(slot, cluster, RULES[rule], ACTION_KEEP, old, None, 0.0)
            for cluster, rule, change, old, new in zip(
                self.cluster, self.rule, self.change, self.old, self.new)
        ]


@dataclass(eq=False)
class VehicleArrays:
    """Vehicle state as parallel arrays, one entry per vehicle.

    `head` flags the vehicles whose role is "ch"; `tx_limit` is NaN where a
    vehicle has no limit (None).
    """

    id: np.ndarray
    cluster: np.ndarray
    residual: np.ndarray
    radio_range: np.ndarray
    tx_limit: np.ndarray
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
            tx_limit=np.array([tx_limit_value(v.tx_limit) for v in vehicles], dtype=float),
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

    `vehicles` is a `VehicleArrays`. `evaluate_slot` steps one slot of the
    cascade over it and writes head changes to its `head` flags in place;
    a run leaves one flag in each cluster it steps. `run_controller` steps
    every slot of a run, and it alone also takes a list of objects exposing
    id/cluster/role/residual_energy/radio_range/tx_limit/critical/active
    attributes (the simulator's VehicleState satisfies this). Scores come
    from `score_schedule` (per slot index), then `score_default`, then the
    stopping score computed from the mobility model and `lam1`. The
    simulator's blocks, which step slots without `evaluate_slot`, read the
    rest: `ratings` rates residuals as the head selection does,
    `handed_back` gives the rows of the slot after a swap and `handed_on`
    those of a slot that breaks the pairs, neither with a slot;
    `_apply_change` moves heads. Each slot reads the `active` flags
    afresh, so a caller may clear them between slots.

    `heads` holds the head of each stepped cluster in cluster order, from
    the run's first slot on (None before it); head changes update it in
    place.

    `fixed` tells whether the last `evaluate_slot` reached a fixed verdict,
    which needs no score schedule. `FIXED_KEEP`: it changed no head, either
    because none was indicated for a change or because no one could take
    over. A cluster with no eligible member keeps having none while
    residuals only fall, the critical flags only rise and no vehicle stops,
    so until a vehicle stops or a head turns critical, a later slot would
    return the same trace.
    `FIXED_SWAP`: every row changed its head, and as far as this slot
    tells, the next hands each head back (`handed_back` gives its rows):
    the new head's verdict is a change and the returning vehicle's
    residual is above every other candidate's in its cluster. It is never
    set where the Lemma2-limit rule fires (`_hands_back`). Each such
    cluster's head then alternates between the two vehicles while each
    stays healthy, no vehicle stops and the returning one stays its
    cluster's best candidate after each slot's charge, which the simulator
    checks slot by slot; the slots alternate the rows of this slot and of
    the next. Otherwise `fixed` is None.
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

    def __post_init__(self):
        self._run: _RunConstants | None = None
        self.heads: np.ndarray | None = None
        self.fixed: str | None = None

    def _index(self) -> None:
        """Group the vehicles by cluster and class them for one run."""
        a = self.vehicles
        if np.count_nonzero(a.tx_limit < 0):
            raise ValueError("tx_limit must be >= 0")
        # The vehicles in (cluster, id) order, one segment per cluster.
        n = a.id.size
        order = np.lexsort((a.id, a.cluster))
        cluster = a.cluster[order]
        first = np.empty(n, dtype=bool)
        first[:1] = True
        np.not_equal(cluster[1:], cluster[:-1], out=first[1:])
        starts = first.nonzero()[0]
        # A cluster without a head never gains one, so only clusters with
        # a head are stepped; each one's head is its lowest-id flagged
        # member, the first flagged position of its segment (n for none).
        positions = np.arange(n)
        head_at = np.minimum.reduceat(np.where(a.head[order], positions, n), starts)
        stepped = head_at < n
        self._stepped = cluster[starts[stepped]].tolist()
        self.heads = order[head_at[stepped]]
        # The stepped clusters' members as one flat array in (cluster, id)
        # order, one segment per cluster, for the head selection. Where it
        # holds every vehicle in array order, a slice gathers it as a view.
        self._flat = order[stepped[np.cumsum(first) - 1]]
        self._gather = self._flat
        if np.array_equal(self._flat, positions):
            self._gather = slice(None)
        # Only the head keeps its flag, so `_apply_change` moves one flag.
        a.head[self._flat] = False
        a.head[self.heads] = True
        self._segments = _Segments.of_lengths(np.diff(starts, append=n)[stepped])
        # Whether each member qualifies for a head the Lemma2-limit rule
        # hands over: a limit that covers the required one (a NaN limit
        # never does) and a radio range that covers the connect range.
        self._flat_qualified = None
        if self.required_tx_limit is not None:
            self._flat_qualified = ((a.tx_limit[self._flat] >= self.required_tx_limit)
                                    & (self.mobility.connect_range <= a.radio_range[self._flat]))
        # Vehicle -> position of its stepped cluster; the rest share one
        # extra position.
        self._cluster_of = np.full(n, self.heads.size, dtype=np.intp)
        self._cluster_of[self._flat] = self._segments.segment
        self._class_of = _head_classes(a.tx_limit, self.required_tx_limit)
        # Each vehicle's verdict as a head, kept while the observed score
        # stays the same.
        self._verdict_score = None

    def _set_verdicts(self, observed: float, run: _RunConstants) -> None:
        """Each vehicle's rule code and change flag as a head under the
        observed score, from the verdict table of its head class."""
        rule, change = _verdict_table(observed, run.threshold, run.pre_decay)
        self._rule_of, self._change_of = rule[self._class_of], change[self._class_of]
        self._limit_fires = np.count_nonzero(self._rule_of == _LIMIT_CODE) > 0
        self._verdict_score = observed

    def _run_constants(self, cfg: ControllerConfig) -> _RunConstants:
        """The cluster index and the per-run values of the cascade, computed
        on the first slot of a run under `cfg`."""
        if self._run is not None and self._run.cfg is cfg:
            return self._run
        self._index()
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
            pre = pre_decay_check(self.decay, self.heston, self.lam1, cfg.horizon, cfg.slot)
        estimate = 0.0
        if self.decay is not None:
            estimate = energy_decay(decay_params_at(self.decay, cfg.slot))
        self._run = _RunConstants(cfg, threshold, score, pre, estimate)
        return self._run

    def ratings(self, residual: np.ndarray) -> np.ndarray:
        """Residual energies as the head selection rates them: in slots of
        decay when the run's estimate is positive."""
        estimate = self._run.slot_decay_estimate
        return residual / estimate if estimate > 0 else residual

    def handed_back(self, trace: SlotTrace) -> SlotTrace:
        """The rows of the slot after `trace` when `fixed` is `FIXED_SWAP`:
        each row's new head, under its own rule, hands the head back to the
        old one. Vehicle ids are positions in the arrays."""
        return SlotTrace(trace.cluster, self._rule_of[trace.new].tolist(), trace.change,
                         trace.new, trace.old)

    def _hands_back(self, back: np.ndarray, taken: np.ndarray, picks: np.ndarray,
                    residual: np.ndarray, ok: np.ndarray, seg: _Segments) -> bool:
        """Whether the next slot, as far as this one tells, gives each head
        taken by the vehicle at `taken` back to the vehicle it came from,
        whose residual is `back`. The candidates have their `residual`s
        flat, one segment of `seg` per cluster in cluster order, and
        `picks` holds each new head's position among them. The new head's
        verdict must be a change, and the returning vehicle's residual above
        that of every other candidate of its cluster flagged in `ok`
        (active, not critical and not an old head; `ok` is overwritten).
        Those members pay a member's charge on the next slot as the
        returning vehicle does, so one it is not above now stays rated at
        least as high; where it is above, the next slot's charge can still
        tie them.

        It is False wherever the Lemma2-limit rule fires, which is always
        correct: the slots then run alone. It mostly costs no block either.
        A returning vehicle that qualifies for a head that rule hands over
        has a limit that covers the requirement, so its own verdict is a
        keep, and it handed the head over only as a critical or stopped
        head: a swap block then fails its taker floor on its first slot, or
        does not start. Where every vehicle has one limit, as in the
        simulator, the rule fires only where no vehicle qualifies."""
        if self._limit_fires or np.count_nonzero(~self._change_of[taken]):
            return False
        ok[picks] = False
        top = np.maximum.reduceat(np.where(ok, residual, -np.inf), seg.starts)
        if picks.size < top.size:  # otherwise pick k is in segment k
            top = top[seg.segment[picks]]
        return np.count_nonzero(back > top) == picks.size

    def handed_on(self, expected: SlotTrace, ids: np.ndarray, at: np.ndarray,
                  residual: np.ndarray, ok: np.ndarray,
                  seg: _Segments) -> tuple[SlotTrace, np.ndarray] | None:
        """The rows `evaluate_slot` would give the slot of a swap block whose
        `expected` rows hand each head (`old`) back to its returning vehicle
        (`new`), and the picks: each head goes to the candidate the cascade
        picks (`_select`), the returning vehicle or another. The candidates
        are the vehicles at `ids` (positions in the arrays): every active
        vehicle of those clusters, in (cluster, id) order, one segment of
        `seg` per row, with the row's head at its position in `at`.
        `residual` is their residual after the slot's charge and `ok`
        whether each is not critical (overwritten). The rows, and each
        pick's position in `ids`, are returned only where the slot would
        set `FIXED_SWAP`: every head's verdict is a change, and the picks
        hand back on the next slot (`_hands_back`), which is never where the
        Lemma2-limit rule fires; so no qualification restricts the picks.
        Otherwise None. It moves no head; `_apply_change` does."""
        heads = ids[at]
        if np.count_nonzero(ok[at] & self._change_of[heads]) < heads.size:
            return None
        ok[at] = False  # a head is not its own candidate
        picks = _select(self.ratings(residual), ok, seg)
        if np.count_nonzero(picks == ids.size):
            return None
        taken = ids[picks]
        if not self._hands_back(residual[at], taken, picks, residual, ok, seg):
            return None
        rows = SlotTrace(expected.cluster, self._rule_of[heads].tolist(), expected.change,
                         expected.old, taken.tolist())
        return rows, picks


def evaluate_slot(fleet: FleetState, cfg: ControllerConfig, slot_index: int) -> SlotTrace:
    """Run the decision cascade for every cluster at one slot.

    Applies head changes to the fleet in place and returns the slot's trace
    rows as columns. A cluster without a head or without an active
    candidate is skipped. A dead or critical head is replaced ahead of the
    cascade when any non-critical candidate exists (energy-driven handover).
    The keep-or-change test is one array pass over the heads, its verdict
    gathered from each vehicle's verdict as a head; only when some cluster
    is indicated for a change are new heads selected.
    """
    run = fleet._run_constants(cfg)
    a = fleet.vehicles
    observed = run.score
    if fleet.score_schedule and slot_index in fleet.score_schedule:
        observed = fleet.score_schedule[slot_index]
    if observed != fleet._verdict_score:
        fleet._set_verdicts(observed, run)

    # On flags, x > y is "x and not y".
    heads = fleet.heads
    ok = a.active > a.critical
    steady = ok[heads]  # neither dead nor critical
    # Whether each head has an active candidate: only heads keep a flag.
    live = np.logical_or.reduceat((a.active > a.head)[fleet._gather], fleet._segments.starts)
    rule = fleet._rule_of[heads]
    # Dead or critical heads need a new head whatever the test says.
    indicated = live > (steady > fleet._change_of[heads])
    some = np.count_nonzero(indicated) > 0
    fleet.fixed = None
    old = a.id[heads].tolist()
    if not some:
        rows, change, new = live, [False] * heads.size, old
    else:
        # Each stepped cluster picks among its members that are active, not
        # critical and not the head (`ok`, which `_hands_back` reads too).
        ok[heads] = False
        eligible = ok[fleet._gather]
        if fleet._limit_fires:
            # Where a steady head's Lemma2-limit verdict fired (it always
            # indicates a change), only qualified members are eligible.
            fired = steady & (rule == _LIMIT_CODE)
            eligible = eligible & (fleet._flat_qualified | ~fired[fleet._segments.segment])
        picks = _select(fleet.ratings(a.residual[fleet._gather]), eligible, fleet._segments)
        picked = indicated & (picks < fleet._flat.size)
        # No eligible (under the Lemma2-limit rule, qualified) member: the
        # head stays. A handover with no one to take over writes no row.
        rows = live & (steady | picked)
        if np.count_nonzero(steady) < steady.size:
            rule = np.where(steady, rule, _PRE_DECAY_CODE)
        change = picked.tolist()
        returning = heads[picked]
        _apply_change(fleet, returning, fleet._flat[picks[picked]])
        new = a.id[heads].tolist()
        if (not fleet.score_schedule and 0 < np.count_nonzero(picked) == np.count_nonzero(rows)
                and fleet._hands_back(a.residual[returning], heads[picked], picks[picked],
                                      a.residual[fleet._gather], ok[fleet._gather],
                                      fleet._segments)):
            fleet.fixed = FIXED_SWAP
    if not fleet.score_schedule and True not in change:
        fleet.fixed = FIXED_KEEP
    columns = fleet._stepped, rule.tolist(), change, old, new
    if np.count_nonzero(rows) < rows.size:
        keep = rows.tolist()
        columns = [list(compress(column, keep)) for column in columns]
    return SlotTrace(*columns)


def _apply_change(fleet: FleetState, old: np.ndarray, new: np.ndarray) -> None:
    """Give the head of each stepped cluster headed by a vehicle at `old`
    to the vehicle at the same place in `new` (positions in the arrays)."""
    fleet.heads[fleet._cluster_of[old]] = new
    fleet.vehicles.head[old] = False
    fleet.vehicles.head[new] = True


def run_controller(fleet: FleetState, cfg: ControllerConfig) -> list[TraceRow]:
    """Iterate the decision cascade over every slot up to the horizon.

    A list of vehicle objects is read into arrays when the run starts; at
    the end every member of a cluster whose head changed gets its `role`
    back ("ch" for the head, else "member"). Other objects are untouched.
    """
    objects = None
    if not isinstance(fleet.vehicles, VehicleArrays):
        objects = fleet.vehicles
        fleet = replace(fleet, vehicles=VehicleArrays.of(objects))
    rows: list[TraceRow] = []
    for slot_index in range(1, slot_count(cfg.horizon, cfg.slot) + 1):
        rows += evaluate_slot(fleet, cfg, slot_index).rows_at(slot_index, cfg.slot)
    if objects is not None:
        a = fleet.vehicles
        changed = {row.cluster for row in rows if row.action == ACTION_CHANGE}
        for v, cluster, head in zip(objects, a.cluster.tolist(), a.head.tolist()):
            if cluster in changed:
                v.role = "ch" if head else "member"
    return rows
