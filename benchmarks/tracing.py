"""Spans and counters recorded around fleetchain's layer boundaries.

The tracer replaces module attributes of fleetchain with wrappers, so the
program's files stay untouched: a call that goes through
`fleetchain.sim.evaluate_slot` reaches the wrapper, which records a span
(name, start, end, parent) under the current operation id and calls the
original. Count-only wrappers sit on the calls too frequent for a span
(`Candidate`, `MobilityModel.pdf`, the energy charges). Spans stay in memory
until `write_spans`; self times and counts are derived from them afterwards.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter_ns

import fleetchain.cli
import fleetchain.controller
import fleetchain.mobility
import fleetchain.sim
import fleetchain.validate

# Span name -> (module, attribute). A span's name is the layer it enters.
SPANS = {
    "sim.paired_comparison": (fleetchain.sim, "paired_comparison"),
    "sim.run_baseline": (fleetchain.sim, "run_baseline"),
    "sim.run_clustered": (fleetchain.sim, "run_clustered"),
    "sim.init_vehicles": (fleetchain.sim, "_init_vehicles"),
    "sim.check_constraints": (fleetchain.sim, "check_constraints"),
    "sim.range_mass": (fleetchain.sim, "range_mass"),
    "sim.energy_decay": (fleetchain.sim, "energy_decay"),
    "sim.comparison_csv": (fleetchain.sim, "comparison_csv"),
    "controller.evaluate_slot": (fleetchain.sim, "evaluate_slot"),
    "controller.decide": (fleetchain.controller, "decide"),
    "controller.pre_decay_check": (fleetchain.controller, "pre_decay_check"),
    "controller.apply_change": (fleetchain.controller, "_apply_change"),
    "mobility.range_mass": (fleetchain.mobility, "range_mass"),
    "quadrature.adaptive_simpson": (fleetchain.mobility, "adaptive_simpson"),
    "scenario.load": (fleetchain.cli, "load_scenario"),
    "scenario.expand": (fleetchain.cli, "expand"),
    "cli.paired_comparison": (fleetchain.cli, "paired_comparison"),
    "cli.comparison_csv": (fleetchain.cli, "comparison_csv"),
    "cli.write": (fleetchain.cli, "_write"),
    "cli.run_validation": (fleetchain.cli, "run_validation"),
    "validate.decay": (fleetchain.validate, "check_decay_against_quadrature"),
    "validate.synchronized": (fleetchain.validate, "check_synchronized_consistency"),
    "validate.rate_roundtrip": (fleetchain.validate, "check_rate_roundtrip"),
    "validate.tx_ceiling": (fleetchain.validate, "check_tx_ceiling"),
    "validate.in_range": (fleetchain.validate, "check_in_range_probability"),
}

# The closed forms validate imports from analytics, and the one sim calls.
CLOSED_FORMS = (
    "energy_decay",
    "energy_decay_at_rates",
    "energy_decay_synchronized",
    "estimate_synchronized_rate",
    "invert_rate",
    "peak_frequency",
    "rate_frequency",
    "transaction_count",
)
for _name in CLOSED_FORMS:
    SPANS[f"analytics.{_name}"] = (fleetchain.validate, _name)

# Counter name -> (owner, attribute); the wrapper only counts calls.
COUNTS = {
    "controller.candidates_built": (fleetchain.controller, "Candidate"),
    "mobility.pdf_evals": (fleetchain.mobility.MobilityModel, "pdf"),
    "energy.calls.transmission": (fleetchain.sim, "transmission_energy"),
    "energy.calls.ledger_update": (fleetchain.sim, "ledger_update_energy"),
}

VALIDATE_CHECKS = (
    "validate.decay",
    "validate.synchronized",
    "validate.rate_roundtrip",
    "validate.tx_ceiling",
    "validate.in_range",
)


class Tracer:
    """Records spans of the wrapped calls while installed."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.raised: set[int] = set()
        self.op_id = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, on_result=None):
        """`fn` wrapped so each call records a span named `name`."""
        spans, stack, counts, raised = self.spans, self._stack, self.counts, self.raised

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                raised.add(sid)
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((self.op_id, sid, parent, name, start, end))
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        hooks = {
            "controller.evaluate_slot": self._on_slot_rows,
            "scenario.expand": self._on_expand,
            "cli.write": self._on_write,
        }
        for check in VALIDATE_CHECKS:
            hooks[check] = self._on_check
        for name, (owner, attr) in SPANS.items():
            self._patch(owner, attr, self.span(name, getattr(owner, attr), hooks.get(name)))
        for name, (owner, attr) in COUNTS.items():
            self._patch(owner, attr, self.counter(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _on_slot_rows(self, rows, args) -> None:
        self.counts["controller.trace_rows"] += len(rows)

    def _on_expand(self, points, args) -> None:
        self.counts["scenario.points"] += len(points)

    def _on_write(self, result, args) -> None:
        self.counts["cli.files_written"] += 1
        self.counts["cli.bytes_written"] += len(args[1].encode())

    def _on_check(self, result, args) -> None:
        self.counts["validate.points"] += result.total
        self.counts["validate.failures"] += result.failures

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            out.write("op_id,span_id,parent_id,name,start_ns,end_ns\n")
            for span in self.spans:
                out.write("%d,%d,%d,%s,%d,%d\n" % span)


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the time its child spans cover, in ns."""
    own = {sid: end - start for _, sid, _, _, start, end in spans}
    for _, sid, parent, _, start, end in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def summarize(spans, raised=frozenset(), factors=None) -> dict[str, dict]:
    """Per span name: calls, seconds, self seconds, and the durations of the
    calls that returned. `factors` maps an op id to the calibration factor
    its durations are scaled by."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for op_id, sid, _, name, start, end in spans:
        scale = 1e-9 * (factors[op_id] if factors else 1.0)
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "completed": []})
        entry["calls"] += 1
        entry["s"] += (end - start) * scale
        entry["self_s"] += own[sid] * scale
        if sid not in raised:
            entry["completed"].append((end - start) * scale)
    return out


def child_seconds(spans, factors, parents, children) -> float:
    """Seconds spent in spans named in `children` directly under spans named
    in `parents`."""
    parent_ids = {sid for _, sid, _, name, _, _ in spans if name in parents}
    children = set(children)
    return sum(
        (end - start) * 1e-9 * factors[op_id]
        for op_id, _, parent, name, start, end in spans
        if name in children and parent in parent_ids
    )


def subtree_closure(spans, root_name: str) -> float:
    """Percent by which self times of `root_name` spans and all their
    descendants miss the root spans' total duration."""
    own = self_times(spans)
    parent_of = {sid: parent for _, sid, parent, _, _, _ in spans}
    roots = {sid: end - start for _, sid, _, name, start, end in spans if name == root_name}
    if not roots:
        return 0.0

    def root_of(sid):
        while sid != -1 and sid not in roots:
            sid = parent_of.get(sid, -1)
        return sid

    covered = sum(own[sid] for sid in own if root_of(sid) in roots)
    total = sum(roots.values())
    return 100.0 * abs(covered - total) / total
