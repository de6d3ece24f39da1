"""Output checks applied to every benchmark operation.

Each check returns a list of problems; an empty list means the output
passed. The checks only read fleetchain's outputs: the comparison CSV
text and the `Comparison` objects the run returned.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from pathlib import Path

from fleetchain.sim import COMPARISON_EXTRA_COLUMNS, RUN_CSV_COLUMNS

COMPARISON_COLUMNS = RUN_CSV_COLUMNS + COMPARISON_EXTRA_COLUMNS
CUMULATIVE_COLUMNS = ("transactions_cum", "energy_cum_J")
# Relative slack for `energy_cum[i] - energy_cum[i-1] == security + transmission
# + update`: the running sum rounds once per slot.
ITEMISATION_RTOL = 1e-12


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def digest_dir(path: Path) -> str:
    files = sorted(p for p in path.iterdir() if p.is_file())
    return digest(*(part for p in files for part in (p.name.encode(), p.read_bytes())))


def check_csv(text: str, name: str = "csv") -> list[str]:
    """Fixed columns present; cumulative columns never decrease per regime."""
    reader = csv.DictReader(io.StringIO(text))
    missing = [c for c in COMPARISON_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        return [f"{name}: missing columns {missing}"]
    problems = []
    last: dict[tuple[str, str], float] = {}
    rows = 0
    for row in reader:
        rows += 1
        for col in CUMULATIVE_COLUMNS:
            value = float(row[col])
            key = (row["regime"], col)
            if value < last.get(key, -math.inf):
                problems.append(f"{name}: {col} decreases at t={row['t']} ({row['regime']})")
            last[key] = value
    if rows == 0:
        problems.append(f"{name}: no rows")
    return problems


def check_report(report) -> list[str]:
    """Per-slot itemisation equals the energy increment; cumulative columns
    never decrease."""
    problems = []
    prev_e = prev_tx = 0.0
    for row in report.rows:
        step = row.energy_cum - prev_e
        items = row.security_j + row.transmission_j + row.update_j
        if abs(step - items) > ITEMISATION_RTOL * max(abs(row.energy_cum), 1.0):
            problems.append(
                f"{report.regime} t={row.t:g}: security+transmission+update {items!r} "
                f"!= energy_cum increment {step!r}"
            )
        if row.energy_cum < prev_e or row.transactions_cum < prev_tx:
            problems.append(f"{report.regime} t={row.t:g}: cumulative column decreases")
        prev_e, prev_tx = row.energy_cum, row.transactions_cum
    return problems


def check_comparison(comp) -> list[str]:
    return check_report(comp.baseline) + check_report(comp.clustered)


def comparison_stats(comp) -> dict:
    """Simulated statistics that must repeat exactly under the same seed."""
    out = {}
    for report in (comp.baseline, comp.clustered):
        out[report.regime] = {
            "transactions": report.transactions_total,
            "energy_J": report.energy_total,
            "head_changes": report.ch_changes_total,
            "deactivations": sum(not v.active for v in report.vehicles),
        }
    return out
