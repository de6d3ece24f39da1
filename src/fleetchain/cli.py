"""Command-line front end: analytics tables, paired simulations, validation.

Exit codes: 0 success, 1 configuration error, 2 validation failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .analytics import _transaction_count, energy_decay, transaction_count
from .scenario import ConfigError, Scenario, expand, load_scenario
from .sim import (
    Comparison,
    _cells,
    comparison_csv,
    csv_text,
    paired_comparison,
    shared_baselines,
)
from .validate import decay_oracle, run_validation, tx_oracle

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_IO = 3


def _write(path: Path, text: str) -> None:
    path.write_text(text)


def _check_names(paths: list[Path]) -> None:
    """Reject, before a run, an output file name its directory cannot hold:
    one longer than the file system's name limit, or not encodable."""
    limit = os.pathconf(paths[0].parent, "PC_NAME_MAX")
    for path in paths:
        try:
            size = len(os.fsencode(path.name))
        except UnicodeEncodeError as exc:
            raise ConfigError(f"output file name {path.name!r} is not encodable: {exc}") from exc
        if size > limit:
            raise ConfigError(
                f"output file name {path.name[:40]}... is {size} bytes; "
                f"the limit in {paths[0].parent} is {limit}"
            )


def cmd_analytics(scenario: Scenario, out_dir: Path) -> int:
    """Closed-form values next to their quadrature oracles, per sweep point.

    Infeasible rows (a negative radicand, or a transaction ceiling past the
    float range) are reported with a note and the run continues.
    """
    header = [
        "label",
        "decay_closed_J",
        "decay_oracle_J",
        "decay_rel_err",
        "txcount_as_derived",
        "txcount_as_printed",
        "txcount_oracle_ceil",
        "note",
    ]
    path = out_dir / f"analytics_{scenario.name}.csv"
    _check_names([path])
    rows = []
    for label, cfg in expand(scenario):
        notes = []
        try:
            p = cfg.decay_params()
            closed = energy_decay(p)
            oracle = decay_oracle(p)
            rel = abs(closed - oracle) / max(abs(oracle), 1e-300)
            decay_cells = [repr(closed), repr(oracle), f"{rel:.3e}"]
        except ValueError as exc:  # an infeasible rate, or one whose density underflows
            decay_cells = ["", "", ""]
            notes.append(f"decay infeasible: {exc}")
        txp = cfg.tx_count_params()
        try:
            tx_cells = [
                transaction_count(txp),
                _transaction_count(txp, "as-printed"),
                math.ceil(tx_oracle(txp)),
            ]
        except (ValueError, OverflowError) as exc:  # a ceiling past the float range
            tx_cells = ["", "", ""]
            notes.append(f"txcount infeasible: {exc}")
        rows.append([label or "-"] + decay_cells + tx_cells + ["; ".join(notes)])
    text = csv_text(header, rows)
    _write(path, text)
    print(text, end="")
    return EXIT_OK


def _summary_lines(name: str, results: list[tuple[str, Comparison]]) -> list[str]:
    lines = [f"scenario: {name}", ""]
    for label, comp in results:
        # The totals are written as the comparison CSV writes its cells.
        base_tx, clus_tx, base_energy, clus_energy = _cells([
            comp.baseline.transactions_total, comp.clustered.transactions_total,
            comp.baseline.energy_total, comp.clustered.energy_total])
        lines.append(
            f"[{label or 'single'}] transactions: baseline={base_tx} clustered={clus_tx} "
            f"reduction={comp.tx_reduction_pct:.2f}%"
        )
        lines.append(
            f"[{label or 'single'}] energy: baseline={base_energy} J "
            f"clustered={clus_energy} J "
            f"reduction={comp.energy_reduction_pct:.2f}% "
            f"conservation_factor={comp.conservation_factor_pct:.2f}%"
        )
    if results:
        n = len(results)
        lines.append("")
        lines.append(
            "averages: tx_reduction="
            f"{sum(c.tx_reduction_pct for _, c in results) / n:.2f}% "
            f"energy_reduction={sum(c.energy_reduction_pct for _, c in results) / n:.2f}% "
            f"conservation_factor={sum(c.conservation_factor_pct for _, c in results) / n:.2f}%"
        )
    lines.append("")
    lines.append("modelling assumptions (the headline percentages depend on these):")
    for item in results[0][1].assumptions if results else ():
        lines.append(f"  - {item}")
    lines.append("")
    return lines


def _transactions_csv(points: list[tuple[str, dict]]) -> str:
    """Transactions-vs-time across both regimes, stacked over sweep points:
    each point's label and the `t` and transaction cells of its comparison
    CSV (`comparison_csv`'s `cells`), as `csv_text` writes them. Those cells
    are numbers, so only a label can need quoting: one holding a comma, a
    quote or a line break, as the label of a list value
    (`per_kind_cost=[1.0, 2.0]`) does, is quoted as `csv.writer` quotes it."""
    header = "point,t,baseline_transactions,clustered_transactions\r\n"
    rows = []
    for point, cells in points:
        if any(mark in point for mark in ',"\r\n'):
            point = '"' + point.replace('"', '""') + '"'
        rows += [f"{point},{t},{b},{c}\r\n"
                 for t, b, c in zip(cells["t"], cells["baseline"], cells["clustered"])]
    return header + "".join(rows)


def cmd_simulate(scenario: Scenario, out_dir: Path) -> int:
    """Paired baseline/clustered runs per sweep point; CSV + summary output."""
    points = expand(scenario)
    name = scenario.name
    comparisons = [out_dir / f"comparison_{name}{'_' + label if label else ''}.csv"
                   for label, _ in points]
    tx_path = out_dir / f"fig_transactions_{name}.csv"
    cons_path = out_dir / f"fig_conservation_{name}.csv"
    summary_path = out_dir / f"summary_{name}.txt"
    _check_names([*comparisons, tx_path, cons_path, summary_path])
    # An infeasible operation rate, or a transaction count that can pass the
    # float range, is a config error, found before any write.
    for label, cfg in points:
        try:
            energy_decay(cfg.decay_params())
        except ValueError as exc:
            raise ConfigError(f"point {label or 'single'}: {exc}") from exc
        if not math.isfinite(cfg.lam * cfg.slot * cfg.n_vehicles**2 * cfg.n_slots):
            raise ConfigError(
                f"point {label or 'single'}: lam x slot x vehicles**2 x slots must be finite"
            )
    # The points of one run share each distinct baseline: its run and the
    # baseline half of its comparison CSVs.
    results: list[tuple[str, Comparison]] = []
    tx_cells = []
    with shared_baselines():
        for (label, cfg), path in zip(points, comparisons):
            comp = paired_comparison(cfg)
            results.append((label, comp))
            cells = {}
            _write(path, comparison_csv(comp, cells))
            tx_cells.append((label or "-", cells))
    _write(tx_path, _transactions_csv(tx_cells))

    # Conservation-vs-sweep-point.
    cons_rows = [
        [
            label or "-",
            f"{comp.conservation_factor_pct:.4f}",
            f"{comp.energy_reduction_pct:.4f}",
            f"{comp.tx_reduction_pct:.4f}",
        ]
        for label, comp in results
    ]
    _write(
        cons_path,
        csv_text(
            ["point", "conservation_factor_pct", "sim_energy_reduction_pct", "sim_tx_reduction_pct"],
            cons_rows,
        ),
    )

    summary = "\n".join(_summary_lines(name, results))
    _write(summary_path, summary)
    print(summary, end="")
    return EXIT_OK


def cmd_validate(tolerance: float, grid: int, seed: int) -> int:
    if grid < 1:
        raise ConfigError(f"--grid must be an integer >= 1, got {grid}")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ConfigError(f"--tolerance must be a finite number >= 0, got {tolerance}")
    report = run_validation(tolerance=tolerance, grid=grid, seed=seed)
    for line in report.lines():
        print(line)
    if not report.passed:
        print(f"validation failed: {report.failures} value(s) out of tolerance")
        return EXIT_VALIDATION
    print("validation passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetchain",
        description="Analytics and paired simulations for clustered ledger fleets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analytics = sub.add_parser("analytics", help="closed forms vs oracles")
    p_analytics.add_argument("--config", required=True)
    p_analytics.add_argument("--out", help="default: the scenario's output, else results")

    p_sim = sub.add_parser("simulate", help="paired baseline/clustered runs")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", help="default: the scenario's output, else results")

    p_val = sub.add_parser("validate", help="run the numerical oracle suite")
    p_val.add_argument("--tolerance", type=float, default=1e-9)
    p_val.add_argument("--grid", type=int, default=100)
    p_val.add_argument("--seed", type=int, default=20240)
    return parser


def _prepare_out(path_str: str) -> Path:
    out = Path(path_str)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write_probe"
    probe.write_text("")
    probe.unlink()
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args.tolerance, args.grid, args.seed)
        scenario = load_scenario(args.config)
        out_dir = _prepare_out(args.out or scenario.output or "results")
        if args.command == "analytics":
            return cmd_analytics(scenario, out_dir)
        return cmd_simulate(scenario, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
