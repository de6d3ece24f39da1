"""Command-line front end: analytics tables, paired simulations, validation.

Exit codes: 0 success, 1 configuration error, 2 validation failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import replace
from pathlib import Path

from .analytics import energy_decay, transaction_count
from .scenario import ConfigError, Scenario, expand, load_scenario, make_config
from .sim import Comparison, comparison_csv, paired_comparison
from .validate import decay_oracle, run_validation, tx_oracle

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_IO = 3


def _write(path: Path, text: str) -> None:
    path.write_text(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_analytics(scenario: Scenario, out_dir: Path) -> int:
    """Closed-form values next to their quadrature oracles, per sweep point.

    Infeasible rows (negative radicands) are reported and the run continues.
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
    rows = []
    for label, cfg in expand(scenario):
        note = ""
        try:
            p = cfg.decay_params()
            closed = energy_decay(p)
            oracle = decay_oracle(p)
            rel = abs(closed - oracle) / max(abs(oracle), 1e-300)
            decay_cells = [repr(closed), repr(oracle), f"{rel:.3e}"]
        except ValueError as exc:  # an infeasible rate, or one whose density underflows
            decay_cells = ["", "", ""]
            note = f"decay infeasible: {exc}"
        txp = cfg.tx_count_params()
        derived = transaction_count(txp)
        printed = transaction_count(replace(txp, variant="as-printed"))
        oracle_ceil = math.ceil(tx_oracle(txp))
        rows.append([label or "-"] + decay_cells + [derived, printed, oracle_ceil, note])
    text = _csv_text(header, rows)
    _write(out_dir / f"analytics_{scenario.name}.csv", text)
    print(text, end="")
    return EXIT_OK


def _summary_lines(name: str, results: list[tuple[str, Comparison]]) -> list[str]:
    lines = [f"scenario: {name}", ""]
    for label, comp in results:
        lines.append(
            f"[{label or 'single'}] transactions: baseline="
            f"{comp.baseline.transactions_total:g} clustered="
            f"{comp.clustered.transactions_total:g} reduction="
            f"{comp.tx_reduction_pct:.2f}%"
        )
        lines.append(
            f"[{label or 'single'}] energy: baseline={comp.baseline.energy_total:g} J "
            f"clustered={comp.clustered.energy_total:g} J "
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


def cmd_simulate(scenario: Scenario, out_dir: Path) -> int:
    """Paired baseline/clustered runs per sweep point; CSV + summary output."""
    points = expand(scenario)
    # An infeasible operation rate is a config error, found before any write.
    for label, cfg in points:
        try:
            energy_decay(cfg.decay_params())
        except ValueError as exc:
            raise ConfigError(f"point {label or 'single'}: {exc}") from exc
    results: list[tuple[str, Comparison]] = []
    for label, cfg in points:
        comp = paired_comparison(cfg)
        results.append((label, comp))
        suffix = f"_{label}" if label else ""
        _write(out_dir / f"comparison_{scenario.name}{suffix}.csv", comparison_csv(comp))

    # Transactions-vs-time across both regimes, stacked over sweep points.
    tx_rows = []
    for label, comp in results:
        for b, c in zip(comp.baseline.rows, comp.clustered.rows):
            tx_rows.append(
                [label or "-", f"{b.t:g}", f"{b.transactions_cum:g}", f"{c.transactions_cum:g}"]
            )
    _write(
        out_dir / f"fig_transactions_{scenario.name}.csv",
        _csv_text(["point", "t", "baseline_transactions", "clustered_transactions"], tx_rows),
    )

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
        out_dir / f"fig_conservation_{scenario.name}.csv",
        _csv_text(
            ["point", "conservation_factor_pct", "sim_energy_reduction_pct", "sim_tx_reduction_pct"],
            cons_rows,
        ),
    )

    summary = "\n".join(_summary_lines(scenario.name, results))
    _write(out_dir / f"summary_{scenario.name}.txt", summary)
    print(summary, end="")
    return EXIT_OK


def cmd_validate(tolerance: float, grid: int, seed: int) -> int:
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
    p_sim.add_argument("--seed", type=int)

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
        if args.command == "simulate" and args.seed is not None:
            scenario = replace(scenario, config=make_config({"seed": args.seed}, scenario.config))
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
