"""Apply one-line mutants of the slot loop and the controller, one at a
time, to a copy of `src/`, run the tests that gate the slot loop on each,
and print which mutants the tests kill and which survive.

    python tools/mutants.py [--only NAME[,NAME...]]

Run it from a checkout. For each mutant in `MUTANTS`, the checkout's
`src/`, `tests/` and `scenarios/` are copied into a temporary directory, the
mutant's line is replaced there, and pytest runs `TESTS` from that copy
with warnings as errors, stopping at the first failure, and with a fixed
hypothesis seed so that a result can be repeated. A mutant is killed when a
test fails and survives when every test passes. A mutant whose line is not
found exactly once in its file is reported as an error: the code it was
written against has changed. The script exits 1 if any mutant is an
error or survives without being marked equivalent.

A mutant marked equivalent changes no output on any run; the reason is
given with it, and its survival is expected.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ("tests/test_slot_loop_spec.py", "tests/test_slot_loop.py", "tests/test_golden.py",
         "tests/test_controller.py", "tests/test_fleet_index.py", "tests/test_sim.py")
SIM, CONTROLLER = "fleetchain/sim.py", "fleetchain/controller.py"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/
    old: str  # the line's text, without its indentation
    new: str
    equivalent: str = ""  # why it changes no output, where it cannot


MUTANTS = (
    # The break of a swap block: which member the controller picks.
    Mutant("pick-by-residual", CONTROLLER,
           "picks = _select(self.ratings(residual), ok, seg, fired, qualified)",
           "picks = _select(residual, ok, seg, fired, qualified)"),
    Mutant("qualification-ignored", CONTROLLER,
           "fired, qualified = self._rule_of[heads] == _LIMIT_CODE, self._qualifies(ids)",
           "fired, qualified = self._rule_of[heads] == _LIMIT_CODE, np.ones(ids.size, bool)"),
    Mutant("verdict-guard-dropped", CONTROLLER,
           "if np.count_nonzero(ok[at] & self._change_of[heads]) < heads.size:",
           "if False:"),
    Mutant("hands-back-dropped", CONTROLLER,
           "if not self._hands_back(heads, residual[at], taken, picks, residual, ok, seg):",
           "if False:"),
    Mutant("eligibility-without-critical-level", SIM,
           "at_h, res, res >= loop.critical_level, self.segs)",
           "at_h, res, np.ones(res.size, dtype=bool), self.segs)"),
    Mutant("no-security-affordability-check", SIM,
           "if np.count_nonzero(picked < self.cost):",
           "if False:"),
    Mutant("returning-vehicle-assumed-picked", SIM,
           "trace, picks = handed",
           "trace, picks = handed[0], at_r"),
    # The break: the columns and the row the block goes on from.
    Mutant("picks-not-charged-security", SIM,
           "start[r_cols] = picked - self.cost",
           "start[r_cols] = picked"),
    Mutant("rich-counts-the-head", SIM,
           "res[at_h] = res[picks] = -np.inf",
           "res[picks] = -np.inf"),
    Mutant("stale-richest-member", SIM,
           "(after[:b], np.maximum.reduceat(res, self.segs.starts), after[c:], added))",
           "(after[:b], after[b:c], after[c:], added))"),
    Mutant("members-never-moved", SIM,
           "moved = picks != at_r",
           "moved = np.zeros(picks.size, dtype=bool)"),
    Mutant("pick-keeps-its-member-column", SIM,
           "self.column[taken[moved]] = self.column[cand[returning]]",
           "pass"),
    Mutant("joining-vehicle-never-matched", SIM,
           "known = dict(zip(after[self.c :].view(np.int64).tolist(), range(self.c, after.size)))",
           "known = {}"),
    Mutant("joining-residuals-not-deduplicated", SIM,
           "added = [bits for bits in dict.fromkeys(joined) if bits not in known]",
           "added = [bits for bits in joined if bits not in known]"),
    # Charging a segment and finding its first event.
    Mutant("segment-parity-ignored", SIM,
           "e = seg % 2  # 1 where the segment starts on an odd block slot",
           "e = 0"),
    Mutant("no-security-floor-for-the-taker", SIM,
           "low[1::2, f:a] = low[0::2, a:b] = max(level, self.cost)",
           "low[1::2, f:a] = low[0::2, a:b] = level"),
    Mutant("breaking-on-any-event", SIM,
           "return j, not np.count_nonzero(bad[j, p:])",
           "return j, True"),
    # `_block`'s window after a carried break.
    Mutant("window-goes-on-from-the-break-row", SIM,
           "w = block.k  # no break by the slot after the exchange: charge them all",
           "seg, w = w, block.k"),
    Mutant("window-goes-on-from-its-last-row", SIM,
           "w = block.k  # no break by the slot after the exchange: charge them all",
           "seg, w, block.start = w, block.k, block.work[-1]",
           equivalent="the residuals are the same sequential subtractions; only the last "
                      "slot's new heads' flags differ, on a block cut short, whose next slot "
                      "runs alone and marks every vehicle again (see `sim._Block`)"),
    # Writing back at the block's end.
    Mutant("no-write-back", SIM,
           "v.residual[v.active] = end[self.column[v.active]]",
           "pass"),
    Mutant("no-hand-over", SIM,
           "self.fleet.hand_over(loop.pairs[0], cur)",
           "pass"),
    Mutant("flags-after-the-security-charge", SIM,
           "v.critical[cur] = self.work[2 * j - 1, cols] < loop.critical_level if j else False",
           "v.critical[cur] = self.work[2 * j, cols] < loop.critical_level if j else False"),
    Mutant("last-break-marked-from-stale-flags", SIM,
           "v.critical[cur] = self.work[2 * j - 1, cols] < loop.critical_level if j else False",
           "v.critical[cur] = self.work[2 * j - 1, cols] < loop.critical_level if j else "
           "v.critical[cur]"),
    Mutant("last-break-marked-from-a-stale-row", SIM,
           "v.critical[cur] = self.work[2 * j - 1, cols] < loop.critical_level if j else False",
           "v.critical[cur] = self.work[2 * j - 1, cols] < loop.critical_level"),
    # A run's exchange flags, and its columns built from its spans.
    Mutant("exchanges-one-slot-late", SIM,
           "slots = np.arange(s, s + k)",
           "slots = np.arange(s + 1, s + k + 1)"),
    Mutant("energy-chain-summed-pairwise", SIM,
           "np.add.accumulate(cum, axis=1, out=cum)",
           "cum[:] = [[row[: i + 1].sum() for i in range(row.size)] for row in cum]"),
    Mutant("chunk-carry-dropped", SIM,
           "flat[0] = total",
           "flat[0] = 0.0"),
    Mutant("load-model-emits-without-heads", SIM,
           "paying = heads.nonzero()[0]",
           "paying = np.arange(n_slots)"),
    Mutant("one-member-column-by-value", SIM,
           "if np.count_nonzero(bits != bits[:1]):",
           "if np.count_nonzero(residual != residual[:1]):"),
    # The cluster index.
    Mutant("highest-id-flag-heads", CONTROLLER,
           "head_at = np.minimum.reduceat(np.where(a.head[order], positions, n), starts)",
           "head_at = np.maximum.reduceat(np.where(a.head[order], positions, -1), starts)"
           " % (n + 1)"),
    Mutant("headless-cluster-stepped", CONTROLLER,
           "stepped = head_at < n",
           "stepped = head_at <= n"),
)


def apply(tree: Path, mutant: Mutant) -> bool:
    """Replace the mutant's line in `tree`; False where it is not found
    exactly once."""
    path = tree / "src" / mutant.file
    lines = path.read_text().split("\n")
    hits = [i for i, line in enumerate(lines) if line.strip() == mutant.old]
    if len(hits) != 1:
        return False
    line = lines[hits[0]]
    lines[hits[0]] = line[: len(line) - len(line.lstrip())] + mutant.new
    path.write_text("\n".join(lines))
    return True


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or 'error: ...' for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in ("src", "tests", "scenarios"):
            shutil.copytree(ROOT / name, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        if not apply(tree, mutant):
            return "error: the line is not found exactly once"
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-W", "error", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *TESTS],
            cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return "survived"
    if done.returncode == 1:
        failed = [line for line in done.stdout.splitlines() if line.startswith("FAILED")]
        return "killed" + (f" ({failed[0].split()[1]})" if failed else "")
    return f"error: pytest exit code {done.returncode}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", help="comma-separated mutant names")
    args = parser.parse_args(argv)
    mutants = MUTANTS
    if args.only:
        names = args.only.split(",")
        unknown = set(names) - {m.name for m in MUTANTS}
        if unknown:
            parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
        mutants = [m for m in MUTANTS if m.name in names]
    bad = 0
    for m in mutants:
        result = run(m)
        if result == "survived" and m.equivalent:
            result = f"survived, equivalent: {m.equivalent}"
        elif not result.startswith("killed"):
            bad += 1
        print(f"{m.name}: {result}", flush=True)
    print(f"{len(mutants) - bad} of {len(mutants)} mutants killed or equivalent")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
