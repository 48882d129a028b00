"""Output checks for the CSVs a workload writes.

A cell is one (strategy, sweep point) row. A cell fails when it is
missing, when the call that should write it raised or returned an error,
when it breaks a seed-independent invariant, or when it differs from the
reference copy of the same call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

HEADER = "experiment,strategy,sweep_param,sweep_value,runs,mean,std,ci95,min,max"


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a workload and the cells it must produce."""

    experiment: str
    strategies: tuple[str, ...]
    sweep: tuple[str, ...]  # sweep values exactly as the CSV prints them
    runs: int
    args: tuple[str, ...] = ()  # experiment flags other than --strategies/--runs

    def argv(self, seed: int, out: str) -> list[str]:
        return [self.experiment, *self.args,
                "--strategies", ",".join(self.strategies),
                "--runs", str(self.runs), "--seed", str(seed), "--out", out]

    def cells(self) -> list[tuple[str, str]]:
        return [(s, v) for s in self.strategies for v in self.sweep]


def hoeffding(epsilon: float, delta: float) -> int:
    """Samples for an epsilon-accurate mean with confidence 1 - delta."""
    return int(math.ceil(math.log(2.0 / delta) / (2.0 * epsilon**2)))


def parse_csv(text: str) -> tuple[str, dict[tuple[str, str], str]]:
    """(header line, {(strategy, sweep_value): row line})."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header = lines[0] if lines else ""
    rows = {}
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) >= 4:
            rows[(fields[1], fields[3])] = line
    return header, rows


def _budgets(call: Call, flags: dict[str, str], strategy: str, sweep: str
             ) -> tuple[int | None, int | None]:
    """(fixed budget, stopping cap) of a supervised cell, in CSV step
    units, or (None, None) where the experiment has no closed form."""
    delta = float(flags.get("--delta", "0.05"))
    if call.experiment == "coin":
        m = hoeffding(float(sweep), delta)
        return (m, None) if strategy == "NTD" else (None, m)
    if call.experiment == "bandit":
        k = int(sweep)
        m = hoeffding(float(flags["--epsilon"]), delta / k)
        return {"NTD-IND": (k * m, None), "NTD-PAR": (m, None),
                "NSTD-IND": (None, k * m), "NSTD-PAR": (None, m)}[strategy]
    if call.experiment == "dbn":
        n = int(sweep)
        # shift-register DBNs declare one parent factor (k_par = 1)
        cap = hoeffding(float(flags["--epsilon"]) / n, delta / n)
        return {"NTD": (cap, None), "NSTD-PAR": (None, cap),
                "NSTD-IND": (None, cap * n)}[strategy]
    return None, None


def check_invariants(call: Call, text: str) -> dict[tuple[str, str], str]:
    """Seed-independent checks of one CSV; returns failing cells with the
    reason. Fixed-budget cells equal their Hoeffding budget with std 0,
    stopping cells stay strictly below their cap on average and never
    exceed it, every cell reports the requested run count, and min, mean
    and max are ordered."""
    header, rows = parse_csv(text)
    failures: dict[tuple[str, str], str] = {}
    if header != HEADER:
        return {cell: f"bad header {header!r}" for cell in call.cells()}
    flags = dict(zip(call.args[::2], call.args[1::2]))
    for cell in call.cells():
        line = rows.get(cell)
        if line is None:
            failures[cell] = "missing"
            continue
        f = line.split(",")
        try:
            runs = int(f[4])
            mean, std, lo, hi = float(f[5]), float(f[6]), float(f[8]), float(f[9])
        except (ValueError, IndexError):
            failures[cell] = f"unparsable row {line!r}"
            continue
        if f[0] != call.experiment:
            failures[cell] = f"experiment {f[0]!r}"
        elif runs != call.runs:
            failures[cell] = f"runs {runs} != {call.runs}"
        elif not (0 < lo <= mean <= hi) or std < 0:
            failures[cell] = f"min/mean/max out of order: {lo}, {mean}, {hi}"
        else:
            fixed, cap = _budgets(call, flags, *cell)
            if fixed is not None and (mean != fixed or std != 0.0):
                failures[cell] = f"fixed budget {fixed}, got mean {mean} std {std}"
            elif cap is not None and not (mean < cap and hi <= cap):
                failures[cell] = f"stopping cap {cap}, got mean {mean} max {hi}"
    return failures


def compare_cells(call: Call, text: str, expected: str) -> dict[tuple[str, str], str]:
    """Cells whose row differs from the expected CSV text (or all cells if
    the headers differ)."""
    header, rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(expected)
    if header != ref_header:
        return {cell: "header differs" for cell in call.cells()}
    return {cell: "differs" for cell in call.cells()
            if rows.get(cell) is None or rows.get(cell) != ref_rows.get(cell)}


def sim_totals(text: str) -> tuple[int, int]:
    """(trials, simulated steps) over the cells of one CSV: the sum of
    runs, and the sum of runs x mean."""
    _, rows = parse_csv(text)
    trials = steps = 0
    for line in rows.values():
        f = line.split(",")
        runs = int(f[4])
        trials += runs
        steps += int(round(runs * float(f[5])))
    return trials, steps
