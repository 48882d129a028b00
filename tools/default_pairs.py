"""Paired default experiment runs of a parent checkout and a change checkout.

Runs ``python3 -m teachsim.cli E --seed 7 --out CSV`` with the checkout's
``src/`` on ``PYTHONPATH``, each run in a fresh interpreter, for every
named experiment, in alternating pairs (the parent first at even pair
indices). Each run records its wall seconds and its max RSS, the child's
``ru_maxrss``, and its CSV is compared byte for byte with the change's
``tests/golden/E.csv``. Writes a JSON file: the machine facts and both
commits, and per experiment every run and a summary of both metrics, as
``tools/bench_pairs.py`` summarises a benchmark's. A run that exits
nonzero, or whose CSV is not the golden one, is listed under its
experiment's ``mismatched`` and makes the script exit with 1.

    python3 tools/default_pairs.py --parent ../parent --change ../change \\
        --pairs 2 --out defaults.json

``--experiments`` narrows the run to a comma list; by default it covers
every experiment of the CLI.

Both checkouts are compiled to bytecode before the first pair, as
``tools/bench_pairs.py`` does, so no run pays for compiling.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

from bench_pairs import commit, compile_checkout, machine, summarize

SEED = 7
# every experiment of teachsim.cli, in its order
EXPERIMENTS = ("coin", "bandit", "dbn", "taxi", "bitflip-seq")
ORDER = "parent first at even pair index, change first at odd"
# the bounds of BENCHMARK.json's wall_s and peak_rss_mb
METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "max_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}]


def run_once(checkout: pathlib.Path, experiment: str, out: pathlib.Path) -> dict:
    """One default run at seed 7 in a fresh interpreter, its CSV written
    to ``out``: its exit code, wall seconds and max RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    begin = time.perf_counter()
    proc = subprocess.Popen(
        ["python3", "-m", "teachsim.cli", experiment, "--seed", str(SEED), "--out", str(out)],
        cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - begin
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit_code": proc.returncode, "metrics": {
        "wall_s": {"value": wall, "unit": "s"},
        # Linux reports ru_maxrss in KB
        "max_rss_mb": {"value": usage.ru_maxrss / 1024, "unit": "MB"}}}


def run_pairs(parent: pathlib.Path, change: pathlib.Path, experiment: str, pairs: int,
              scratch: pathlib.Path) -> dict:
    """An experiment's alternating pairs: the runs by side, in pair order,
    each marked whether its CSV is the change's golden one."""
    golden = change / "tests" / "golden" / f"{experiment}.csv"
    sides = {"parent": [], "change": []}
    for pair in range(pairs):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            out = scratch / f"{side}-{experiment}-{pair}.csv"
            run = run_once(parent if side == "parent" else change, experiment, out)
            same = golden.exists() and out.exists() and out.read_bytes() == golden.read_bytes()
            sides[side].append({"pair": pair, **run, "golden": same})
            print(f"{experiment} pair {pair} {side}: wall_s "
                  f"{run['metrics']['wall_s']['value']:.3f} max_rss_mb "
                  f"{run['metrics']['max_rss_mb']['value']:.2f}", file=sys.stderr)
    return sides


def mismatched(sides: dict) -> list[dict]:
    """The runs of either side that exited nonzero or whose CSV is not
    the golden one, by side and pair."""
    return [{"side": side, "pair": run["pair"], "exit_code": run["exit_code"],
             "golden": run["golden"]}
            for side, runs in sides.items() for run in runs
            if run["exit_code"] or not run["golden"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=pathlib.Path, required=True)
    parser.add_argument("--change", type=pathlib.Path, required=True)
    parser.add_argument("--experiments", type=str, default=",".join(EXPERIMENTS),
                        help="comma list of experiments (default: all)")
    parser.add_argument("--pairs", type=int, default=2)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)

    report = {"command": f"python3 -m teachsim.cli E --seed {SEED} --out CSV",
              "order": ORDER,
              "parent_commit": commit(args.parent),
              "change_commit": commit(args.change),
              "machine": machine(),
              "experiments": {}}
    for checkout in (args.parent, args.change):
        compile_checkout(checkout)
    status = 0
    with tempfile.TemporaryDirectory() as scratch:
        for name in args.experiments.split(","):
            sides = run_pairs(args.parent, args.change, name, args.pairs,
                              pathlib.Path(scratch))
            bad = mismatched(sides)
            for run in bad:
                print(f"FLAG {name} {run['side']} pair {run['pair']}: exit "
                      f"{run['exit_code']}, golden CSV {run['golden']}", file=sys.stderr)
            status |= bool(bad)
            report["experiments"][name] = {
                "pairs": args.pairs,
                "summary": (summarize(sides["parent"], sides["change"], METRICS)
                            if args.pairs else {}),
                "mismatched": bad, **sides}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
