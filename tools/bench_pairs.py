"""Paired benchmark runs of a parent checkout and a change checkout.

Runs ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
in each checkout, one pair per seed, alternating which side runs first
(the parent at even pair indices), and writes a BENCH JSON file: the
machine facts, the net ``src/`` line counts, and per workload every result
line and a summary of each end-to-end metric of ``BENCHMARK.json``.
A metric whose change median is worse than the parent's by more than its
bound is flagged on stderr and in the file, and the script exits with 1.
So is every run that reports ``"correct": false`` or a failed cell: its
timings are summarised with the others, but they time wrong output. A run
that crashes (any exit but 0 or 1, or no result line) is recorded under
its workload's ``failed_runs``; the file is then written with the pairs
run so far, and the script exits with 1.

    python3 tools/bench_pairs.py --parent ../parent --change ../change \\
        --seeds 9901 --pairs 10 --seconds 30 --out BENCH_18.json \\
        --what "what the change is"

Both sides are required, and both should be fresh clones of their
commits: a working checkout read ``peak_rss_mb`` about 0.3 MB higher than
a fresh clone of the same commit. Before the first pair, ``src/`` and
``perfbench/`` of both checkouts are compiled to bytecode, so no run
pays for compiling them: compiling at run time read ``peak_rss_mb`` up to
0.45 MB higher. The machine facts record this mode.

Each metric's summary also says whether the change meets the gain rule:
better in at least 9 of 10 pairs, with a median gap wider than the
parent's quartile spread; and whether it is resolved: a metric whose
run-to-run spread is wider than its bound is unresolved, not unchanged,
unless every change run is better than every parent run.

Standard library and numpy only; it reads ``BENCHMARK.json`` and runs the
benchmark as a separate process, and imports nothing of the checkouts.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np

ORDER = "parent first at even pair index, change first at odd"
BYTECODE = "src/ and perfbench/ of both checkouts compiled before the first pair"
QUARTILES = "numpy.percentile 25 and 75, linear interpolation"
STDERR_LINES = 20  # of a crashed run, kept in the report


class RunFailed(RuntimeError):
    """A benchmark run that exited with neither 0 nor 1, or printed no
    result line."""

    def __init__(self, returncode: int, stderr: str):
        super().__init__(f"exited {returncode}")
        self.returncode, self.stderr = returncode, stderr


def run_once(checkout: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its last stdout line, the result object. Exit 1
    (a cell failed its check) still prints that line; any other nonzero
    exit raises :class:`RunFailed`."""
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RunFailed(proc.returncode, proc.stderr)
    return json.loads(lines[-1])


def compile_checkout(checkout: pathlib.Path) -> None:
    """Compile ``src/`` and ``perfbench/`` of a checkout to bytecode with
    the interpreter the runs use; raises ``RuntimeError`` if that fails."""
    dirs = [d for d in ("src", "perfbench") if (checkout / d).is_dir()]
    proc = subprocess.run(["python3", "-m", "compileall", "-q", *dirs],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"compiling {checkout} failed: {proc.stdout}{proc.stderr}")


def run_pairs(args: argparse.Namespace, name: str) -> tuple[dict, list[dict]]:
    """A workload's alternating pairs: the result lines by side, in pair
    order, and the failed run, if one crashed; the pairs stop there."""
    sides = {"parent": [], "change": []}
    for pair in range(args.pairs):
        seed = args.seeds + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            try:
                line = run_once(checkout, name, seed, args.seconds)
            except RunFailed as exc:
                print(f"FLAG {name} {side} pair {pair} seed {seed}: exited "
                      f"{exc.returncode}", file=sys.stderr)
                return sides, [{"side": side, "pair": pair, "seed": seed,
                                "exit_code": exc.returncode,
                                "stderr_tail": exc.stderr.splitlines()[-STDERR_LINES:]}]
            sides[side].append({"pair": pair, "seed": seed, **line})
            print(f"{name} pair {pair} {side}: wall_s "
                  f"{line['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
    return sides, []


def summarize(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, the relative change
    of the median, the number of pairs in which the change is better, and
    whether it meets the gain rule: better in at least 9 of 10 pairs, and
    its median better than the parent's by more than the parent's
    quartile spread. ``resolved`` is false when the wider side's
    quartile spread, relative to the parent median, exceeds the metric's
    bound, unless every change run is better than every parent run.
    ``parent`` and ``change`` are result lines in pair order;
    ``metrics`` are ``BENCHMARK.json``'s end-to-end entries."""
    summary = {}
    for metric in metrics:
        name = metric["name"]
        a = np.array([line["metrics"][name]["value"] for line in parent], dtype=float)
        b = np.array([line["metrics"][name]["value"] for line in change], dtype=float)
        lower = metric["better"] == "lower"
        better = int(np.count_nonzero(b < a if lower else b > a))
        (a_q1, a_q3), (b_q1, b_q3) = (np.percentile(side, [25, 75]).tolist()
                                      for side in (a, b))
        a_median, b_median = float(np.median(a)), float(np.median(b))
        gap = a_median - b_median if lower else b_median - a_median
        spread = max(a_q3 - a_q1, b_q3 - b_q1) / a_median
        every_run_better = b.max() < a.min() if lower else b.min() > a.max()
        summary[name] = {
            "parent_median": a_median,
            "parent_q1": a_q1,
            "parent_q3": a_q3,
            "change_median": b_median,
            "change_q1": b_q1,
            "change_q3": b_q3,
            "relative_change_of_median": b_median / a_median - 1.0,
            "pairs_change_better": better,
            "meets_gain_rule": 10 * better >= 9 * len(a) and gap > a_q3 - a_q1,
            "resolved": bool(spread <= metric["bound"] or every_run_better),
        }
    return summary


def worse_than_bound(summary: dict, metrics: list[dict]) -> list[str]:
    """The metrics whose change median is worse than the parent's by more
    than the metric's relative bound."""
    flagged = []
    for metric in metrics:
        change = summary[metric["name"]]["relative_change_of_median"]
        worse = change if metric["better"] == "lower" else -change
        if worse > metric["bound"]:
            flagged.append(metric["name"])
    return flagged


def incorrect_runs(sides: dict) -> list[dict]:
    """The runs of either side whose result line reports ``"correct":
    false`` or a failed cell, by side, pair and seed."""
    return [{"side": side, "pair": line["pair"], "seed": line["seed"],
             "correct": line["correct"], "failed": line["failed"]}
            for side, lines in sides.items() for line in lines
            if not line["correct"] or line["failed"]]


def src_lines(checkout: pathlib.Path) -> int:
    return sum(len(path.read_text().splitlines())
               for path in sorted((checkout / "src").rglob("*.py")))


def commit(checkout: pathlib.Path) -> str:
    """The short commit of a git checkout, marked when its tree differs
    from it; "unknown" outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)
    head = git("rev-parse", "--short", "HEAD")
    if head.returncode:
        return "unknown"
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return f"the working tree on {head.stdout.strip()}" if dirty else head.stdout.strip()


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "cpu": cpu, "platform": platform.platform(),
            "bytecode": BYTECODE}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=pathlib.Path, required=True)
    parser.add_argument("--change", type=pathlib.Path, required=True)
    parser.add_argument("--seeds", type=int, required=True,
                        help="seed of pair 0; pair i runs at seeds + i")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workloads", type=str, default=None,
                        help="comma list; default every workload of BENCHMARK.json")
    parser.add_argument("--what", type=str, default="")
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    parent_lines, change_lines = src_lines(args.parent), src_lines(args.change)
    report = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "parent_commit": commit(args.parent),
        "change_commit": commit(args.change),
        "machine": machine(),
        "net_src_lines": {"parent": parent_lines, "change": change_lines,
                          "delta": change_lines - parent_lines},
        "quartiles": QUARTILES,
        "workloads": {},
    }
    for checkout in (args.parent, args.change):
        compile_checkout(checkout)
    status = 0
    for name in names:
        sides, failed = run_pairs(args, name)
        # the pairs both sides finished
        pairs = min(map(len, sides.values()))
        summary = (summarize(sides["parent"][:pairs], sides["change"][:pairs], metrics)
                   if pairs else {})
        flagged = worse_than_bound(summary, metrics) if pairs else []
        for metric in flagged:
            print(f"FLAG {name} {metric}: change median worse than the parent's "
                  f"by more than its bound", file=sys.stderr)
            status = 1
        incorrect = incorrect_runs(sides)
        for run in incorrect:
            print(f"FLAG {name} {run['side']} pair {run['pair']} seed {run['seed']}: "
                  f"correct {run['correct']}, {run['failed']} failed cells", file=sys.stderr)
            status = 1
        report["workloads"][name] = {"pairs": pairs, "order": ORDER, "summary": summary,
                                     "worse_than_bound": flagged,
                                     "incorrect_runs": incorrect,
                                     "failed_runs": failed, **sides}
        if failed:
            status = 1
            break
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
