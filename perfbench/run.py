#!/usr/bin/env python3
"""teachsim benchmark: host time of the simulator on three workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload supervised-sweep --seed 7 --seconds 20 --trace 0

Each workload is a list of ``teachsim`` CLI calls, run in-process through
``teachsim.cli.main``; one pass runs every call once. The workload seed is
passed to every call as ``--seed``. With ``--trace 0`` the benchmark
reports end-to-end host-time metrics over the passes that fit in
``--seconds``; with ``--trace 1`` it wraps each module's public functions
(see ``spans.py``) and reports per-layer metrics. Either way every output
cell is checked, and the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The process
exits with 1 when any cell fails its check and with 2 when the program
cannot be found or run.

Simulated statistics (the CSVs' step counts) are the contract: the
benchmark fails if they move, and it only ever reports host time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
REFERENCE = os.path.join(HERE, "reference")

from checks import Call, check_invariants, compare_cells, sim_totals  # noqa: E402
import spans  # noqa: E402

DEFAULT_SEED = 7
SETUP_REPEATS = 7

# On a shared host, speed can drift by up to 1.5x in phases of under a
# second to minutes (CPU time tracks wall time, so it is not scheduling).
# Every timing is therefore taken next to a fixed probe that never touches
# teachsim, and reported at the nominal speed: raw seconds times
# NOMINAL_PROBE_S over the probe's measured seconds. Raw seconds are kept
# in the result file.
NOMINAL_PROBE_S = 0.012
PROBE_SHARE = 0.08

# Runs per cell are the package defaults (coin 1000, bandit 1000, dbn 500)
# scaled down by the same factor, so the three experiments keep their
# relative weight.
SUPERVISED_SCALE = 1 / 40
COIN_EPSILONS = tuple(repr(1 / d) for d in (10, 20, 30, 40, 50, 60))
BANDIT_STRATEGIES = ("NTD-IND", "NSTD-IND", "NTD-PAR", "NSTD-PAR")
DBN_STRATEGIES = ("NTD", "NSTD-PAR", "NSTD-IND")
SEQ_STRATEGIES = ("NTD-PAR", "NSTD-PAR", "NSTD-IND")
SEQ_FLAGS = ("--epsilon", "0.4", "--delta", "0.005")
TAXI_ACTION_SETS = ("all", "movement", "pickup", "pickup+dropoff")

WORKLOADS: dict[str, tuple[Call, ...]] = {
    "supervised-sweep": (
        Call("coin", ("NTD", "NSTD"), COIN_EPSILONS, round(1000 * SUPERVISED_SCALE),
             ("--epsilon-sweep", ",".join(COIN_EPSILONS), "--delta", "0.05")),
        Call("bandit", BANDIT_STRATEGIES, ("2", "4", "6", "8", "10"),
             round(1000 * SUPERVISED_SCALE),
             ("--epsilon", repr(1 / 45), "--arms", "2,4,6,8,10", "--delta", "0.05")),
        Call("dbn", DBN_STRATEGIES, ("2", "4", "6", "8"), round(500 * SUPERVISED_SCALE),
             ("--epsilon", "0.3", "--bits", "2,4,6,8", "--delta", "0.05")),
    ),
    "bitflip-tour": (
        Call("bitflip-seq", SEQ_STRATEGIES, ("10",), 8, ("--bits", "10") + SEQ_FLAGS),
    ),
    "planning-cold": (
        Call("taxi", ("TD", "STD-APPROX"), TAXI_ACTION_SETS, 1),
        Call("bitflip-seq", SEQ_STRATEGIES, ("10",), 1, ("--bits", "10") + SEQ_FLAGS),
        Call("bitflip-seq", SEQ_STRATEGIES, ("12",), 1, ("--bits", "12") + SEQ_FLAGS),
    ),
}

# Experiments that draw nothing from the seed: their CSV must match the
# reference at every seed.
SEED_FREE = {"taxi"}

END_TO_END_UNITS = {
    "wall_s": "s",
    "trials_per_s": "1/s",
    "sim_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SUPERVISED_TEACHERS = (
    [f"coin.{s}" for s in ("NTD", "NSTD")]
    + [f"bandit.{s}" for s in BANDIT_STRATEGIES]
    + [f"dbn.{s}" for s in DBN_STRATEGIES])
TOUR_PROTOCOLS = ("NTD-PAR", "NSTD-PAR", "NSTD-IND", "TD")

# Self times that every workload produces (the rest can be exactly zero on
# a workload that never enters the layer) and every count and ratio: the
# per-layer metrics of the result line. ``layer_metrics`` computes more;
# the full set goes to the trace JSON.
PER_LAYER = (
    ["core.stream.calls", "core.stream.self_s", "core.draw.calls", "core.draw.uniforms",
     "core.draw.self_s", "core.collection.adds", "concepts.build.calls",
     "concepts.build.self_s", "concepts.parent_values.calls"]
    + [f"core.draw.used_frac.{t}" for t in SUPERVISED_TEACHERS]
    + [f"teachers.{t}.{m}" for t in SUPERVISED_TEACHERS for m in ("calls", "cap_hit_frac")]
    + ["environments.step.calls", "environments.reachable.calls",
       "environments.reachable.transitions"]
    + [f"mdp_teaching.tour.{p}.{m}" for p in TOUR_PROTOCOLS
       for m in ("calls", "steps", "shift_frac")]
    + ["mdp_teaching.planner.builds", "mdp_teaching.planner.builds_per_trial",
       "mdp_teaching.planner.states", "mdp_teaching.planner.unconverged",
       "mdp_teaching.bfs.calls", "mdp_teaching.cover.calls",
       "layer.core.self_s", "layer.concepts.self_s", "layer.teachers.self_s",
       "harness.self_s", "harness.emit_csv.self_s", "harness.emit_csv.bytes",
       "cli.self_s", "trace.wall_s", "trace.overhead_frac"])


# ---------------------------------------------------------------------------
# machine facts


def machine_facts(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu, "platform": platform.platform(),
            "seed": seed, "commit": git_commit()}


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git;
    "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# passes


class Ledger:
    """Attempted and failed cells, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, label: str, cells: int, failures: dict) -> None:
        self.attempted += cells
        self.failed += len(failures)
        for cell, why in list(failures.items())[:3]:
            if len(self.reasons) < 20:
                self.reasons.append(f"{label} {cell}: {why}")


def run_pass(cli, calls, seed: int, outdir: str, root_span=None):
    """Run every call once. Returns (wall seconds, CSV texts, errors);
    the wall clock runs from the first call to the return of the last,
    which is after its CSV is written."""
    os.makedirs(outdir, exist_ok=True)
    paths = [os.path.join(outdir, f"{i}-{c.experiment}.csv") for i, c in enumerate(calls)]
    for path in paths:
        if os.path.exists(path):
            os.remove(path)
    argvs = [c.argv(seed, p) for c, p in zip(calls, paths)]
    errors: dict[int, str] = {}
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        with root_span if root_span is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            for i, argv in enumerate(argvs):
                try:
                    code = cli.main(argv)
                except Exception:  # a crash fails the call's cells, not the run
                    errors[i] = traceback.format_exc()
                    continue
                if code != 0:
                    errors[i] = f"exit code {code}"
            wall = time.perf_counter() - t0
    texts = []
    for i, path in enumerate(paths):
        try:
            with open(path, encoding="utf-8") as fh:
                texts.append(fh.read())
        except OSError as exc:
            errors.setdefault(i, f"no CSV: {exc}")
            texts.append("")
    for i, why in errors.items():
        print(f"perfbench: call {argvs[i]} failed: {why}", file=sys.stderr)
    return wall, texts, errors


def reference_texts(workload: str, calls) -> list[str | None]:
    out = []
    for i, c in enumerate(calls):
        path = os.path.join(REFERENCE, workload, f"{i}-{c.experiment}.csv")
        try:
            with open(path, encoding="utf-8") as fh:
                out.append(fh.read())
        except OSError:
            out.append(None)
    return out


def check_pass(ledger: Ledger, label: str, calls, texts, errors, expected) -> None:
    """Check one pass's CSVs: invariants, and equality with ``expected``
    (a list of texts, None where nothing is expected)."""
    for i, (call, text) in enumerate(zip(calls, texts)):
        cells = call.cells()
        if i in errors:
            failures = {cell: "call failed" for cell in cells}
        else:
            failures = check_invariants(call, text)
            if expected[i] is not None:
                for cell, why in compare_cells(call, text, expected[i]).items():
                    failures.setdefault(cell, why)
        ledger.record(f"{label} call {i} ({call.experiment})", len(cells), failures)


def _probe_kernel() -> int:
    """Fixed work shaped like the simulator's: numpy uniform blocks and
    prefix sums, then tuple-keyed dict bookkeeping in pure Python."""
    import numpy as np

    gen = np.random.Generator(np.random.Philox(key=np.array([7, 7], dtype=np.uint64)))
    acc = 0
    for _ in range(16):
        acc += int(np.count_nonzero(np.cumsum(gen.random(4000) < 0.5) > 100))
    table: dict = {}
    for i in range(30000):
        key = (i & 255, i % 5)
        table[key] = table.get(key, 0) + 1
    return acc + len(table)


def host_probe(tries: int) -> float:
    """Median seconds of ``tries`` back-to-back runs of the probe kernel.
    Host speed also wavers within a second, so a long pass needs a long
    probe to be compared with."""
    times = []
    for _ in range(tries):
        t0 = time.perf_counter()
        _probe_kernel()
        times.append(time.perf_counter() - t0)
    return spans.median(times)


def probe_tries(pass_seconds: float) -> int:
    """Probe kernel runs after a pass: about PROBE_SHARE of the pass's
    length, between 3 and 60."""
    return max(3, min(60, round(PROBE_SHARE * pass_seconds / NOMINAL_PROBE_S)))


class SetupTimer:
    """Seconds from starting a fresh interpreter to ``teachsim`` imported
    and the workload's configs resolved. Samples are taken one at a time
    between passes, so that they spread over the run's changes in host
    speed; the first interpreter only warms file caches."""

    def __init__(self, calls):
        argvs = [c.argv(DEFAULT_SEED, os.path.join(OUT, "unused.csv")) for c in calls]
        self.code = (
            "import sys\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "import teachsim.cli as cli\n"
            f"for argv in {argvs!r}:\n"
            "    cli._config_from_args(cli.build_parser().parse_args(argv)).resolved()\n")
        self.samples: list[float] = []
        self._spawn()

    def _spawn(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", self.code], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
        return elapsed

    def sample(self) -> None:
        if len(self.samples) < SETUP_REPEATS:
            self.samples.append(self._spawn())

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_REPEATS:
            self.sample()
        return self.samples


def at_nominal_speed(walls, probes) -> float:
    """A run's pass wall time at the nominal host speed: the median over
    passes of the raw pass time scaled by the nominal probe time over the
    mean of the probes taken just before and just after that pass."""
    return spans.median([w * 2.0 * NOMINAL_PROBE_S / (probes[i] + probes[i + 1])
                         for i, w in enumerate(walls)])


# ---------------------------------------------------------------------------
# metrics


def _put_trial_times(m: dict, family: str, durations) -> None:
    """Median and tail of a family's trial times in ms, with the sample
    count; the tail is left out when too few trials leave ten beyond any
    percentile."""
    ms = [d * 1e3 for d in durations]
    pct, tail, n = spans.tail_percentile(ms)
    m[f"{family}.trial_ms.p50"] = (spans.nearest_rank(ms, 50.0) if ms else 0.0, "ms")
    m[f"{family}.trial_ms.n"] = (n, "count")
    if pct is not None:
        m[f"{family}.trial_ms.tail"] = (tail, "ms")
        m[f"{family}.trial_ms.tail_pct"] = (pct, "%")


def layer_metrics(tr: spans.Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the pass just traced, by name with unit."""
    selfs = tr.family_self_times()
    m: dict[str, tuple[float, str]] = {}
    for fam in ("core", "core.stream", "core.draw", "core.collection", "concepts",
                "concepts.build", "teachers", "environments", "environments.step",
                "environments.reachable", "mdp_teaching", "mdp_teaching.planner",
                "mdp_teaching.bfs", "mdp_teaching.cover", "mdp_teaching.taxi_std",
                "harness", "harness.emit_csv", "cli", "bench.pass"):
        m[f"{fam}.self_s"] = (selfs.get(fam, 0.0), "s")
    for layer in spans.LAYERS:
        total = sum(v for k, v in selfs.items() if k == layer or k.startswith(layer + "."))
        m[f"layer.{layer}.self_s"] = (total, "s")
    for name, fam in (("core.stream.calls", "core.stream"), ("core.draw.calls", "core.draw"),
                      ("core.collection.adds", "core.collection"),
                      ("concepts.build.calls", "concepts.build"),
                      ("concepts.parent_values.calls", "concepts.parent_values"),
                      ("environments.step.calls", "environments.step"),
                      ("environments.reachable.calls", "environments.reachable"),
                      ("mdp_teaching.bfs.calls", "mdp_teaching.bfs"),
                      ("mdp_teaching.cover.calls", "mdp_teaching.cover")):
        m[name] = (tr.count(fam), "count")
    m["core.draw.uniforms"] = (tr.uniforms, "count")
    m["environments.reachable.transitions"] = (tr.reachable_transitions, "count")
    m["harness.emit_csv.bytes"] = (tr.csv_bytes, "B")

    empty = spans._TrialStats()
    for t in SUPERVISED_TEACHERS:
        fam = f"teachers.{t}"
        st = tr.trials.get(fam, empty)
        calls = len(st.durations)
        m[f"{fam}.calls"] = (calls, "count")
        m[f"{fam}.self_s"] = (selfs.get(fam, 0.0), "s")
        m[f"{fam}.cap_hit_frac"] = (st.cap_hits / calls if calls else 0.0, "ratio")
        m[f"core.draw.used_frac.{t}"] = (spans.used_frac(st.used, st.drawn), "ratio")
        _put_trial_times(m, fam, st.durations)
    tours = 0
    for p in TOUR_PROTOCOLS:
        fam = f"mdp_teaching.tour.{p}"
        st = tr.trials.get(fam, empty)
        calls = len(st.durations)
        tours += calls
        m[f"{fam}.calls"] = (calls, "count")
        m[f"{fam}.self_s"] = (selfs.get(fam, 0.0), "s")
        m[f"{fam}.steps"] = (st.steps, "count")
        m[f"{fam}.shift_frac"] = (st.shifts / st.steps if st.steps else 0.0, "ratio")
        _put_trial_times(m, fam, st.durations)
    taxi = tr.trials.get("mdp_teaching.taxi_std", empty)
    m["mdp_teaching.taxi_std.calls"] = (len(taxi.durations), "count")
    m["mdp_teaching.planner.builds"] = (tr.planner_builds, "count")
    m["mdp_teaching.planner.builds_per_trial"] = (
        tr.planner_builds / tours if tours else 0.0, "ratio")
    m["mdp_teaching.planner.states"] = (tr.planner_states, "count")
    m["mdp_teaching.planner.unconverged"] = (tr.planner_unconverged, "count")
    m["trace.spans"] = (len(tr.fam), "count")
    m["trace.self_sum_s"] = (sum(selfs.values()), "s")
    return m


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_package():
    """Import ``teachsim`` from this checkout's ``src``, never from an
    installed copy."""
    if not os.path.isfile(os.path.join(SRC, "teachsim", "__init__.py")):
        raise FileNotFoundError(f"no teachsim package under {SRC}")
    sys.path.insert(0, SRC)
    import teachsim
    import teachsim.cli

    if not os.path.abspath(teachsim.__file__).startswith(SRC + os.sep):
        raise ImportError(f"teachsim was imported from {teachsim.__file__}, not {SRC}")
    return teachsim, teachsim.cli


def timed_passes(cli, calls, seed, outdir, deadline, ledger, label, expected, estimate,
                 root=None, on_pass=None):
    """Passes until the next one would end after ``deadline`` (at least
    one), with a host probe before the first pass and after each; the
    first probe is sized for a pass of ``estimate`` seconds. Each pass's
    CSVs must equal ``expected``, whose None entries are filled from the
    first pass. Returns the raw wall times, the probe times and the
    expected texts."""
    expected = list(expected)
    walls, probes = [], [host_probe(probe_tries(estimate))]
    while True:
        tracer_root = root() if root is not None else None
        wall, texts, errors = run_pass(cli, calls, seed, outdir, tracer_root)
        probes.append(host_probe(probe_tries(wall)))
        for i, text in enumerate(texts):
            if expected[i] is None and i not in errors:
                expected[i] = text
        check_pass(ledger, f"{label} pass {len(walls)}", calls, texts, errors, expected)
        walls.append(wall)
        if on_pass is not None:
            on_pass(wall)
        if time.perf_counter() + spans.median(walls) > deadline:
            return walls, probes, expected


def main(argv=None) -> int:
    args = parse_args(argv)
    calls = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir = os.path.join(OUT, tag)
    try:
        package, cli = load_package()
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    facts = machine_facts(args.seed)
    ledger = Ledger()

    setup = None if args.trace else SetupTimer(calls)

    # Reference pass at the default seed: byte comparison against the
    # committed CSVs, and warm-up of lazy imports before timing.
    refs = reference_texts(args.workload, calls)
    if any(r is None for r in refs):
        print("perfbench: reference CSVs are missing", file=sys.stderr)
        return 2
    estimate, texts, errors = run_pass(cli, calls, DEFAULT_SEED, outdir)
    check_pass(ledger, "reference", calls, texts, errors, refs)

    # Every pass at the run's seed must repeat the first; seed-free calls
    # must match the reference.
    pinned = [refs[i] if c.experiment in SEED_FREE else None for i, c in enumerate(calls)]
    start = time.perf_counter()
    deadline = start + args.seconds
    result: dict[str, tuple[float, str]] = {}
    if not args.trace:
        walls, probes, first = timed_passes(cli, calls, args.seed, outdir, deadline,
                                             ledger, "timed", pinned, estimate,
                                             on_pass=lambda wall: setup.sample())
        setup_samples = setup.finish()
        trials = steps = 0
        for t in first:
            tr_, st_ = sim_totals(t or "")
            trials += tr_
            steps += st_
        wall = at_nominal_speed(walls, probes)
        result["wall_s"] = (wall, "s")
        result["trials_per_s"] = (trials / wall, "1/s")
        result["sim_steps_per_s"] = (steps / wall, "1/s")
        result["setup_s"] = (spans.median(setup_samples), "s")
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                 "MB")
        detail = {"passes": len(walls), "raw_walls_s": walls, "probes_s": probes,
                  "raw_wall_s": spans.median(walls), "setup_samples_s": setup_samples,
                  "trials_per_pass": trials, "sim_steps_per_pass": steps}
        wanted = list(END_TO_END_UNITS)
    else:
        half = start + args.seconds / 2.0
        plain, plain_probes, first = timed_passes(cli, calls, args.seed, outdir, half,
                                                   ledger, "untraced", pinned, estimate)
        tracer = spans.Tracer(package)
        per_pass: list[dict] = []
        dump: dict = {}

        def collect(wall):
            per_pass.append(layer_metrics(tracer))
            if not dump:
                dump.update(tracer.span_dump(tracer.start[0]))
            tracer.reset()

        with tracer:
            traced, traced_probes, _ = timed_passes(
                cli, calls, args.seed, outdir, deadline, ledger, "traced", first,
                spans.median(plain), root=tracer.pass_span, on_pass=collect)
        # counts repeat exactly between passes; times are medians
        for name, (value, unit) in per_pass[0].items():
            if unit in ("s", "ms"):
                value = spans.median([p[name][0] for p in per_pass])
            result[name] = (value, unit)
        repeat = all(p[n] == per_pass[0][n] for p in per_pass
                     for n in per_pass[0] if per_pass[0][n][1] not in ("s", "ms"))
        # self times add up to the raw traced wall; the overhead compares
        # the two kinds of pass at nominal host speed
        untraced = at_nominal_speed(plain, plain_probes)
        with_trace = at_nominal_speed(traced, traced_probes)
        result["trace.wall_s"] = (spans.median(traced), "s")
        result["trace.overhead_frac"] = ((with_trace - untraced) / untraced, "ratio")
        detail = {"untraced_passes": len(plain), "traced_passes": len(traced),
                  "untraced_raw_walls_s": plain, "untraced_probes_s": plain_probes,
                  "traced_raw_walls_s": traced, "traced_probes_s": traced_probes,
                  "counts_repeat": repeat}
        with open(os.path.join(OUT, f"{args.workload}-trace.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "machine": facts, "detail": detail,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
                       "spans": dump}, fh)
        wanted = PER_LAYER

    correct = ledger.failed == 0
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"cells attempted={ledger.attempted} failed={ledger.failed} "
          f"failed_frac={ledger.failed / max(ledger.attempted, 1):.6g}")
    for why in ledger.reasons:
        print(f"  FAIL {why}")
    for name in (sorted(result) if args.trace else wanted):
        value, unit = result[name]
        print(f"  {name:<48} {value:>16.6g} {unit}")
    print("machine " + json.dumps(facts, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    metrics = {name: {"value": result[name][0], "unit": result[name][1]} for name in wanted}
    line = {"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
            "metrics": metrics}
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"machine": facts, "detail": detail, **line}, fh, indent=1)
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
