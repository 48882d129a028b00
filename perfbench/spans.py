"""Layer tracing from outside the program.

A :class:`Tracer` wraps the public functions and methods of each
``teachsim`` module by patching module attributes and class attributes,
keeps one span per timed call in memory, and restores every original
attribute when it is uninstalled. Hot methods are only counted: timing a
call costs about a microsecond, which would dominate a method that runs a
million times per pass.

Self time, the percentile rule and the draw-usage ratio are plain
functions of the recorded data so that they can be tested on hand-built
inputs.
"""

from __future__ import annotations

import array
import contextlib
import importlib
import math
import os
import time
from dataclasses import dataclass, field

# Modules of the package, in layer order. Each is a layer of the trace.
LAYERS = ("core", "concepts", "teachers", "environments", "mdp_teaching",
          "harness", "cli")

# (module, qualified name) -> span family. Every other public function or
# method lands in the family named after its module.
FAMILIES = {
    ("core", "RandomSource.__init__"): "core.stream",
    ("core", "derive_stream"): "core.stream",
    ("core", "RandomSource.random_block"): "core.draw",
    ("core", "RandomSource.random"): "core.draw",
    ("core", "TeachingCollection.add"): "core.collection",
    ("concepts", "BernoulliConcept.__init__"): "concepts.build",
    ("concepts", "BanditConcept.__init__"): "concepts.build",
    ("concepts", "DbnConcept.__init__"): "concepts.build",
    ("concepts", "MonotoneConjunction.__init__"): "concepts.build",
    ("concepts", "DbnConcept.parent_values"): "concepts.parent_values",
    ("environments", "step"): "environments.step",
    ("environments", "enumerate_reachable"): "environments.reachable",
    ("mdp_teaching", "expected_steps_planner"): "mdp_teaching.planner",
    ("mdp_teaching", "shortest_path_deterministic"): "mdp_teaching.bfs",
    ("mdp_teaching", "build_teaching_set_greedy"): "mdp_teaching.cover",
    ("mdp_teaching", "greedy_set_cover"): "mdp_teaching.cover",
    ("mdp_teaching", "taxi_std_approx_teacher"): "mdp_teaching.taxi_std",
    ("harness", "emit_csv"): "harness.emit_csv",
}

# Constructors are not public names but are layer boundaries all the same.
CONSTRUCTORS = {key for key in FAMILIES if key[1].endswith(".__init__")}

# Called up to ~10^6 times per pass: counted, never timed. Their time
# stays in the self time of whichever span called them.
COUNTED_ONLY = {
    ("concepts", "DbnConcept.parent_values"),
    ("concepts", "DbnConcept.factor_prob"),
    ("concepts", "FactorEstimate.observe"),
    ("concepts", "FactorEstimate.observe_many"),
    ("core", "LabelDistribution.prob"),
    ("core", "LabelDistribution.items"),
    ("core", "TeachingCollection.items"),
    ("teachers", "BitflipProbePlan.identifies"),
    ("environments", "BitflipEnv.transition"),
    ("environments", "BitflipEnv.actions"),
    ("environments", "BitflipEnv.reward"),
    ("environments", "TaxiEnv.transition"),
    ("environments", "TaxiEnv.actions"),
    ("environments", "TaxiEnv.reward"),
    ("environments", "TaxiEnv.ground"),
    ("environments", "TaxiEnv.observation"),
    ("environments", "TaxiEnv.precondition_holds"),
    ("environments", "Mdp.transition"),
    ("environments", "Mdp.actions"),
    ("environments", "Mdp.reward"),
}

# Teaching calls that make up one trial: the trial id advances when one
# opens, and every span inside it carries that id.
TEACHER_FUNCTIONS = {
    "teach_coin_ntd": ("coin", "NTD"),
    "teach_coin_nstd": ("coin", "NSTD"),
    "teach_bandit": ("bandit", None),
    "teach_dbn": ("dbn", None),
}

TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)


# ---------------------------------------------------------------------------
# arithmetic on recorded data


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover. Children are merged as intervals, so adjacent or
    overlapping children are not subtracted twice, and grandchildren are
    already inside their parent's interval."""
    n = len(starts)
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        p = parents[i]
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(n):
        lo, hi = starts[i], ends[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children[i], key=lambda j: starts[j]):
            a, b = max(starts[c], lo), min(ends[c], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def nearest_rank(samples, p: float) -> float:
    """The ``ceil(p/100 * n)``-th smallest sample (at least the first)."""
    xs = sorted(samples)
    return xs[max(1, math.ceil(p / 100.0 * len(xs))) - 1]


def tail_percentile(samples) -> tuple[float | None, float | None, int]:
    """The highest percentile on :data:`TAIL_LADDER` that has at least ten
    samples ranked above it, as (percentile, value, sample count).

    The value is the nearest-rank percentile, the sample at rank
    ``ceil(p/100 * n)``; the samples ranked above it number ``n - rank``.
    With fewer than 20 samples no percentile qualifies and the result is
    (None, None, n).
    """
    xs = sorted(samples)
    n = len(xs)
    best = (None, None, n)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10:
            best = (p, xs[rank - 1], n)
    return best


def median(samples) -> float:
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return xs[mid] if n % 2 else (xs[mid - 1] + xs[mid]) / 2.0


def delivered_uniforms(collection) -> int:
    """Uniform draws that ended up in a delivered teaching collection.
    Every sample consumed one uniform per label component: a scalar label
    (a coin flip, an arm payout) is one draw, a next-state tuple (a DBN
    probe outcome) is one draw per factor."""
    total = 0
    for (_, label), count in collection.items():
        width = len(label) if isinstance(label, tuple) else 1
        total += count * width
    return total


def used_frac(used: int, drawn: int) -> float:
    """Share of drawn uniforms that reached the delivered collection."""
    return used / drawn if drawn else 0.0


# ---------------------------------------------------------------------------
# the tracer


@dataclass
class _TrialStats:
    """Per-family aggregates of teaching calls (one call is one trial)."""

    durations: list = field(default_factory=list)
    used: int = 0
    drawn: int = 0
    cap_hits: int = 0
    steps: int = 0
    shifts: int = 0


class Tracer:
    """Installs wrappers on a loaded ``teachsim`` package and records
    spans and counts while installed.

    Spans are stored column-wise (family id, start, end, parent span,
    trial id). The first opened span of a pass is the pass root, opened by
    :meth:`pass_span`; everything the workload calls nests below it.
    """

    def __init__(self, package):
        self.package = package
        self.families: list[str] = []
        self._family_ids: dict[str, int] = {}
        self.counts: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # -- recorded state

    def reset(self) -> None:
        self.fam = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.trial = array.array("i")
        self._stack: list[int] = []
        self.trial_id = -1
        self._in_trial = False
        self._drawn_in_trial = 0
        self.counts = [0] * len(self.families)
        self.uniforms = 0
        self.trials: dict[str, _TrialStats] = {}
        self.planner_builds = 0
        self.planner_states = 0
        self.planner_unconverged = 0
        self.reachable_transitions = 0
        self.csv_bytes = 0

    def _family_id(self, name: str) -> int:
        fid = self._family_ids.get(name)
        if fid is None:
            fid = self._family_ids[name] = len(self.families)
            self.families.append(name)
            self.counts.append(0)
        return fid

    # -- spans

    def _open(self, fid: int) -> int:
        idx = len(self.fam)
        self.fam.append(fid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trial.append(self.trial_id if self._in_trial else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.counts[fid] += 1
        return idx

    @contextlib.contextmanager
    def pass_span(self):
        """The root span of one workload pass."""
        idx = self._open(self._family_id("bench.pass"))
        self.start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    # -- installing wrappers

    def install(self) -> None:
        modules = {name: importlib.import_module(f"{self.package.__name__}.{name}")
                   for name in LAYERS}
        namespaces = [self.package] + list(modules.values())
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (callable(obj) and not name.startswith("_")
                        and getattr(obj, "__module__", None) == mod.__name__):
                    if isinstance(obj, type):
                        self._wrap_class(layer, obj)
                    else:
                        wrapped = self._wrapper(layer, name, obj)
                        for ns in namespaces:
                            for attr, value in list(vars(ns).items()):
                                if value is obj:
                                    self._patch(ns, attr, wrapped)

    def _wrap_class(self, layer: str, cls: type) -> None:
        if issubclass(cls, BaseException):
            return
        for name, raw in list(vars(cls).items()):
            qual = f"{cls.__name__}.{name}"
            if name.startswith("_") and (layer, qual) not in CONSTRUCTORS:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrapper(layer, qual, raw.__func__))
            elif callable(raw) and not isinstance(raw, type):
                wrapped = self._wrapper(layer, qual, raw)
            else:
                continue  # properties and plain values
            self._patch(cls, name, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrapper factories

    def _wrapper(self, layer: str, qual: str, fn):
        family = FAMILIES.get((layer, qual), layer)
        fid = self._family_id(family)
        if (layer, qual) in COUNTED_ONLY:
            return self._counter(fn, fid)
        if layer == "teachers" and qual in TEACHER_FUNCTIONS:
            return self._teacher(fn, *TEACHER_FUNCTIONS[qual])
        if (layer, qual) == ("mdp_teaching", "teach_in_mdp"):
            return self._tour(fn)
        if (layer, qual) == ("mdp_teaching", "taxi_std_approx_teacher"):
            return self._trial_span(fn, lambda args, kwargs: family)
        after = {
            ("core", "RandomSource.random_block"): self._after_block,
            ("core", "RandomSource.random"): self._after_random,
            ("mdp_teaching", "expected_steps_planner"): self._after_planner,
            ("environments", "enumerate_reachable"): self._after_reachable,
            ("harness", "emit_csv"): self._after_emit,
        }.get((layer, qual))
        return self._timed(fn, fid, after)

    def _counter(self, fn, fid: int):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[fid] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _timed(self, fn, fid: int, after=None):
        tracer = self
        perf = time.perf_counter

        def timed(*args, **kwargs):
            idx = tracer._open(fid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf()
                tracer.start[idx] = t0
                tracer._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        timed.__wrapped__ = fn
        return timed

    def _trial_span(self, fn, resolve, on_close=None):
        """Timed wrapper for a teaching call. ``resolve(args, kwargs)``
        names its span family; a call made outside any trial opens a new
        trial, and its duration and outcome feed that family's stats."""
        tracer = self
        perf = time.perf_counter
        fids: dict[str, int] = {}

        def trial(*args, **kwargs):
            name = resolve(args, kwargs)
            fid = fids.get(name)
            if fid is None:
                fid = fids[name] = tracer._family_id(name)
            nested = tracer._in_trial
            if not nested:
                tracer.trial_id += 1
                tracer._in_trial = True
                tracer._drawn_in_trial = 0
            idx = tracer._open(fid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                tracer.end[idx] = t1
                tracer.start[idx] = t0
                tracer._stack.pop()
                if not nested:
                    tracer._in_trial = False
            if not nested:
                stats = tracer.trials.setdefault(name, _TrialStats())
                stats.durations.append(t1 - t0)
                if on_close is not None:
                    on_close(stats, result)
            return result

        trial.__wrapped__ = fn
        return trial

    def _teacher(self, fn, experiment: str, fixed_strategy: str | None):
        def resolve(args, kwargs):
            strategy = fixed_strategy or str(
                args[0] if args else kwargs["strategy"]).strip().upper()
            return f"teachers.{experiment}.{strategy}"

        def on_close(stats, outcome):
            stats.used += delivered_uniforms(outcome.collection)
            stats.drawn += self._drawn_in_trial
            stats.cap_hits += 0 if outcome.stopped_early else 1

        return self._trial_span(fn, resolve, on_close)

    def _tour(self, fn):
        def resolve(args, kwargs):
            protocol = args[2] if len(args) > 2 else kwargs["protocol"]
            return f"mdp_teaching.tour.{str(protocol).strip().upper()}"

        def on_close(stats, seq):
            stats.steps += len(seq)
            stats.shifts += sum(1 for s in seq.steps if s.action == "shift")

        return self._trial_span(fn, resolve, on_close)

    # -- per-call counters

    def _after_block(self, args, kwargs, result) -> None:
        self.uniforms += result.size
        self._drawn_in_trial += result.size

    def _after_random(self, args, kwargs, result) -> None:
        self.uniforms += 1
        self._drawn_in_trial += 1

    def _after_planner(self, args, kwargs, plan) -> None:
        self.planner_builds += 1
        self.planner_states += len(plan.values)
        self.planner_unconverged += 0 if plan.converged else 1

    def _after_reachable(self, args, kwargs, result) -> None:
        self.reachable_transitions += len(result)

    def _after_emit(self, args, kwargs, result) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.csv_bytes += os.path.getsize(path)

    # -- summaries

    def family_self_times(self) -> dict[str, float]:
        selfs = self_times(self.start, self.end, self.parent)
        out: dict[str, float] = {}
        for i, s in enumerate(selfs):
            name = self.families[self.fam[i]]
            out[name] = out.get(name, 0.0) + s
        return out

    def count(self, family: str) -> int:
        fid = self._family_ids.get(family)
        return self.counts[fid] if fid is not None else 0

    def span_dump(self, t0: float) -> dict:
        """Spans column-wise, times in seconds from ``t0``."""
        return {
            "families": list(self.families),
            "family": list(self.fam),
            "start": [s - t0 for s in self.start],
            "end": [e - t0 for e in self.end],
            "parent": list(self.parent),
            "trial": list(self.trial),
        }
