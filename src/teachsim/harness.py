"""Seeded Monte Carlo experiment runner.

Each experiment sweeps one parameter (accuracy target, arm count, bit
count, or taxi action set), runs every strategy for a fixed number of
trials with per-trial keyed random streams, and aggregates step counts
into per-cell statistics. Results are deterministic in the master seed
and can be emitted as CSV for plotting.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import dataclass, field, asdict
from typing import Callable, Iterator, Mapping, Sequence

from .concepts import BanditConcept, BernoulliConcept, bitflip_shift_concept
from .core import AccuracyParams, RandomSource, derive_stream
from .environments import BitflipEnv, TaxiEnv
from .mdp_teaching import PlannerCache, teach_in_mdp
from .teachers import (
    BANDIT_STRATEGIES,
    COIN_INPUT,
    COIN_STRATEGIES,
    DBN_STRATEGIES,
    teach_bandit_cell,
    teach_coin_cell,
    teach_dbn_cell,
)

TAXI_ACTION_SETS: dict[str, tuple[str, ...]] = {
    "pickup": ("pickup",),
    "pickup+dropoff": ("pickup", "dropoff"),
    "movement": ("up", "down", "left", "right"),
    "all": ("up", "down", "left", "right", "pickup", "dropoff"),
}
_ACTION_SET_ALIASES = {"pickup+putdown": "pickup+dropoff", "putdown": "pickup+dropoff"}

# the config fields every experiment reads
_COMMON_FIELDS = ("experiment", "strategies", "runs", "master_seed", "out")


@dataclass(frozen=True)
class _Experiment:
    """What the runner knows of one experiment: the name of its sweep,
    its strategies (all of which run by default), its default run count,
    the config fields it reads beyond the common ones, with their
    defaults, and ``cells``: a generator that builds run-level state once,
    then yields, per sweep value, the value and a teacher ``(strategy,
    streams) -> record fields``, one stream and one record per trial, in
    trial order. A value's state lives only while that value runs."""

    sweep: str
    strategies: tuple[str, ...]
    runs: int
    fields: Mapping[str, object]
    cells: Callable[["ExperimentConfig"], Iterator[tuple[object, Callable]]]


def _outcome(outcome) -> dict:
    return dict(steps=outcome.steps, samples=outcome.samples,
                stopped_early=outcome.stopped_early)


def _demonstration(seq) -> dict:
    return dict(steps=len(seq), samples=len(seq), stopped_early=False)


def _model_uniforms(cfg: "ExperimentConfig", size: int, trial: int) -> tuple:
    """``size`` uniforms of the trial's strategy-independent model stream:
    every strategy faces the concept built from them."""
    return tuple(RandomSource(cfg.master_seed, derive_stream(
        cfg.experiment, size, trial, "model")).random_block(size))


def _each_trial(teach: Callable) -> Callable:
    """The cell teacher that runs ``teach(strategy, stream)`` on each
    trial in turn."""
    return lambda strategy, streams: [teach(strategy, rng) for rng in streams]


def _coin_cells(cfg: "ExperimentConfig"):
    concept = BernoulliConcept(cfg.p_star)
    for eps in cfg.epsilon_sweep:
        params = AccuracyParams(eps, cfg.delta)
        yield eps, lambda strategy, streams: [dict(_outcome(outcome), p_hat_abs_error=abs(
            outcome.collection.label_counts(COIN_INPUT).get(1, 0) / outcome.samples
            - cfg.p_star)) for outcome in teach_coin_cell(strategy, concept, params, streams)]


def _bandit_cells(cfg: "ExperimentConfig"):
    params = AccuracyParams(cfg.epsilon, cfg.delta)
    for k in cfg.arms:
        concepts = [BanditConcept(_model_uniforms(cfg, k, t)) for t in range(cfg.runs)]
        yield k, lambda strategy, streams: [
            _outcome(outcome) for outcome in teach_bandit_cell(strategy, concepts, params, streams)]


def _dbn_cells(cfg: "ExperimentConfig"):
    params = AccuracyParams(cfg.epsilon, cfg.delta)
    for n in cfg.bits:
        concepts = [bitflip_shift_concept(n, _model_uniforms(cfg, n, t))
                    for t in range(cfg.runs)]
        yield n, lambda strategy, streams: [
            _outcome(outcome) for outcome in teach_dbn_cell(strategy, concepts, params, streams)]


def _taxi_cells(cfg: "ExperimentConfig"):
    env = TaxiEnv()
    cache = PlannerCache(env)
    for name in cfg.action_sets:
        concept = env.true_preconditions(TAXI_ACTION_SETS[name])
        yield name, _each_trial(lambda strategy, rng: _demonstration(
            teach_in_mdp(concept, env, strategy.lower(), planner_cache=cache)))


def _bitflip_seq_cells(cfg: "ExperimentConfig"):
    params = AccuracyParams(cfg.epsilon, cfg.delta)
    for n in cfg.bits:
        # by default the middle bit and one from the top end
        noisy = ({n // 2, max(0, n - 2)} if cfg.stochastic_bits is None
                 else set(cfg.stochastic_bits))
        env = BitflipEnv(n, [cfg.stochastic_success if i in noisy else 1.0 for i in range(n)])
        concept = env.shift_concept()
        cache = PlannerCache(env)
        yield n, _each_trial(lambda strategy, rng: _demonstration(
            teach_in_mdp(concept, env, strategy.lower(), params, rng, planner_cache=cache)))


_TABLE: dict[str, _Experiment] = {
    "coin": _Experiment(
        "epsilon", COIN_STRATEGIES, 1000,
        dict(delta=0.05, epsilon=None, p_star=0.5,
             epsilon_sweep=[1 / 10, 1 / 20, 1 / 30, 1 / 40, 1 / 50, 1 / 60]),
        _coin_cells),
    "bandit": _Experiment(
        "arms", BANDIT_STRATEGIES, 1000,
        dict(delta=0.05, epsilon=1 / 45, arms=[2, 4, 6, 8, 10]),
        _bandit_cells),
    # a DBN has no td teaching set
    "dbn": _Experiment(
        "bits", DBN_STRATEGIES, 500,
        dict(delta=0.05, epsilon=0.3, bits=[2, 4, 6, 8]),
        _dbn_cells),
    "taxi": _Experiment(
        "action_set", ("TD", "STD-APPROX"), 1,
        dict(action_sets=list(TAXI_ACTION_SETS)),
        _taxi_cells),
    # the sequential experiment's accuracy settings and stochastic-shift
    # success are unstated in the reproduced results; these defaults give
    # the strategies stable separation (see the acceptance suite)
    "bitflip-seq": _Experiment(
        "bits", ("NTD-PAR", "NSTD-PAR", "NSTD-IND"), 250,
        dict(epsilon=0.4, delta=0.005, bits=[10],
             stochastic_bits=None, stochastic_success=0.75),
        _bitflip_seq_cells),
}

EXPERIMENTS = tuple(_TABLE)


@dataclass
class ExperimentConfig:
    """Everything a run needs; unset fields fall back to the experiment's
    defaults (resolved into a copy by :meth:`resolved`)."""

    experiment: str
    strategies: list[str] | None = None
    epsilon: float | None = None
    epsilon_sweep: list[float] | None = None
    delta: float | None = None
    runs: int | None = None
    master_seed: int = 0
    p_star: float | None = None
    arms: list[int] | None = None
    bits: int | list[int] | None = None  # resolved to a list
    stochastic_bits: list[int] | None = None
    stochastic_success: float | None = None
    action_sets: list[str] | None = None
    out: str | None = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}")

    def resolved(self) -> "ExperimentConfig":
        """A checked copy with the defaults filled in, the strategy names
        in upper case, ``bits`` as a list of ints and the taxi action sets
        by their own names. A set field the experiment does not read, or
        whose value is not of the field's type, is refused. Only coin
        sweeps epsilon; a lone epsilon there is a one-point sweep. Every
        list must be non-empty and repeat no value (strategies compared in
        upper case, action sets by their own names), every count must be
        at least 1, and every stochastic bit must lie in every listed size."""
        entry = _TABLE[self.experiment]
        merged = asdict(self)
        reads = _COMMON_FIELDS + tuple(entry.fields)
        stray = [key for key, value in merged.items()
                 if value is not None and key not in reads]
        if stray:
            raise ValueError(f"the {self.experiment} experiment does not read "
                             f"{stray[0]}; it reads {', '.join(reads)}")
        if self.bits is not None:
            bits = self.bits if isinstance(self.bits, (list, tuple)) else [self.bits]
            # a string of digits counts as its int
            merged["bits"] = [int(n) if isinstance(n, str) and n.isdigit() else n
                              for n in bits]
        for key, hint in _FIELD_TYPES.items():
            if not _conforms(merged[key], hint):
                kind = hint.__name__ if isinstance(hint, type) else str(hint)
                raise ValueError(f"{key} must be {kind.replace(' | None', '')}, "
                                 f"not {merged[key]!r}")
        if "epsilon_sweep" in reads and self.epsilon is not None:
            if self.epsilon_sweep is not None:
                raise ValueError("set epsilon or epsilon_sweep, not both")
            merged["epsilon_sweep"] = [self.epsilon]
        defaults = dict(entry.fields, strategies=list(entry.strategies), runs=entry.runs)
        for key, value in defaults.items():
            if merged[key] is None:
                merged[key] = value
        cfg = ExperimentConfig(**merged)
        for key in ("arms", "bits"):
            if any(n < 1 for n in getattr(cfg, key) or ()):
                raise ValueError(f"every {key} count must be at least 1")
        for n in cfg.bits if cfg.stochastic_bits is not None else ():
            out_of_range = [i for i in cfg.stochastic_bits if not 0 <= i < n]
            if out_of_range:
                raise ValueError(f"stochastic bits out of range for {n} bits: {out_of_range}")
        cfg.strategies = [s.strip().upper() for s in cfg.strategies]
        unknown = [s for s in cfg.strategies if s not in entry.strategies]
        if unknown:
            raise ValueError(f"the {cfg.experiment} experiment has no strategy "
                             f"{unknown[0]!r}; expected one of {entry.strategies}")
        if cfg.action_sets is not None:
            unknown = [name for name in cfg.action_sets
                       if _ACTION_SET_ALIASES.get(name, name) not in TAXI_ACTION_SETS]
            if unknown:
                raise ValueError(f"unknown taxi action set {unknown[0]!r}")
            cfg.action_sets = [_ACTION_SET_ALIASES.get(name, name) for name in cfg.action_sets]
        for key in ("strategies", "epsilon_sweep", "bits", "arms", "action_sets"):
            value = getattr(cfg, key)
            if isinstance(value, (list, tuple)) and not value:
                raise ValueError(f"the {key} list is empty")
            repeated = [v for i, v in enumerate(value or ()) if v in value[:i]]
            if repeated:
                raise ValueError(f"the {key} list repeats {repeated[0]!r}")
        if cfg.runs < 1:
            raise ValueError("run count must be at least 1")
        if cfg.epsilon is not None:
            AccuracyParams(cfg.epsilon, cfg.delta)  # validate
        for eps in cfg.epsilon_sweep or ():
            AccuracyParams(eps, cfg.delta)
        return cfg

    @classmethod
    def from_dict(cls, d: Mapping) -> "ExperimentConfig":
        if not isinstance(d, Mapping) or "experiment" not in d:
            raise ValueError("a config must be a JSON object with an experiment field")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)!r}")
        return cls(**d)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def _conforms(value, hint) -> bool:
    """Whether a config value is of its field's annotated type: a float
    field takes any real number, an int field any integer, a list field a
    list or tuple of its item type, and no field a bool."""
    if isinstance(hint, types.UnionType):
        return any(_conforms(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, (list, tuple)) and all(_conforms(v, item) for v in value)
    return not isinstance(value, bool) and isinstance(
        value, (int, float) if hint is float else hint)


@dataclass(frozen=True)
class TrialStats:
    """Aggregates for one (strategy, sweep point) cell."""

    experiment: str
    strategy: str
    sweep_param: str
    sweep_value: object
    runs: int
    mean: float
    std: float
    ci95: float
    min: float
    max: float


@dataclass
class ExperimentResult:
    stats: list[TrialStats]
    records: list[dict] = field(repr=False, default_factory=list)

    def cell(self, strategy: str, sweep_value) -> TrialStats:
        for row in self.stats:
            if row.strategy == strategy and row.sweep_value == sweep_value:
                return row
        raise KeyError((strategy, sweep_value))


def _aggregate(experiment: str, sweep_param: str, records: list[dict]) -> list[TrialStats]:
    cells: dict[tuple, list[float]] = {}
    for rec in records:
        cells.setdefault((rec["strategy"], rec["sweep_value"]), []).append(
            float(rec["steps"]))
    stats = []
    for (strategy, sweep_value) in sorted(cells, key=lambda k: (k[0], k[1])):
        xs = cells[(strategy, sweep_value)]
        n = len(xs)
        mean = math.fsum(xs) / n
        var = math.fsum((x - mean) ** 2 for x in xs) / (n - 1) if n > 1 else 0.0
        std = math.sqrt(var)
        stats.append(TrialStats(
            experiment=experiment, strategy=strategy, sweep_param=sweep_param,
            sweep_value=sweep_value, runs=n, mean=mean, std=std,
            ci95=1.96 * std / math.sqrt(n), min=min(xs), max=max(xs)))
    return stats


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute every (sweep point, strategy, trial) cell of the configured
    experiment. Each trial draws from a stream keyed by the experiment,
    strategy, sweep value and trial index, so results do not depend on
    execution order; concept draws use a strategy-independent stream so
    every strategy faces the same concept in a given trial."""
    cfg = config.resolved()
    entry = _TABLE[cfg.experiment]
    records = []
    for value, teach in entry.cells(cfg):
        for strategy in cfg.strategies:
            streams = [RandomSource(cfg.master_seed, derive_stream(
                cfg.experiment, strategy, value, trial, "teach")) for trial in range(cfg.runs)]
            for trial, fields in enumerate(teach(strategy, streams)):
                records.append(dict(experiment=cfg.experiment, strategy=strategy,
                                    sweep_value=value, trial=trial, **fields))
    return ExperimentResult(_aggregate(cfg.experiment, entry.sweep, records), records)


# ---------------------------------------------------------------------------
# output


def emit_csv(stats: Sequence[TrialStats], path: str) -> None:
    """Write one row per (strategy, sweep point) cell, ordered by strategy
    then sweep value, with full-precision decimal numbers. Identical
    configurations produce byte-identical files."""
    if not stats:
        raise ValueError("no statistics to write")
    header = ("experiment,strategy,sweep_param,sweep_value,runs,"
              "mean,std,ci95,min,max")
    lines = [header]
    for row in sorted(stats, key=lambda r: (r.strategy, r.sweep_value)):
        lines.append(",".join([
            row.experiment, row.strategy, row.sweep_param,
            _csv_number(row.sweep_value), str(row.runs),
            _csv_number(row.mean), _csv_number(row.std), _csv_number(row.ci95),
            _csv_number(row.min), _csv_number(row.max)]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _csv_number(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    r_squared: float


def fit_scaling(stats: Sequence[TrialStats]) -> ScalingFit:
    """Least-squares fit of mean steps against the inverse accuracy
    target, for rows swept over epsilon. A stopping teacher whose expected
    time is linear in 1/epsilon fits with r_squared near 1; a fixed-budget
    teacher (quadratic in 1/epsilon) fits visibly worse."""
    points = [(1.0 / float(row.sweep_value), row.mean) for row in stats]
    xs = [p[0] for p in points]
    if len(set(xs)) < 2:
        raise ValueError("scaling fit needs at least two distinct sweep values")
    n = len(points)
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(p[1] for p in points) / n
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in points)
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in points)
    ss_tot = math.fsum((y - mean_y) ** 2 for _, y in points)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ScalingFit(slope=slope, intercept=intercept, r_squared=r_squared)
