import ast
import json
import pathlib
import shlex

import pytest

from teachsim.core import AccuracyParams, hoeffding_samples
from teachsim.teachers import teach_coin_cell
from teachsim.harness import (
    ExperimentConfig,
    TrialStats,
    emit_csv,
    fit_scaling,
    run_experiment,
)
from teachsim import cli


def small_coin_config(**overrides):
    base = dict(experiment="coin", runs=50, master_seed=3,
                epsilon_sweep=[0.1, 0.2])
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_defaults_resolve(self):
        cfg = ExperimentConfig(experiment="bandit").resolved()
        assert cfg.arms == [2, 4, 6, 8, 10]
        assert cfg.runs == 1000
        assert cfg.delta == 0.05

    def test_rejects_unknown_experiment(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="chess")

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"experiment": "coin", "bogus": 1})

    def test_rejects_invalid_epsilon(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="coin", epsilon=1.5).resolved()

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"experiment": "coin", "runs": 10, "epsilon": 0.2,
             "master_seed": 5}))
        cfg = ExperimentConfig.from_file(str(path))
        assert cfg.runs == 10 and cfg.master_seed == 5


class TestRunExperiment:
    def test_coin_ntd_zero_variance(self):
        res = run_experiment(small_coin_config())
        for eps in (0.1, 0.2):
            row = res.cell("NTD", eps)
            expected = hoeffding_samples(AccuracyParams(eps, 0.05))
            assert row.mean == expected and row.std == 0.0
            assert row.min == row.max == expected

    def test_stats_match_recomputation_from_records(self):
        import math
        res = run_experiment(small_coin_config())
        for row in res.stats:
            xs = [r["steps"] for r in res.records
                  if r["strategy"] == row.strategy
                  and r["sweep_value"] == row.sweep_value]
            assert row.runs == len(xs)
            mean = math.fsum(xs) / len(xs)
            var = math.fsum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
            assert abs(row.mean - mean) < 1e-12
            assert abs(row.std - math.sqrt(var)) < 1e-12
            assert row.min <= row.mean <= row.max
            assert row.min == min(xs) and row.max == max(xs)

    def test_bandit_row_shape(self):
        cfg = ExperimentConfig(experiment="bandit", runs=5, arms=[2, 3],
                               strategies=["NTD-IND", "NSTD-PAR"], master_seed=1)
        res = run_experiment(cfg)
        assert {(r.strategy, r.sweep_value) for r in res.stats} == {
            ("NTD-IND", 2), ("NTD-IND", 3), ("NSTD-PAR", 2), ("NSTD-PAR", 3)}

    def test_determinism_across_calls(self):
        a = run_experiment(small_coin_config())
        b = run_experiment(small_coin_config())
        assert a.stats == b.stats

    def test_strategy_independent_model_draws(self):
        cfg = ExperimentConfig(experiment="bandit", runs=3, arms=[2],
                               strategies=["NTD-IND", "NTD-PAR"], master_seed=9)
        res = run_experiment(cfg)
        # NTD-PAR pulls times arms equals NTD-IND samples per trial, since
        # both face the same per-trial concept and fixed budgets
        ind = [r for r in res.records if r["strategy"] == "NTD-IND"]
        par = [r for r in res.records if r["strategy"] == "NTD-PAR"]
        assert [r["samples"] for r in ind] == [r["samples"] for r in par]

    def test_invalid_strategy_pairing(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(
                experiment="coin", strategies=["NTD-PAR"], runs=1))

    def test_unknown_strategy_raises_before_any_trial(self, monkeypatch):
        from teachsim import harness
        calls = []

        def counting(strategy, concept, params, streams):
            calls.extend(streams)
            return teach_coin_cell(strategy, concept, params, streams)

        monkeypatch.setattr(harness, "teach_coin_cell", counting)
        with pytest.raises(ValueError, match="FOO"):
            run_experiment(small_coin_config(strategies=["NTD", "FOO"]))
        assert calls == []
        run_experiment(small_coin_config(strategies=["NTD"], runs=2))
        assert len(calls) == 4

    def test_taxi_rows(self):
        cfg = ExperimentConfig(experiment="taxi", action_sets=["pickup"])
        res = run_experiment(cfg)
        td = res.cell("TD", "pickup")
        std = res.cell("STD-APPROX", "pickup")
        assert std.mean < td.mean

    def test_taxi_putdown_alias(self):
        cfg = ExperimentConfig(experiment="taxi", action_sets=["putdown"])
        res = run_experiment(cfg)
        assert {r.sweep_value for r in res.stats} == {"pickup+dropoff"}


class TestEmitCsv:
    def test_empty_stats_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], str(tmp_path / "out.csv"))

    def test_single_cell_two_lines(self, tmp_path):
        row = TrialStats("coin", "NTD", "epsilon", 0.1, 5, 185.0, 0.0, 0.0,
                         185.0, 185.0)
        path = tmp_path / "out.csv"
        emit_csv([row], str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == ("experiment,strategy,sweep_param,sweep_value,"
                            "runs,mean,std,ci95,min,max")
        assert lines[1].startswith("coin,NTD,epsilon,0.1,5,185.0,")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_coin_config()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_experiment(cfg).stats, str(p1))
        emit_csv(run_experiment(cfg).stats, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_row_ordering(self, tmp_path):
        rows = [
            TrialStats("coin", "NTD", "epsilon", 0.2, 1, 1, 0, 0, 1, 1),
            TrialStats("coin", "NSTD", "epsilon", 0.2, 1, 1, 0, 0, 1, 1),
            TrialStats("coin", "NTD", "epsilon", 0.1, 1, 1, 0, 0, 1, 1),
        ]
        path = tmp_path / "out.csv"
        emit_csv(rows, str(path))
        data = [line.split(",")[1:4] for line in
                path.read_text().splitlines()[1:]]
        assert data == [["NSTD", "epsilon", "0.2"],
                        ["NTD", "epsilon", "0.1"],
                        ["NTD", "epsilon", "0.2"]]


class TestFitScaling:
    def test_perfect_line(self):
        rows = [TrialStats("coin", "NSTD", "epsilon", 1 / x, 1,
                           3.0 * x + 5.0, 0, 0, 0, 0)
                for x in (10, 20, 30, 40)]
        fit = fit_scaling(rows)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.slope == pytest.approx(3.0)
        assert fit.intercept == pytest.approx(5.0)

    def test_quadratic_budget_fits_linearly_worse(self):
        # fixed-budget counts grow with the square of the inverse target:
        # fitting them against 1/epsilon leaves materially more residual
        # than fitting against 1/epsilon^2
        xs = (10, 20, 30, 40, 50, 60)
        budgets = [float(hoeffding_samples(AccuracyParams(1 / x, 0.05)))
                   for x in xs]
        vs_inverse = [TrialStats("coin", "NTD", "epsilon", 1 / x, 1, b,
                                 0, 0, 0, 0) for x, b in zip(xs, budgets)]
        vs_inverse_sq = [TrialStats("coin", "NTD", "epsilon", 1 / x**2, 1, b,
                                    0, 0, 0, 0) for x, b in zip(xs, budgets)]
        linear_fit = fit_scaling(vs_inverse)
        quadratic_axis_fit = fit_scaling(vs_inverse_sq)
        assert quadratic_axis_fit.r_squared > 0.9999
        assert linear_fit.r_squared < quadratic_axis_fit.r_squared - 0.03

    def test_degenerate_sweep_rejected(self):
        rows = [TrialStats("coin", "NSTD", "epsilon", 0.1, 1, 5.0, 0, 0, 0, 0)] * 3
        with pytest.raises(ValueError):
            fit_scaling(rows)


class TestCli:
    def test_coin_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "coin.csv"
        code = cli.main(["coin", "--runs", "20", "--seed", "4",
                         "--epsilon-sweep", "0.1,0.2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5  # header + 2 strategies x 2 sweep points
        assert "strategy" in capsys.readouterr().out

    def test_sweep_syntax_lo_hi_steps(self):
        assert cli._parse_sweep("0.1:0.3:3") == pytest.approx([0.1, 0.2, 0.3])
        assert cli._parse_sweep("0.1,0.25") == [0.1, 0.25]

    def test_error_exit_code(self, capsys):
        code = cli.main(["coin", "--epsilon", "2.0", "--runs", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["coin", "--epsilon", "1e-200", "--runs", "1"],
        ["bandit", "--epsilon", "1e-170", "--arms", "2", "--runs", "1",
         "--strategies", "NTD-IND"],
        ["dbn", "--epsilon", "1e-160", "--bits", "2", "--runs", "1", "--strategies", "NTD"],
        ["coin", "--epsilon", "0.1", "--delta", "5e-324", "--runs", "1"],
        ["bitflip-seq", "--epsilon", "1e-160", "--bits", "3", "--runs", "1"],
    ])
    def test_budget_past_float_range_is_refused(self, argv, capsys):
        # a tiny epsilon or delta leaves the Hoeffding budget infinite
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("teachsim: error:")
        assert "epsilon=" in captured.err and "delta=" in captured.err

    @pytest.mark.parametrize("argv", [
        ["coin", "--epsilon", "1e-150", "--strategies", "NTD"],
        # a stopping cap past int64
        ["coin", "--epsilon", "1e-150", "--strategies", "NSTD"],
        ["coin", "--epsilon", "4.3e-10", "--strategies", "NSTD"],
        # block 9 of ten arms starts past word 2**66
        ["bandit", "--epsilon", "6e-10", "--arms", "10", "--strategies", "NSTD-IND"],
    ])
    def test_fixed_budget_past_the_index_range_is_refused(self, argv, capsys, draws):
        # a finite budget that no numpy array can index is refused when
        # the collection is read, before any chunk of it is drawn; a
        # stopping cell whose cap or stream layout the index ranges cannot
        # hold is refused before its first draw. Only the bandit trial's
        # model, its arms, is drawn
        assert cli.main(argv + ["--runs", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("teachsim: error:")
        assert "index range" in captured.err
        assert len(draws) == (argv[0] == "bandit")

    def test_fixed_budget_cell_past_the_stream_layout_still_runs(self, tmp_path):
        # a fixed-budget cell skips its span without drawing, and its CSV
        # reads no collection
        out = tmp_path / "bandit.csv"
        assert cli.main(["bandit", "--epsilon", "1e-150", "--arms", "2", "--strategies",
                         "NTD-IND", "--runs", "1", "--out", str(out)]) == 0
        assert out.read_text().count("NTD-IND") == 1

    def test_fixed_budget_past_the_draw_bound_is_refused(self, capsys):
        # 1.84e12 uniforms would draw for hours; the collection read
        # refuses them at once
        argv = ["coin", "--epsilon", "1e-6", "--runs", "1", "--strategies", "NTD"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("teachsim: error:")
        assert "2**32" in captured.err

    def test_coin_epsilon_is_a_one_point_sweep(self, tmp_path):
        out = tmp_path / "coin.csv"
        assert cli.main(["coin", "--epsilon", "0.05", "--runs", "3",
                         "--out", str(out)]) == 0
        assert [line.split(",")[1:4] for line in out.read_text().splitlines()[1:]] == [
            ["NSTD", "epsilon", "0.05"], ["NTD", "epsilon", "0.05"]]

    def test_epsilon_sweep_only_for_coin(self, capsys):
        assert cli.main(["dbn", "--bits", "3", "--runs", "1",
                         "--epsilon-sweep", "0.1,0.2"]) == 2
        assert "does not read epsilon_sweep" in capsys.readouterr().err

    def test_config_file_flag(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"experiment": "coin", "runs": 10, "epsilon": 0.2, "master_seed": 2}))
        out = tmp_path / "r.csv"
        code = cli.main(["coin", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize("argv, key", [
        (["coin", "--epsilon-sweep", ","], "epsilon_sweep"),
        (["coin", "--strategies", ","], "strategies"),
        (["dbn", "--bits", ","], "bits"),
        (["bandit", "--arms", ","], "arms"),
    ])
    def test_empty_list_is_an_error(self, argv, key, capsys):
        assert cli.main(argv + ["--runs", "2"]) == 2
        captured = capsys.readouterr()
        assert f"the {key} list is empty" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["coin", "--epsilon-sweep", "0.1,0.1", "--strategies", "NSTD"],
         "the epsilon_sweep list repeats 0.1"),
        (["coin", "--epsilon-sweep", "0.1,0.05,1e-1"], "the epsilon_sweep list repeats 0.1"),
        (["coin", "--strategies", "NTD,ntd"], "the strategies list repeats 'NTD'"),
        (["dbn", "--bits", "2,2"], "the bits list repeats 2"),
        (["bandit", "--arms", "2,4,2"], "the arms list repeats 2"),
    ])
    def test_repeated_value_is_refused_before_any_trial(self, argv, message, capsys,
                                                        monkeypatch):
        # every repeat would draw the same keyed streams as the first and
        # be counted as more trials
        from teachsim import harness
        streams = []
        monkeypatch.setattr(harness, "RandomSource",
                            lambda *args: streams.append(args))
        assert cli.main(argv + ["--runs", "3"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == "" and not streams

    def test_action_set_named_twice_is_refused(self, tmp_path, capsys):
        # by its own name and by an alias
        with pytest.raises(ValueError, match="action_sets list repeats 'pickup\\+dropoff'"):
            ExperimentConfig(experiment="taxi",
                             action_sets=["pickup+dropoff", "movement", "putdown"]).resolved()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "taxi",
                                        "action_sets": ["all", "all"]}))
        assert cli.main(["taxi", "--config", str(cfg_path)]) == 2
        assert "the action_sets list repeats 'all'" in capsys.readouterr().err

    def test_empty_action_sets_is_an_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "taxi", "action_sets": []}))
        assert cli.main(["taxi", "--config", str(cfg_path)]) == 2
        assert "the action_sets list is empty" in capsys.readouterr().err

    def test_unknown_action_set_raises_before_any_tour(self, tmp_path, capsys,
                                                       monkeypatch):
        from teachsim import harness
        calls = []
        monkeypatch.setattr(harness, "teach_in_mdp", lambda *a, **k: calls.append(a))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"experiment": "taxi", "action_sets": ["all", "FOO"]}))
        assert cli.main(["taxi", "--config", str(cfg_path)]) == 2
        assert "unknown taxi action set 'FOO'" in capsys.readouterr().err
        assert calls == []

    def test_config_experiment_mismatch(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "bandit"}))
        code = cli.main(["coin", "--config", str(cfg_path)])
        assert code == 2

    def test_bitflip_seq_smoke(self, tmp_path):
        out = tmp_path / "seq.csv"
        code = cli.main(["bitflip-seq", "--bits", "4", "--runs", "3",
                         "--strategies", "nstd-ind", "--seed", "8",
                         "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 2

    def test_bitflip_seq_sweeps_every_listed_size(self, tmp_path):
        # a listed size runs as it does alone, with its own environment
        # and planner cache
        def rows(bits):
            out = tmp_path / f"seq-{bits}.csv"
            assert cli.main(["bitflip-seq", "--bits", bits, "--runs", "3",
                             "--seed", "8", "--out", str(out)]) == 0
            return out.read_text().splitlines()

        header, *swept = rows("4,5")
        alone = rows("4")[1:] + rows("5")[1:]
        assert len(swept) == 6
        assert sorted(swept) == sorted(alone)
        assert {line.split(",")[3] for line in swept} == {"4", "5"}


# the config fields each experiment reads besides experiment, strategies,
# runs, master_seed and out, which every experiment reads
READS = {
    "coin": {"epsilon", "epsilon_sweep", "delta", "p_star"},
    "bandit": {"epsilon", "delta", "arms"},
    "dbn": {"epsilon", "delta", "bits"},
    "taxi": {"action_sets"},
    "bitflip-seq": {"epsilon", "delta", "bits", "stochastic_bits", "stochastic_success"},
}
FIELD_VALUES = dict(epsilon=0.2, epsilon_sweep=[0.1], delta=0.1, p_star=0.3, arms=[3],
                    bits=[4], stochastic_bits=[1], stochastic_success=0.5,
                    action_sets=["pickup"])
FLAGS = dict(epsilon=["--epsilon", "0.2"], epsilon_sweep=["--epsilon-sweep", "0.1"],
             delta=["--delta", "0.1"], arms=["--arms", "3"], bits=["--bits", "4"])


class TestExperimentFields:
    @pytest.mark.parametrize("experiment, field", [
        (e, f) for e in READS for f in FIELD_VALUES if f not in READS[e]])
    def test_unread_field_in_a_config_file_is_refused(self, experiment, field,
                                                       tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"experiment": experiment, "runs": 1, field: FIELD_VALUES[field]}))
        assert cli.main([experiment, "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert f"does not read {field};" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, field", [
        ([e, "--runs", "1"] + FLAGS[f], f) for e in READS for f in FLAGS if f not in READS[e]
    ] + [
        (["coin", "--bits", "4", "--runs", "2", "--epsilon", "0.2"], "bits"),
        (["taxi", "--arms", "3", "--bits", "9"], "arms"),
        (["taxi", "--delta", "0.9", "--epsilon", "0.3"], "epsilon"),
        (["bitflip-seq", "--arms", "7"], "arms"),
    ])
    def test_unread_flag_is_refused(self, argv, field, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert f"the {argv[0]} experiment does not read {field};" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("experiment, field", [
        (e, f) for e in READS for f in sorted(READS[e])])
    def test_read_field_is_accepted(self, experiment, field):
        ExperimentConfig(experiment=experiment, **{field: FIELD_VALUES[field]}).resolved()

    def test_coin_refuses_epsilon_with_a_sweep(self):
        with pytest.raises(ValueError, match="not both"):
            ExperimentConfig(experiment="coin", epsilon=0.2,
                             epsilon_sweep=[0.1, 0.05]).resolved()
        assert cli.main(["coin", "--epsilon", "0.2", "--epsilon-sweep", "0.1,0.05"]) == 2

    @pytest.mark.parametrize("bits", [5, [5], (4, 6)])
    def test_bits_resolve_to_a_list_of_ints(self, bits):
        cfg = ExperimentConfig(experiment="dbn", bits=bits).resolved()
        expected = list(bits) if isinstance(bits, (list, tuple)) else [bits]
        assert cfg.bits == expected
        assert ExperimentConfig(experiment="bitflip-seq").resolved().bits == [10]

    def test_p_star_is_coin_only(self):
        assert ExperimentConfig(experiment="coin").resolved().p_star == 0.5
        assert ExperimentConfig(experiment="bandit").resolved().p_star is None

    @pytest.mark.parametrize("argv", [
        # the call shapes of the benchmark, at small sizes
        ["coin", "--strategies", "NTD,NSTD", "--runs", "2", "--epsilon-sweep", "0.1,0.05",
         "--delta", "0.05"],
        ["bandit", "--strategies", "NTD-IND,NSTD-IND,NTD-PAR,NSTD-PAR", "--runs", "2",
         "--epsilon", repr(1 / 45), "--arms", "2", "--delta", "0.05"],
        ["dbn", "--strategies", "NTD,NSTD-PAR,NSTD-IND", "--runs", "2",
         "--epsilon", "0.3", "--bits", "2", "--delta", "0.05"],
        ["bitflip-seq", "--strategies", "NTD-PAR,NSTD-PAR,NSTD-IND", "--runs", "1",
         "--bits", "4", "--epsilon", "0.4", "--delta", "0.005"],
        ["taxi", "--strategies", "TD,STD-APPROX", "--runs", "1"],
    ])
    def test_benchmark_call_shapes_run(self, argv, tmp_path):
        out = tmp_path / "out.csv"
        assert cli.main(argv + ["--seed", "7", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) > 1

    def test_taxi_honours_runs(self):
        res = run_experiment(ExperimentConfig(experiment="taxi", runs=2,
                                              action_sets=["pickup", "movement"]))
        assert len(res.stats) == 4
        assert all(row.runs == 2 and row.std == 0.0 for row in res.stats)

    def test_taxi_enumerates_its_closure_once(self, monkeypatch):
        from teachsim import environments, mdp_teaching
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return environments.reachable_closure(*args, **kwargs)

        monkeypatch.setattr(mdp_teaching, "reachable_closure", counting)
        run_experiment(ExperimentConfig(experiment="taxi", action_sets=["pickup", "movement"]))
        assert len(calls) == 1

    @staticmethod
    def count_transitions(monkeypatch, env_class) -> list:
        reads = []
        transition = env_class.transition

        def counting(self, state, action):
            reads.append((state, action))
            return transition(self, state, action)

        monkeypatch.setattr(env_class, "transition", counting)
        return reads

    def test_taxi_reads_each_transition_once(self, monkeypatch):
        # the planner cache keeps the closure walk's transitions, so over
        # a whole run (four action sets, TD and STD-APPROX) each of the
        # 75 closure states' 52 grounded actions is read once
        from teachsim.environments import TaxiEnv
        reads = self.count_transitions(monkeypatch, TaxiEnv)
        run_experiment(ExperimentConfig(experiment="taxi"))
        assert len(reads) == len(set(reads)) == 75 * 52

    def test_bitflip_seq_reads_each_transition_once(self, monkeypatch, capsys):
        # 64 states with two actions each, read once across both trials
        from teachsim.environments import BitflipEnv
        reads = self.count_transitions(monkeypatch, BitflipEnv)
        assert cli.main(["bitflip-seq", "--bits", "6", "--runs", "2"]) == 0
        assert len(reads) == len(set(reads)) == 64 * 2


class TestCliPlanningErrors:
    def test_truncated_closure_is_an_error(self, monkeypatch, capsys):
        from teachsim import environments, mdp_teaching
        monkeypatch.setattr(mdp_teaching, "reachable_closure", lambda env: (
            environments.reachable_closure(env, max_states=8)))
        assert cli.main(["bitflip-seq", "--bits", "4", "--runs", "1"]) == 2
        captured = capsys.readouterr()
        assert "teachsim: error: reachable state count exceeded 8" in captured.err
        assert captured.out == ""

    def test_unconverged_plan_is_an_error(self, monkeypatch, capsys):
        from teachsim import mdp_teaching
        planner = mdp_teaching.expected_steps_planner
        monkeypatch.setattr(mdp_teaching, "expected_steps_planner",
                            lambda *args, **kwargs: planner(*args, **kwargs, max_iter=1))
        assert cli.main(["bitflip-seq", "--bits", "4", "--runs", "1"]) == 2
        captured = capsys.readouterr()
        assert "teachsim: error: value iteration toward" in captured.err
        assert "did not converge" in captured.err

    def test_a_tour_past_its_step_limit_is_an_error(self, monkeypatch, capsys):
        from teachsim import harness
        teach = harness.teach_in_mdp
        monkeypatch.setattr(harness, "teach_in_mdp",
                            lambda *args, **kwargs: teach(*args, **kwargs, max_steps=5))
        assert cli.main(["bitflip-seq", "--bits", "4", "--runs", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["teachsim: error: teaching exceeded 5 steps"]
        assert captured.out == ""


class TestMalformedConfig:
    @pytest.mark.parametrize("config, argv, field", [
        ({"runs": 3}, ["coin"], "experiment"),
        ({"experiment": "coin", "runs": "3"}, ["coin"], "runs"),
        ({"experiment": "coin", "epsilon_sweep": 0.1}, ["coin"], "epsilon_sweep"),
        ({"experiment": "dbn", "bits": [4, 2.5]}, ["dbn"], "bits"),
        (None, ["dbn", "--bits", "0"], "bits"),
        (None, ["dbn", "--bits", "-1"], "bits"),
        (None, ["bandit", "--arms", "-1"], "arms"),
        (None, ["bandit", "--arms", "0"], "arms"),
        (None, ["coin", "--epsilon-sweep", "1:2"],
         "--epsilon-sweep needs lo:hi:steps or a comma list, not '1:2'"),
        (None, ["coin", "--epsilon-sweep", "0.1:0.2:2.5"],
         "--epsilon-sweep needs lo:hi:steps or a comma list, not '0.1:0.2:2.5'"),
        (None, ["coin", "--epsilon-sweep", "0.1,x"],
         "--epsilon-sweep needs lo:hi:steps or a comma list, not '0.1,x'"),
        (None, ["coin", "--epsilon-sweep", "0.1:0.2:0"],
         "--epsilon-sweep needs at least one step, not '0.1:0.2:0'"),
        (None, ["dbn", "--bits", "1,a"], "--bits needs a comma list of integers, not '1,a'"),
        (None, ["bandit", "--arms", "2.5"], "--arms needs a comma list of integers, not '2.5'"),
        # a digit string is not an int
        ({"experiment": "dbn", "bits": "4"}, ["dbn"], "bits"),
        ({"experiment": "dbn", "bits": ["4", 6]}, ["dbn"], "bits"),
    ])
    def test_malformed_input_is_refused_with_the_field_named(self, config, argv, field,
                                                             tmp_path, capsys):
        if config is not None:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg_path)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("teachsim: error: ")
        assert field in captured.err
        assert captured.out == ""

    def test_stochastic_bits_are_checked_against_every_size_first(self, tmp_path, capsys,
                                                                  monkeypatch):
        from teachsim import harness
        calls = []
        monkeypatch.setattr(harness, "teach_in_mdp", lambda *a, **k: calls.append(a))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"experiment": "bitflip-seq", "bits": [10, 4], "stochastic_bits": [5],
             "runs": 10}))
        assert cli.main(["bitflip-seq", "--config", str(cfg_path)]) == 2
        assert "stochastic bits out of range for 4 bits: [5]" in capsys.readouterr().err
        assert calls == []


def readme_blocks():
    """README.md's fenced blocks, each with its info string."""
    text = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    return text.split("```")[1::2]


def readme_command_lines():
    """Every ``teachsim ...`` line in README.md's fenced blocks."""
    return [line.strip() for block in readme_blocks() for line in block.splitlines()
            if line.strip().startswith("teachsim ")]


def test_readme_python_example_runs(capsys):
    # the documented library example runs as written and prints the
    # outcome's steps and stop, then label counts that add up to the steps
    (example,) = [block[len("python"):] for block in readme_blocks()
                  if block.startswith("python\n")]
    exec(compile(example, "README.md", "exec"), {})
    first, counts = capsys.readouterr().out.splitlines()
    steps, stopped = first.split()
    assert stopped in ("True", "False")
    assert sum(ast.literal_eval(counts).values()) == int(steps) > 0


def test_readme_command_lines_parse_and_resolve():
    # the documented command lines stay valid: each parses and resolves
    # to a checked config, without running anything
    lines = readme_command_lines()
    assert lines
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        cli._config_from_args(args).resolved()
