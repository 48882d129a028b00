"""The summary arithmetic of tools/bench_pairs.py, on hand-built result
lines."""

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "trials_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]


def line(wall, rate, rss):
    return {"correct": True, "attempted": 10, "failed": 0, "metrics": {
        "wall_s": {"value": wall, "unit": "s"},
        "trials_per_s": {"value": rate, "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


PARENT = [line(1.0, 100.0, 40.0), line(2.0, 200.0, 40.0),
          line(3.0, 300.0, 40.0), line(4.0, 400.0, 40.0)]
CHANGE = [line(1.5, 150.0, 41.0), line(1.0, 100.0, 41.0),
          line(3.0, 500.0, 41.0), line(6.0, 300.0, 43.0)]


def test_medians_quartiles_and_relative_change():
    wall = bench_pairs.summarize(PARENT, CHANGE, METRICS)["wall_s"]
    # numpy's linear percentiles of (1, 2, 3, 4): 1.75 and 3.25; of
    # (1, 1.5, 3, 6): 1.375 and 3.75
    assert wall["parent_median"] == 2.5
    assert (wall["parent_q1"], wall["parent_q3"]) == (1.75, 3.25)
    assert wall["change_median"] == 2.25
    assert (wall["change_q1"], wall["change_q3"]) == (1.375, 3.75)
    assert wall["relative_change_of_median"] == pytest.approx(-0.1)


def test_pairs_better_follow_the_metric_direction():
    summary = bench_pairs.summarize(PARENT, CHANGE, METRICS)
    # wall_s, lower is better: only pair 1 (2.0 -> 1.0); a tie is not better
    assert summary["wall_s"]["pairs_change_better"] == 1
    # trials_per_s, higher is better: pairs 0 and 2
    assert summary["trials_per_s"]["pairs_change_better"] == 2
    assert summary["peak_rss_mb"]["pairs_change_better"] == 0


def test_the_gain_rule_needs_9_of_10_pairs_and_a_gap_past_the_quartiles():
    # parent wall_s 1.0 .. 1.9: median 1.45, quartiles 1.225 and 1.675, a
    # spread of 0.45; trials_per_s 100 .. 190, a spread of 45
    parent = [line(1.0 + 0.1 * i, 100.0 + 10 * i, 40.0) for i in range(10)]

    def rule(change):
        summary = bench_pairs.summarize(parent, change, METRICS)
        return {name: summary[name]["meets_gain_rule"] for name in summary}

    # 0.5 s faster and 50/s more in every pair: a gap of 0.5 > 0.45, 50 > 45
    faster = [line(0.5 + 0.1 * i, 150.0 + 10 * i, 40.0) for i in range(10)]
    assert rule(faster) == {"wall_s": True, "trials_per_s": True, "peak_rss_mb": False}
    # 9 of 10 pairs still meet it; 8 do not
    assert rule(faster[:9] + [line(2.0, 100.0, 40.0)])["wall_s"]
    assert not rule(faster[:8] + [line(2.0, 100.0, 40.0)] * 2)["wall_s"]
    # better in every pair by 0.4 s, less than the parent's spread
    assert not rule([line(0.6 + 0.1 * i, 100.0, 40.0) for i in range(10)])["wall_s"]
    # the same gap the wrong way is no gain, whatever the direction
    slower = [line(1.5 + 0.1 * i, 50.0 + 10 * i, 40.0) for i in range(10)]
    assert rule(slower) == {"wall_s": False, "trials_per_s": False, "peak_rss_mb": False}


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    def resolved(change):
        summary = bench_pairs.summarize(PARENT, change, METRICS)
        return {name: summary[name]["resolved"] for name in summary}

    # wall_s: the change's quartile spread, 2.375, is 0.95 of the parent
    # median 2.5, past the 0.25 bound; trials_per_s: the change's 212.5
    # (quartiles 137.5 and 350) is 0.85 of the parent median 250;
    # peak_rss_mb: the change's 0.5 MB (quartiles 41 and 41.5) is 0.0125
    # of 40, inside 0.05
    assert resolved(CHANGE) == {"wall_s": False, "trials_per_s": False,
                                "peak_rss_mb": True}
    # every change run better than every parent run resolves a wide spread
    faster = [line(0.1, 500.0, 39.0), line(0.2, 450.0, 39.0),
              line(0.3, 420.0, 39.0), line(0.9, 410.0, 39.0)]
    assert resolved(faster) == {"wall_s": True, "trials_per_s": True,
                                "peak_rss_mb": True}
    # every change run worse does not
    slower = [line(5.0, 50.0, 40.0), line(6.0, 60.0, 40.0),
              line(7.0, 70.0, 40.0), line(8.0, 80.0, 40.0)]
    assert resolved(slower) == {"wall_s": False, "trials_per_s": False,
                                "peak_rss_mb": True}


def test_only_a_median_past_its_bound_is_flagged():
    summary = bench_pairs.summarize(PARENT, CHANGE, METRICS)
    # peak_rss_mb median 40 -> 41 is +2.5%, inside its 5% bound
    assert bench_pairs.worse_than_bound(summary, METRICS) == []
    worse = [line(10.0, 10.0, 43.0) for _ in PARENT]
    summary = bench_pairs.summarize(PARENT, worse, METRICS)
    assert bench_pairs.worse_than_bound(summary, METRICS) == [
        "wall_s", "trials_per_s", "peak_rss_mb"]


def test_incorrect_runs_are_listed_by_side_pair_and_seed():
    def run(pair, correct=True, failed=0):
        return {**line(1.0, 100.0, 40.0), "pair": pair, "seed": 50 + pair,
                "correct": correct, "failed": failed}

    sides = {"parent": [run(0), run(1, failed=2)],
             "change": [run(0, correct=False, failed=1), run(1)]}
    assert bench_pairs.incorrect_runs(sides) == [
        {"side": "parent", "pair": 1, "seed": 51, "correct": True, "failed": 2},
        {"side": "change", "pair": 0, "seed": 50, "correct": False, "failed": 1}]
    assert bench_pairs.incorrect_runs({"parent": [run(0)], "change": [run(0)]}) == []


def test_an_incorrect_run_makes_the_script_exit_1(tmp_path, monkeypatch):
    # every run is timed alike, but one change run checked out wrong
    spec = {"workloads": [{"name": "w"}], "end_to_end": METRICS}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    (tmp_path / "src").mkdir()
    results = iter([line(1.0, 100.0, 40.0), line(1.0, 100.0, 40.0),
                    {**line(1.0, 100.0, 40.0), "correct": False, "failed": 3},
                    line(1.0, 100.0, 40.0)])
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: next(results))
    out = tmp_path / "bench.json"
    status = bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                               "--seeds", "7", "--pairs", "2", "--seconds", "1",
                               "--out", str(out)])
    assert status == 1
    report = json.loads(out.read_text())["workloads"]["w"]
    assert report["worse_than_bound"] == []
    assert report["incorrect_runs"] == [
        {"side": "change", "pair": 1, "seed": 8, "correct": False, "failed": 3}]


def test_a_crashed_run_is_recorded_and_the_pairs_so_far_are_written(tmp_path, monkeypatch):
    # pair 0 runs on both sides; pair 1's change run (first at an odd
    # pair) crashes, so pair 2 and the second workload never run
    spec = {"workloads": [{"name": "w"}, {"name": "v"}], "end_to_end": METRICS}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    (tmp_path / "src").mkdir()
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((workload, seed))
        if len(calls) == 3:
            raise bench_pairs.RunFailed(-11, "".join(f"line {i}\n" for i in range(30)))
        return line(1.0, 100.0, 40.0)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    status = bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                               "--seeds", "7", "--pairs", "3", "--seconds", "1",
                               "--out", str(out)])
    assert status == 1
    assert calls == [("w", 7), ("w", 7), ("w", 8)]
    report = json.loads(out.read_text())["workloads"]
    assert list(report) == ["w"]
    assert report["w"]["pairs"] == 1
    assert report["w"]["summary"]["wall_s"]["parent_median"] == 1.0
    assert report["w"]["failed_runs"] == [
        {"side": "change", "pair": 1, "seed": 8, "exit_code": -11,
         "stderr_tail": [f"line {i}" for i in range(10, 30)]}]
    assert [run["pair"] for run in report["w"]["parent"]] == [0]
    assert [run["pair"] for run in report["w"]["change"]] == [0]


def test_a_run_with_no_complete_pair_is_still_written(tmp_path, monkeypatch):
    spec = {"workloads": [{"name": "w"}], "end_to_end": METRICS}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    (tmp_path / "src").mkdir()

    def run_once(*args):
        raise bench_pairs.RunFailed(2, "")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                             "--seeds", "7", "--pairs", "2", "--out", str(out)]) == 1
    report = json.loads(out.read_text())["workloads"]["w"]
    assert (report["pairs"], report["summary"], report["worse_than_bound"]) == (0, {}, [])
    assert report["failed_runs"] == [
        {"side": "parent", "pair": 0, "seed": 7, "exit_code": 2, "stderr_tail": []}]


def test_a_call_without_a_change_checkout_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--parent", str(tmp_path), "--seeds", "7",
                          "--out", str(tmp_path / "bench.json")])
    assert exit_.value.code == 2
    assert "--change" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()


def test_both_checkouts_are_compiled_before_the_first_pair(tmp_path, monkeypatch):
    # a run never compiles src/ or perfbench/ itself, and the BENCH file
    # says so in its machine facts
    spec = {"workloads": [{"name": "w"}], "end_to_end": METRICS}
    checkouts = {}
    for side in ("parent", "change"):
        root = checkouts[side] = tmp_path / side
        (root / "src" / "pkg").mkdir(parents=True)
        (root / "perfbench").mkdir()
        (root / "src" / "pkg" / "mod.py").write_text("X = 1\n")
        (root / "perfbench" / "run.py").write_text("Y = 2\n")
        (root / "BENCHMARK.json").write_text(json.dumps(spec))
    compiled = []

    def run_once(checkout, *args):
        compiled.append(sorted(p.parent.parent.name for p in checkout.rglob("*.pyc")))
        return line(1.0, 100.0, 40.0)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(checkouts["parent"]),
                             "--change", str(checkouts["change"]), "--seeds", "7",
                             "--pairs", "1", "--out", str(out)]) == 0
    assert compiled == [["perfbench", "pkg"]] * 2
    assert json.loads(out.read_text())["machine"]["bytecode"] == bench_pairs.BYTECODE
