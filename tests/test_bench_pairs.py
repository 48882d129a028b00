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
