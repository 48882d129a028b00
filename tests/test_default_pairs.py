"""The pairing, golden comparison and summary of tools/default_pairs.py,
on hand-built runs."""

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "tools"))
import default_pairs  # noqa: E402
from teachsim.harness import EXPERIMENTS  # noqa: E402

GOLDEN = b"strategy,sweep,runs\nNTD,0.1,1000\n"


def run(wall, rss, exit_code=0):
    return {"exit_code": exit_code, "metrics": {
        "wall_s": {"value": wall, "unit": "s"},
        "max_rss_mb": {"value": rss, "unit": "MB"}}}


@pytest.fixture
def checkouts(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "src").mkdir(parents=True)
    (tmp_path / "change" / "tests" / "golden").mkdir(parents=True)
    (tmp_path / "change" / "tests" / "golden" / "coin.csv").write_bytes(GOLDEN)
    return tmp_path / "parent", tmp_path / "change"


def test_pairs_alternate_and_are_summarised(checkouts, tmp_path, monkeypatch):
    parent, change = checkouts
    results = {"parent": iter([run(2.0, 40.0), run(4.0, 42.0)]),
               "change": iter([run(1.0, 41.0), run(3.0, 41.5)])}
    calls = []

    def run_once(checkout, experiment, out):
        calls.append((checkout.name, experiment))
        out.write_bytes(GOLDEN)
        return next(results[checkout.name])

    monkeypatch.setattr(default_pairs, "run_once", run_once)
    out = tmp_path / "defaults.json"
    assert default_pairs.main(["--parent", str(parent), "--change", str(change),
                               "--experiments", "coin", "--out", str(out)]) == 0
    # the parent first at pair 0, the change first at pair 1
    assert calls == [("parent", "coin"), ("change", "coin"),
                     ("change", "coin"), ("parent", "coin")]
    report = json.loads(out.read_text())
    coin = report["experiments"]["coin"]
    assert coin["mismatched"] == []
    assert [r["golden"] for r in coin["parent"] + coin["change"]] == [True] * 4
    assert (coin["summary"]["wall_s"]["parent_median"],
            coin["summary"]["wall_s"]["change_median"]) == (3.0, 2.0)
    assert coin["summary"]["wall_s"]["pairs_change_better"] == 2
    # 40 -> 41 and 42 -> 41.5: worse in one pair, a median of 41.25 against 41
    assert coin["summary"]["max_rss_mb"]["pairs_change_better"] == 1
    assert coin["summary"]["max_rss_mb"]["change_median"] == 41.25
    assert report["command"] == "python3 -m teachsim.cli E --seed 7 --out CSV"


def test_a_csv_off_the_golden_or_a_failed_run_makes_the_script_exit_1(
        checkouts, tmp_path, monkeypatch):
    parent, change = checkouts
    runs = iter([(GOLDEN, run(1.0, 40.0)), (b"other\n", run(1.0, 40.0)),
                 (GOLDEN, run(1.0, 40.0)), (b"", run(0.5, 30.0, exit_code=2))])

    def run_once(checkout, experiment, out):
        csv, result = next(runs)
        if csv:
            out.write_bytes(csv)
        return result

    monkeypatch.setattr(default_pairs, "run_once", run_once)
    out = tmp_path / "defaults.json"
    assert default_pairs.main(["--parent", str(parent), "--change", str(change),
                               "--experiments", "coin", "--out", str(out)]) == 1
    # pair 0 ran the parent, then the change; pair 1 the change, then the
    # parent, which failed and wrote no CSV
    assert json.loads(out.read_text())["experiments"]["coin"]["mismatched"] == [
        {"side": "parent", "pair": 1, "exit_code": 2, "golden": False},
        {"side": "change", "pair": 0, "exit_code": 0, "golden": False}]


def test_the_default_runs_every_experiment(checkouts, tmp_path, monkeypatch):
    parent, change = checkouts
    ran = []

    def run_once(checkout, experiment, out):
        ran.append(experiment)
        return run(1.0, 40.0)

    monkeypatch.setattr(default_pairs, "run_once", run_once)
    out = tmp_path / "defaults.json"
    default_pairs.main(["--parent", str(parent), "--change", str(change), "--pairs", "1",
                        "--out", str(out)])
    assert default_pairs.EXPERIMENTS == EXPERIMENTS
    assert list(json.loads(out.read_text())["experiments"]) == list(EXPERIMENTS)
    assert ran == [name for name in EXPERIMENTS for _ in ("parent", "change")]


def test_a_real_run_reads_wall_time_and_max_rss(tmp_path):
    # a checkout whose teachsim.cli only writes its CSV
    cli = tmp_path / "src" / "teachsim"
    cli.mkdir(parents=True)
    (cli / "__init__.py").write_text("")
    (cli / "cli.py").write_text(
        "import sys\nopen(sys.argv[sys.argv.index('--out') + 1], 'w').write(sys.argv[1])\n")
    out = tmp_path / "out.csv"
    result = default_pairs.run_once(tmp_path, "coin", out)
    assert result["exit_code"] == 0
    assert out.read_text() == "coin"
    assert result["metrics"]["wall_s"]["value"] > 0
    assert result["metrics"]["max_rss_mb"]["value"] > 1
