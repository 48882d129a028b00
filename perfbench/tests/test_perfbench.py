"""Tests for the benchmark's own arithmetic and checks."""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from teachsim.core import TeachingCollection  # noqa: E402
from teachsim.teachers import TeachingOutcome  # noqa: E402


# -- self time


def test_self_time_nested_children():
    # root [0,10] > a [1,6] > b [2,4]: a's grandchild is inside a, so the
    # root loses only a's 5 seconds
    starts, ends, parents = [0.0, 1.0, 2.0], [10.0, 6.0, 4.0], [-1, 0, 1]
    assert spans.self_times(starts, ends, parents) == pytest.approx([5.0, 3.0, 2.0])


def test_self_time_adjacent_and_overlapping_children():
    # children [1,3], [3,5] (adjacent) and [4,6] (overlapping): covered
    # union is [1,6], 5 seconds of the parent's 10
    starts = [0.0, 1.0, 3.0, 4.0]
    ends = [10.0, 3.0, 5.0, 6.0]
    parents = [-1, 0, 0, 0]
    assert spans.self_times(starts, ends, parents) == pytest.approx([5.0, 2.0, 2.0, 2.0])


def test_self_times_sum_to_root_duration():
    starts = [0.0, 0.5, 0.6, 2.0, 2.5]
    ends = [4.0, 1.5, 1.0, 3.0, 2.7]
    parents = [-1, 0, 1, 0, 3]
    assert sum(spans.self_times(starts, ends, parents)) == pytest.approx(4.0)


# -- percentile rule


def test_tail_percentile_needs_ten_samples_beyond():
    xs = list(range(1, 101))  # 100 samples
    assert spans.tail_percentile(xs) == (90.0, 90, 100)  # 10 beyond p90, 1 beyond p99
    xs = list(range(1, 1001))
    assert spans.tail_percentile(xs) == (99.0, 990, 1000)
    xs = list(range(1, 20))  # 19 samples: even p50 has only 9 beyond
    assert spans.tail_percentile(xs) == (None, None, 19)
    xs = list(range(1, 21))
    assert spans.tail_percentile(xs) == (50.0, 10, 20)


def test_nearest_rank_median():
    assert spans.nearest_rank([3, 1, 2], 50.0) == 2
    assert spans.nearest_rank([4, 1, 3, 2], 50.0) == 2


# -- used_frac


def test_used_frac_on_hand_built_outcomes():
    # a coin that stopped after 7 of its 40 drawn flips
    coin = TeachingOutcome(TeachingCollection.from_counts({("coin", 1): 4, ("coin", 0): 3}),
                           steps=7, samples=7, stopped_early=True)
    assert spans.delivered_uniforms(coin.collection) == 7
    assert spans.used_frac(spans.delivered_uniforms(coin.collection), 40) == pytest.approx(0.175)
    # a DBN probe outcome is a next-state tuple: one uniform per factor
    dbn = TeachingCollection()
    dbn.add((1, 0, 1), (0, 1, 1), 5)
    dbn.add((1, 0, 1), (0, 0, 1), 2)
    assert spans.delivered_uniforms(dbn) == 21
    assert spans.used_frac(21, 21) == 1.0
    assert spans.used_frac(0, 0) == 0.0


# -- tracer


def test_tracer_restores_every_attribute():
    import teachsim
    import teachsim.core as core
    import teachsim.harness as harness

    originals = (harness.derive_stream, core.derive_stream, core.RandomSource.__init__,
                 core.RandomSource.random_block, teachsim.run_experiment)
    tracer = spans.Tracer(teachsim)
    with tracer:
        assert harness.derive_stream is not originals[0]
        assert harness.derive_stream is core.derive_stream
        with tracer.pass_span():
            rng = core.RandomSource(1, core.derive_stream("x"))
            assert rng.random_block(5).shape == (5,)
    assert (harness.derive_stream, core.derive_stream, core.RandomSource.__init__,
            core.RandomSource.random_block, teachsim.run_experiment) == originals
    assert tracer.count("core.stream") == 2
    assert tracer.uniforms == 5
    selfs = tracer.family_self_times()
    assert sum(selfs.values()) == pytest.approx(tracer.end[0] - tracer.start[0])


# -- output checks


def _coin_call(runs=3):
    return checks.Call("coin", ("NTD", "NSTD"), ("0.1",), runs,
                       ("--epsilon-sweep", "0.1", "--delta", "0.05"))


def test_invariants_accept_a_valid_csv_and_catch_a_moved_budget():
    call = _coin_call()
    budget = checks.hoeffding(0.1, 0.05)
    assert budget == 185
    good = (checks.HEADER + "\n"
            f"coin,NSTD,epsilon,0.1,3,9.0,2.0,1.0,7.0,11.0\n"
            f"coin,NTD,epsilon,0.1,3,{budget}.0,0.0,0.0,{budget}.0,{budget}.0\n")
    assert checks.check_invariants(call, good) == {}
    bad = good.replace(f"coin,NTD,epsilon,0.1,3,{budget}.0,0.0",
                       f"coin,NTD,epsilon,0.1,3,{budget + 1}.0,0.0")
    assert set(checks.check_invariants(call, bad)) == {("NTD", "0.1")}
    capped = good.replace("coin,NSTD,epsilon,0.1,3,9.0,2.0,1.0,7.0,11.0",
                          "coin,NSTD,epsilon,0.1,3,185.0,0.0,0.0,185.0,185.0")
    assert set(checks.check_invariants(call, capped)) == {("NSTD", "0.1")}
    missing = "\n".join(good.split("\n")[:2]) + "\n"
    assert checks.check_invariants(call, missing) == {("NTD", "0.1"): "missing"}
    assert set(checks.check_invariants(_coin_call(runs=4), good)) == {
        ("NTD", "0.1"), ("NSTD", "0.1")}


def test_compare_cells_and_totals():
    call = _coin_call()
    ref = (checks.HEADER + "\n"
           "coin,NSTD,epsilon,0.1,3,9.0,2.0,1.0,7.0,11.0\n"
           "coin,NTD,epsilon,0.1,3,185.0,0.0,0.0,185.0,185.0\n")
    assert checks.compare_cells(call, ref, ref) == {}
    moved = ref.replace("9.0,2.0", "9.5,2.0")
    assert checks.compare_cells(call, moved, ref) == {("NSTD", "0.1"): "differs"}
    assert checks.sim_totals(ref) == (6, 27 + 555)


def test_reference_csvs_pass_their_invariants():
    for workload, calls in run.WORKLOADS.items():
        for call, text in zip(calls, run.reference_texts(workload, calls)):
            assert text is not None, workload
            assert checks.check_invariants(call, text) == {}, (workload, call.experiment)


# -- the benchmark definition


def test_benchmark_json_matches_the_metrics_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
