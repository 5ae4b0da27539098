"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests

They live outside the package's tier-1 suite; the smoke test starts real
op processes and takes about a minute.
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import spans
from layers import PER_LAYER, per_layer_unit
from workloads import WORKLOADS


def test_self_times_on_synthetic_tree():
    # root [0, 10] with children A [1, 4] (grandchild [2, 3]), B [3, 6]
    # overlapping A, and C [8, 12] running past the root's end
    tree = [["mc.root", 0.0, 10.0, None, "op"],
            ["sde.a", 1.0, 4.0, 0, "op"],
            ["geometry.g", 2.0, 3.0, 1, "op"],
            ["sde.b", 3.0, 6.0, 0, "op"],
            ["coupling.c", 8.0, 12.0, 0, "op"],
            ["mc.other", 20.0, 21.0, None, "suite:x"]]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0, 1.0])
    per_layer = spans.layer_self_times(tree, selfs, "op")
    assert per_layer["mc"] == pytest.approx(3.0)
    assert per_layer["sde"] == pytest.approx(5.0)
    assert per_layer["geometry"] == pytest.approx(1.0)
    assert per_layer["coupling"] == pytest.approx(4.0)
    assert spans.unattributed(tree, "op", -5.0, 15.0) == pytest.approx(0.5)
    assert spans.ensemble_ancestor(tree) == [None] * 6


def test_covered_merges_and_clips():
    assert spans.covered([(1, 3), (2, 5), (7, 9)], 0, 8) == pytest.approx(5.0)
    assert spans.covered([], 0, 1) == 0.0


def _traced(fn):
    import omtube

    tracer = spans.Tracer()
    tracer.install(omtube)
    try:
        return fn(), tracer
    finally:
        tracer.uninstall()


def test_lane_steps_equal_paths_times_steps_without_exits():
    from omtube import coupling, geometry, sde

    n_paths = 40000  # two chunks, the second partial
    cfg = sde.IntegratorConfig(dt=0.01, T=0.1, delta=50.0, seed=3)
    res, tracer = _traced(lambda: sde.run_tube_ensemble("bm", 2, cfg, n_paths))
    (count,) = tracer.counts
    assert res.n_survive == n_paths and res.exit_times is None
    assert count["lane_steps"] == n_paths * 10
    assert count["iterations"] == 2 * 10

    chart = geometry.fermi_chart(geometry.sphere(2, 1.0), geometry.constant_curve(T=0.01),
                                 1.5)
    ccfg = sde.IntegratorConfig(dt=0.001, T=0.01, delta=1.4, seed=3)
    ens, tracer = _traced(lambda: coupling.simulate_coupled_ensemble(chart, ccfg, 500))
    (count,) = tracer.counts
    assert ens.n_survive == 500
    assert count["lane_steps"] == 500 * 10
    assert count["iterations"] == 10 - 1  # the launch step runs outside the loop


def test_lane_steps_of_exited_lanes():
    steps = spans.lane_steps_tube([0.2, float("nan"), 0.1, 0.3], 0.1, 5)
    assert steps.tolist() == [2, 5, 1, 3]
    assert spans.loop_iterations(steps, [2, 2]) == 5 + 3
    coupled = spans.lane_steps_coupled([False, True, False, False],
                                       [0.1, float("nan"), 0.3, float("nan")], 0.1, 5)
    assert coupled.tolist() == [1, 5, 3, 1]
    assert spans.loop_iterations(coupled, [4], launch=1) == 4


def test_tracing_leaves_results_unchanged():
    from omtube import sde

    cfg = sde.IntegratorConfig(dt=0.001, T=0.1, delta=0.3, bridge_correction=True, seed=5)
    plain = sde.run_tube_ensemble("bm", 2, cfg, 5000)
    traced, _ = _traced(lambda: sde.run_tube_ensemble("bm", 2, cfg, 5000))
    assert (traced.n_survive, traced.exit_times) == (plain.n_survive, None)
    assert sde.run_tube_ensemble.__name__ == "run_tube_ensemble"
    assert not hasattr(sde.run_tube_ensemble, "__wrapped__")


def test_judge_compares_ops_of_one_seed():
    ops = [{"seed": 1, "results_text": "a", "problems": []},
           {"seed": 2, "results_text": "b", "problems": []},
           {"seed": 1, "results_text": "a", "problems": []},
           {"seed": 2, "results_text": "c", "problems": []},
           {"seed": 3, "problems": ["exit code 1"]}]
    assert run.judge(ops) == 2
    assert ops[3]["problems"] and not ops[2]["problems"]


def test_tts_1pct_arithmetic():
    assert run.tts_1pct(2.0, 0.02) == pytest.approx(8.0)
    assert run.tts_1pct(3.0, 0.01) == pytest.approx(3.0)
    assert run.tts_1pct(4.0, 0.005) == pytest.approx(1.0)


def test_summary_percentile_needs_ten_samples_beyond_it():
    assert run.highest_percentile(19) is None
    assert run.highest_percentile(20) is None  # p50 is the median
    assert run.highest_percentile(100) == 90
    s = run.summarize([float(v) for v in range(1, 101)])
    assert s["n"] == 100 and s["median"] == 50.5 and "p90" in s


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert all(m["unit"] == per_layer_unit(m["name"]) for m in spec["per_layer"])


# tiny sizes: enough survivors for every estimator, seconds per op
TINY = {"ratio-s2": {"paths": 4096}, "weight-s2-rot": {"paths": 1536},
        "moment-s2": {"paths": 4096}, "ratio-warped3": {"paths": 1000, "n_nodes": 6}}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_every_workload_at_tiny_size(name):
    wl = WORKLOADS[name]
    ops, failed, metrics, report = run.run_untraced(wl, 0, 0, TINY[name])
    assert len(ops) == run.MIN_OPS and failed == 0, [r["problems"] for r in ops]
    assert [r["seed"] for r in ops] == [0, 0, 1]  # op pairs share a seed
    assert set(metrics) == set(run.END_TO_END)
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in metrics.values())
    assert report["env"]["OPENBLAS_NUM_THREADS"] == "1"

    ops, failed, metrics, report = run.run_traced(wl, 0, TINY[name])
    assert failed == 0, [r["problems"] for r in ops]
    assert list(metrics) == list(PER_LAYER)
    assert all(math.isfinite(m["value"]) for m in metrics.values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ratio-s2",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
