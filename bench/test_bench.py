"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_UNITS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_UNITS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                 "--trace", "0", "--size", "tiny")
    out = result_of(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
        assert f"{m['name']} = " in proc.stdout
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert "failed_frac = 0.0" in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    out = result_of(bench("--workload", workload, "--seed", "5", "--seconds",
                          "0.2", "--trace", "1", "--size", "tiny"))
    assert out["correct"]
    assert {n: v["unit"] for n, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    layer = {n: v["value"] for n, v in out["metrics"].items()}
    engine_layers = ("engine.us_per_step", "engine.node_steps",
                     "learner.update_node.calls", "plant.x_d.calls",
                     "plant.us_per_step", "engine.monitor_L.us_per_node",
                     "engine.run.fixed_s")
    nonzero = {
        "cli-pinned": engine_layers + (
            "engine.write_trace_csv.us_per_row", "engine.write_trace_csv.bytes",
            "engine.write_summary_csv.s", "cli.parse_config.s",
            "svgplot.line_plot.s"),
        "sweep": engine_layers + ("engine.check_delta_L.s",
                                  "analysis.convergence_metrics.s"),
        "catalog": ("barrier.blf_eval.ns_per_sample",
                    "barrier.blf_d1.ns_per_sample",
                    "barrier.blf_d2.ns_per_sample", "barrier.verify_order.s",
                    "barrier.ibp_probe.s", "barrier.calls",
                    "barrier.computed.ops_per_byte",
                    "analysis.lemma.us_per_element", "analysis.blf_report.s"),
    }[workload]
    assert [n for n in nonzero if not layer[n] > 0] == []
    assert layer["engine.nonfinite"] == 0


def test_corrupted_pinned_trace_counts_as_failed(tmp_path):
    ops = workloads.build("cli-pinned", workloads.DEFAULT_SEED, "tiny",
                          tmp_path)
    good = run.Runner(ops)
    good.one_pass()
    assert (good.attempted, good.failed) == (len(ops), 0), good.problems

    op = ops[0]
    trace_csv = tmp_path / op.key.split("/")[1] / "trace.csv"
    original = op.run

    def run_then_corrupt():
        code = original()
        data = bytearray(trace_csv.read_bytes())
        data[-10] ^= 1  # one flipped bit in the last row
        trace_csv.write_bytes(bytes(data))
        return code

    op.run = run_then_corrupt
    bad = run.Runner(ops)
    bad.one_pass()
    assert bad.attempted == len(ops) and bad.failed == 1
    assert any("differs from reference" in p for p in bad.problems)


def test_wrong_exit_code_counts_as_failed(tmp_path):
    op = workloads.build("cli-pinned", 1, "tiny", tmp_path)[0]
    assert op.check(2)[1]


def test_sweep_inputs_follow_the_seed():
    a = workloads.sweep_scenarios(7, "full")
    assert a == workloads.sweep_scenarios(7, "full")
    assert a != workloads.sweep_scenarios(8, "full")
    assert {(s.model, s.mode, s.theorem) for s in a} == {
        (m, mode, thm) for m in ("scalar-I", "scalar-II")
        for mode, thm in (("disc", 1), ("disc", 2), ("cont", 1), ("cont", 2))}


def test_breach_in_the_first_interval_is_not_a_failure():
    # a bound this tight breaches before node 1 in every iteration, so
    # every sup_V and the theorem-2 limsup are NaN: an expected outcome
    sc = workloads.Scenario("scalar-II", "disc", 2, N=10, K=8, bound=0.02,
                            gamma=2.0, theta_bar=1.0, eps=0.01)
    op = workloads.sweep_op(sc, {}, required=False)
    out = op.run()
    result, _, metrics = out
    assert all(tr.breach_node == 0 for tr in result.traces)
    assert math.isnan(metrics.limsup_supV)
    assert op.check(out)[1] == []


def test_missing_sweep_reference_fails_only_at_the_default_seed():
    sc = workloads.sweep_scenarios(workloads.DEFAULT_SEED, "tiny")[0]
    out = workloads.sweep_op(sc, {}, required=False).run()
    assert workloads.sweep_op(sc, {}, required=True).check(out)[1]
    assert workloads.sweep_op(sc, {}, required=False).check(out)[1] == []


def test_empty_tracer_reports_zero():
    metrics = Tracer().layer_metrics(1)
    assert set(metrics) == set(LAYER_UNITS) - {"tracing_overhead"}
    assert all(v == 0 for v in metrics.values())


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    values = [float(i) for i in range(100)]
    assert run.tail(values) == (89.0, 90.0)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
