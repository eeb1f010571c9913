"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_bench.py

The traced runs take about a minute in all.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run      # noqa: E402
import tracer   # noqa: E402

WORKLOADS = run.WORKLOADS


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    """(last stdout line, full record) of one traced run."""
    done = bench("--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(run.OUT,
                           f"{workload}-seed{seed}-trace1.json")) as handle:
        return result, json.load(handle)


def declared_metrics(kind: str) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return [m["name"] for m in json.load(handle)[kind]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_results_match(workload):
    (first, record), (second, _) = traced(workload, 7), traced(workload, 7)
    # every declared per-layer metric is reported, and nothing else
    assert sorted(first["metrics"]) == sorted(declared_metrics("per_layer"))
    # traced and untraced passes give identical, correct op results
    assert first["correct"] and first["failed"] == 0
    assert record["traced_result_mismatches"] == []
    counts = {name for name, metric in first["metrics"].items()
              if metric["unit"] in ("count", "B")}
    assert "glin.solve_linear.cells" in counts and "cli.exit_2" in counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_known_defects_are_recorded():
    _, record = traced("cli_documents", 3)
    assert [p["outcome"] for p in record["probes"]] == [
        "raised IndexError", "raised TypeError", "raised TypeError",
        "raised ZeroDivisionError"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_keeps_op_mix_and_passes(workload, tmp_path):
    builds = run.load_workloads().WORKLOADS[workload]
    plans = [builds(seed, str(tmp_path)) for seed in (1, 2)]
    for r in range(2):
        assert ([op.kind for op in plans[0].round(r)]
                == [op.kind for op in plans[1].round(r)])
    for op in plans[1].round(0):
        *_, problem = run.run_op(op)
        assert problem is None, (op.kind, problem)


def test_untraced_run_reports_end_to_end_metrics():
    done = bench("--workload", "cochain_laws", "--seed", "4",
                 "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert sorted(result["metrics"]) == sorted(declared_metrics("end_to_end"))
    assert result["correct"] and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    run.load_workloads()
    from dgnerve import dgcat, horn, nerve
    witness, opp = dgcat.find_equivalence_witness, dgcat.opposite
    compose = dgcat.DgCategory.__dict__["compose"]
    with tracer.Tracer():
        assert nerve.find_equivalence_witness is horn.find_equivalence_witness
        assert nerve.find_equivalence_witness is not witness
        assert horn.opposite is dgcat.opposite is not opp
        assert dgcat.DgCategory.__dict__["compose"] is not compose
    assert nerve.find_equivalence_witness is witness
    assert horn.find_equivalence_witness is witness
    assert horn.opposite is opp
    assert dgcat.DgCategory.__dict__["compose"] is compose


def test_speed_gauge_scales_by_the_readings_in_and_around_an_interval():
    with run.SpeedGauge() as gauge:
        pass
    assert len(gauge.readings) == 2 and min(gauge.readings) > 0
    nominal = run.REFERENCE_NOMINAL_S
    gauge.starts, gauge.ends = [0.0, 1.0, 2.0], [0.1, 1.2, 2.1]
    gauge.readings = [0.002, 0.006, 0.004]
    # inside (0.5, 1.5): the 0.2 s reading at 1.0 is taken out, and the
    # readings at 0.0 (before), 1.0 (inside) and 2.0 (after) scale the rest
    assert gauge.scaled(0.5, 1.5) == pytest.approx(0.8 * nominal / 0.004)
    # nothing inside: scaled by the readings either side
    assert gauge.scaled(1.3, 1.4) == pytest.approx(0.1 * nominal / 0.005)
    assert gauge.scaled(2.5, 3.0) == pytest.approx(0.5 * nominal / 0.004)


def test_tail_percentile():
    assert run.tail([1.0] * 5 + [2.0] * 5) == (1.5, 50.0)
    latencies = [float(i) for i in range(100)]
    assert run.tail(latencies) == (89.0, 90.0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "axioms", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert "{" not in done.stdout
