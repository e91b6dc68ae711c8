"""Self-tests of the benchmark. Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gatedesign import montecarlo, solver
from gatedesign.bounds import GateSetKind, Method

import oracle
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def test_oracle_clifford_group_is_a_2_design():
    gates = oracle.single_qubit_cliffords()
    assert len(gates) == 24
    assert oracle.delta_dense(gates, 2) < 1e-12


def test_estimate_delta_clifford_group_is_a_2_design():
    gates = np.array(oracle.single_qubit_cliffords())
    sample = montecarlo.GateSetSample(gates, GateSetKind.PLAIN, seed=0)
    assert montecarlo.estimate_delta(sample, 2) < 1e-6


@pytest.mark.parametrize("config", workloads.MC_CONFIGS, ids=lambda c: f"{c[4]}")
def test_oracle_agrees_with_estimate_delta(config):
    sample, delta, _ = workloads._mc_trial(config, 0)
    assert abs(delta - oracle.delta_dense(sample.unitaries, config[1])) <= 5e-10


def test_reference_holds_the_published_integers():
    cells = workloads.load_reference()["cells"]

    def row(method, d):
        return [cells[f"{d}/{t}/{method}"]["S_min"] for t in workloads.PLAIN_COLUMNS[d]]

    assert row("master-plain", 2) == [57, 62, 65, 68, 88, 136, 171]
    assert row("bernstein-plain", 2) == [69, 75, 80, 83, 107, 166, 209]
    assert row("master-plain", 64) == [168, 226, 282, 336]
    want = {workloads.cell_key(*c) for c in workloads.PLAIN_CELLS + workloads.SYMMETRIC_CELLS}
    assert set(cells) == want


def _originals():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracing.TRACED]


def test_traced_run_restores_every_original():
    before = _originals()
    with tracing.Tracer() as tracer:
        solver.min_size_search(2, 2, 0.5, 0.99, Method.MASTER_SYMMETRIC)
        tracer.op = 0
        sample = montecarlo.sample_gate_set(2, 4, GateSetKind.PLAIN, seed=(5, 0))
        montecarlo.estimate_delta(sample, 1)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)
    spans, structure, counters = tracer.summary()
    for name in ("solver.min_size_search", "bounds.total_bound", "bounds.per_label_bound",
                 "specfun.log_ive_array", "montecarlo.MomentOperator.apply"):
        assert spans[name]["calls"] > 0, name
    assert structure["probes"] == spans["bounds.total_bound"]["calls"]
    assert counters["bounds.master_symmetric_labels"] == spans["bounds.per_label_bound"]["calls"]
    for stats in spans.values():
        assert 0.0 <= stats["self_s"] <= stats["total_s"] + 1e-9


def test_tracer_restores_originals_after_an_error():
    before = _originals()
    with pytest.raises(ValueError):
        with tracing.Tracer():
            solver.min_size_search(2, 2, 2.0, 0.99, Method.MASTER_PLAIN)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)


def _benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_metric_tables_match_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
def test_printed_metrics_match_benchmark_json(trace):
    spec = _benchmark_json()
    section = spec["per_layer"] if trace else spec["end_to_end"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "mc-verify",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True, timeout=170,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
