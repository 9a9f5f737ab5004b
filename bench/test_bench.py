"""Smoke test of the benchmark harness: one op per workload, then both kinds of run.

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import json

import pytest

import run
import tracing
import workloads


@pytest.fixture(scope="module")
def loaded():
    return run.load_program()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_op_per_workload_is_correct(loaded, name):
    program, texts = loaded
    workload = workloads.WORKLOADS[name]
    inst = workload.instances[0]
    outcome = workload.op(program, texts, inst)
    assert workload.problems(program, texts, inst, outcome, True) == []
    assert outcome.decided


def test_traced_op_is_byte_identical_and_restores_the_entry_points(loaded):
    program, texts = loaded
    inst = workloads.DISPROVES[0]  # touches every layer but the linear engine
    sites = [(getattr(program, module), attribute) for module, attribute, *_ in tracing.SITES]
    originals = [getattr(module, attribute) for module, attribute in sites]
    op_trace = tracing.OpTrace(inst.name, 0.0)
    with tracing.Tracer(program).op(op_trace):
        outcome = workloads.disprove_op(program, texts, inst)
    assert workloads.disprove_problems(program, texts, inst, outcome, False) == []
    assert [getattr(module, attribute) for module, attribute in sites] == originals
    assert op_trace.counters["parse.calls"] == 2
    assert op_trace.counters["finder.nodes"] > 0
    assert op_trace.counters["oracle.calls"] == 1
    assert sum(op_trace.self_s.values()) == pytest.approx(op_trace.seconds)


def _spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "workload, trace, group",
    [("check-paper", 0, "end_to_end"), ("saturate-oracle", 1, "per_layer")],
)
def test_short_run_prints_every_metric(capsys, workload, trace, group):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in _spec()[group]]
