"""Closed-loop benchmark of the countermodel pipeline.

    python3 bench/run.py --workload check-paper --seed 1 --seconds 20 --trace 0

One client sends one op at a time, each only after the previous one
returned.  An op is one corpus instance, end to end (see workloads.py).
A run sets up, runs one unmeasured warm-up pass over the workload's
instances (which also runs the expensive correctness checks), then whole
passes in a seed-shuffled order until ``--seconds`` have gone by.  Every
op's output is checked against the expected outcome.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes, prints one row per
instance of the first traced pass, and reports the per-layer metrics; the
deterministic counters must agree between all traced passes.  The last line
of standard output is the JSON result.

Times are reported in reference seconds (see clock.py): wall time
corrected for the host's speed swings.  The raw wall-clock figures are
printed on the line before the result.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from clock import ReferenceClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"

# Set-up is timed in this many fresh interpreters; the median is reported.
SETUP_RUNS = 7
SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import countermodel
texts = [open(path, encoding="utf-8").read() for path in sys.argv[2:]]
print(time.perf_counter() - start)
"""

MAX_REPORTED_FAILURES = 10


def load_program():
    """Import the package from src/ and read the corpus texts once."""
    sys.path.insert(0, str(SRC))
    program = importlib.import_module("countermodel")
    return program, workloads.read_corpus(CORPUS)


def setup_seconds(clock: ReferenceClock) -> tuple[float, float]:
    """Median set-up time (import plus reading the corpus) of fresh interpreters.

    Returns reference and wall seconds.
    """
    paths = [str(CORPUS / name) for name in workloads.corpus_files()]
    command = [sys.executable, "-c", SETUP_PROBE, str(SRC), *paths]
    reference, wall = [], []
    for _ in range(SETUP_RUNS):
        completed, _, scale = clock.call(
            lambda: subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60
            )
        )
        wall.append(float(completed.stdout))
        reference.append(wall[-1] * scale)
    return statistics.median(reference), statistics.median(wall)


class Tally:
    """Ops attempted, failed and decided over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.decided = 0

    def record(self, name: str, outcome, problems: list[str]) -> None:
        self.attempted += 1
        if outcome is not None and outcome.decided:
            self.decided += 1
        if problems:
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"FAILED {name}: {'; '.join(problems)}", file=sys.stderr)


class Runner:
    """Runs passes of one workload and keeps the tally across them."""

    def __init__(self, program, texts, workload, seed: int):
        self.program, self.texts, self.workload = program, texts, workload
        self.rng = random.Random(seed)
        self.clock = ReferenceClock()
        self.tally = Tally()

    def run_pass(self, deep: bool = False, tracer=None):
        """Every instance once, in a shuffled order.

        Returns (reference, wall) seconds per op, or the rescaled OpTraces
        when ``tracer`` is given.
        """
        order = list(self.workload.instances)
        self.rng.shuffle(order)
        results = []
        for inst in order:
            outcome, problems = None, []
            op_trace = tracing.OpTrace(inst.name, 0.0)

            def op():
                if tracer is None:
                    return self.workload.op(self.program, self.texts, inst)
                with tracer.op(op_trace):
                    return self.workload.op(self.program, self.texts, inst)

            # Start every op from the same collector state, as a fresh process does.
            gc.collect()
            try:
                outcome, wall, scale = self.clock.call(op)
                problems = self.workload.problems(self.program, self.texts, inst, outcome, deep)
            except Exception as exc:  # an op or check that raises counts as failed
                problems = [f"{type(exc).__name__}: {exc}"]
            else:
                results.append((wall * scale, wall) if tracer is None else op_trace.rescaled(scale))
            self.tally.record(inst.name, outcome, problems)
        return results


def _summary(op_seconds: list[float]) -> dict[str, float]:
    op_ms = sorted(1e3 * s for s in op_seconds)
    return {
        "ops_per_s": len(op_ms) / (sum(op_ms) / 1e3),
        "op_ms.p50": statistics.median(op_ms),
        "op_ms.p95": statistics.quantiles(op_ms, n=20, method="inclusive")[18],
    }


def measure(runner: Runner, seconds: float) -> dict[str, float]:
    """End-to-end metrics of untraced whole passes over ``seconds``."""
    setup_s, setup_wall_s = setup_seconds(runner.clock)
    runner.run_pass(deep=True)
    first = runner.tally.attempted, runner.tally.decided
    ops: list[tuple[float, float]] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        ops.extend(runner.run_pass())
    decided = runner.tally.decided - first[1]
    metrics = {"setup_s": setup_s}
    metrics.update(_summary([reference for reference, _ in ops]))
    metrics["decided_ratio"] = decided / (runner.tally.attempted - first[0])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = _summary([w for _, w in ops])
    print(
        f"wall clock: {len(ops)} ops, setup_s {setup_wall_s:.4f}, "
        + ", ".join(f"{key} {value:.4f}" for key, value in wall.items())
    )
    return metrics


def measure_traced(runner: Runner, seconds: float) -> tuple[dict[str, float], bool]:
    """Per-layer metrics: alternate untraced and traced passes, two of each at least."""
    tracer = tracing.Tracer(runner.program)
    runner.run_pass(deep=True)
    untraced_s, traced_s, times, counters, first = [], [], [], [], None
    start = time.perf_counter()
    while len(traced_s) < 2 or time.perf_counter() - start < seconds:
        untraced_s.append(sum(reference for reference, _ in runner.run_pass()))
        traces = runner.run_pass(tracer=tracer)
        traced_s.append(sum(t.seconds for t in traces))
        times.append(tracing.pass_times(traces))
        counters.append(tracing.pass_counters(traces))
        first = first or traces
    for row in tracing.instance_rows(first):
        print(row)
    median_times = {key: statistics.median(t[key] for t in times) for key in times[0]}
    metrics = tracing.layer_metrics(counters[0], median_times)
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(untraced_s)
    repeat = all(c == counters[0] for c in counters)
    if not repeat:
        print(f"FAILED deterministic counters differ between passes: {counters}", file=sys.stderr)
    return metrics, repeat


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "countermodel").is_dir() or not CORPUS.is_dir():
        print(f"error: {ROOT} holds no src/countermodel or corpus/", file=sys.stderr)
        return 2
    program, texts = load_program()
    runner = Runner(program, texts, workloads.WORKLOADS[args.workload], args.seed)
    try:
        if args.trace:
            metrics, repeat = measure_traced(runner, args.seconds)
        else:
            metrics, repeat = measure(runner, args.seconds), True
    finally:
        runner.clock.close()
    units = _units()
    tally = runner.tally
    result = {
        "correct": tally.failed == 0 and repeat,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in (*spec["end_to_end"], *spec["per_layer"])}


if __name__ == "__main__":
    sys.exit(main())
