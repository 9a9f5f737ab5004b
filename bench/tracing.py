"""Per-layer tracing from outside the program.

``Tracer.op()`` replaces the public entry points of each layer where their
callers look them up (``countermodel.checker.solve`` is the ``solve`` the
checker calls) with wrappers that record a span per call: layer, site,
start, end and the parent span.  Spans stay in memory.  When the op ends,
the originals are restored and the spans are folded into per-layer self
time (a span's duration minus its children's) and per-site inclusive time.
Counters are read off arguments and results at the same boundaries.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("parse", "compile", "finder", "checker", "linear", "oracle", "certificates")


def _count_theory(add, args, result):
    add("compile.clauses", len(result.clauses))


def _count_obligations(add, args, result):
    add("compile.obligations", len(result))


def _count_find(add, args, result):
    add("finder.nodes", result.nodes)


def _count_candidate(add, args, result):
    add("finder.candidates_verified")
    add("finder.found", result.overall == "verified")


def _count_check(add, args, result):
    add("checker.checks")
    add("checker.unknown", result.status == "unknown")


def _count_solve(add, args, result):
    add("linear.solves")
    add("linear.input_constraints", len(args[0].constraints))
    add("linear.infeasible", result.status == "infeasible")
    add("linear.unknown", result.status == "unknown")


def _count_saturate(add, args, result):
    add("oracle.calls")
    add("oracle.atoms", len(result))


def _count_certificate(add, args, result):
    add("certificates.bytes", len(result.encode("utf-8")))


def _count_parse(add, args, result):
    add("parse.calls")


# (module under ``countermodel``, attribute, layer, counter)
SITES = (
    ("trs_format", "parse_ctrs_document", "parse", _count_parse),
    ("query_format", "parse_query", "parse", _count_parse),
    ("model_format", "parse_model", "parse", _count_parse),
    ("pipeline", "theory_for_query", "compile", _count_theory),
    ("pipeline", "negate_to_obligations", "compile", _count_obligations),
    ("queries", "negate_to_obligations", "compile", _count_obligations),
    ("pipeline", "required_predicates", "compile", None),
    ("pipeline", "find_model", "finder", _count_find),
    ("pipeline", "find_symbolic_model", "finder", _count_find),
    ("finder", "verify", "checker", _count_candidate),
    ("checker", "verify", "checker", None),
    ("checker", "closure_check", "checker", None),
    ("checker", "check_clause", "checker", _count_check),
    ("checker", "check_obligation", "checker", _count_check),
    ("pipeline", "eval_atom", "checker", None),
    ("checker", "integer_tighten", "linear", None),
    ("checker", "solve", "linear", _count_solve),
    ("structures", "integer_tighten", "linear", None),
    ("structures", "solve", "linear", _count_solve),
    ("pipeline", "oracle_cross_check", "oracle", None),
    ("pipeline", "saturate", "oracle", _count_saturate),
    ("oracle", "saturate", "oracle", _count_saturate),
    ("certificates", "serialize_certificate", "certificates", _count_certificate),
)

_SATURATE_SITES = ("pipeline.saturate", "oracle.saturate")


@dataclass
class OpTrace:
    """One op's spans, folded: self time per layer, inclusive time per site."""

    name: str
    seconds: float
    self_s: dict[str, float] = field(default_factory=dict)
    site_s: dict[str, float] = field(default_factory=dict)
    counters: Counter = field(default_factory=Counter)

    def rescaled(self, factor: float) -> "OpTrace":
        """The same trace with every time multiplied by ``factor``."""
        self.seconds *= factor
        self.self_s = {key: value * factor for key, value in self.self_s.items()}
        self.site_s = {key: value * factor for key, value in self.site_s.items()}
        return self


class Tracer:
    def __init__(self, program):
        self._program = program
        self._spans: list[tuple[int, str, str, float, float]] = []
        self._stack: list[int] = []
        self._counters: Counter = Counter()

    def _wrap(self, function, layer: str, site: str, count):
        spans, stack = self._spans, self._stack

        def add(key: str, amount: int = 1) -> None:
            self._counters[key] += amount

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (parent, layer, site, start, end)
            if count is not None:
                count(add, args, result)
            return result

        return wrapper

    @contextmanager
    def op(self, trace: OpTrace):
        """Trace one op as the root span; ``trace`` is filled in on exit."""
        self._spans[:] = [None]
        self._stack[:] = [0]
        self._counters = trace.counters
        modules = [getattr(self._program, site[0]) for site in SITES]
        originals = [getattr(module, site[1]) for module, site in zip(modules, SITES)]
        try:
            for module, original, (module_name, attribute, layer, count) in zip(
                modules, originals, SITES
            ):
                wrapper = self._wrap(original, layer, f"{module_name}.{attribute}", count)
                setattr(module, attribute, wrapper)
            start = time.perf_counter()
            try:
                yield
            finally:
                end = time.perf_counter()
                self._spans[0] = (-1, "op", "op", start, end)
        finally:
            for module, original, site in zip(modules, originals, SITES):
                setattr(module, site[1], original)
        trace.seconds = end - start
        self._fold(trace)

    def _fold(self, trace: OpTrace) -> None:
        children = defaultdict(float)
        for parent, _layer, _site, start, end in self._spans:
            if parent >= 0:
                children[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        site_s: dict[str, float] = defaultdict(float)
        for index, (_parent, layer, site, start, end) in enumerate(self._spans):
            self_s[layer] += end - start - children[index]
            site_s[site] += end - start
        trace.self_s = dict(self_s)
        trace.site_s = dict(site_s)


DETERMINISTIC = (
    "parse.calls",
    "compile.clauses",
    "compile.obligations",
    "checker.checks",
    "checker.unknown",
    "linear.solves",
    "linear.input_constraints",
    "linear.infeasible",
    "linear.unknown",
    "finder.nodes",
    "finder.candidates_verified",
    "finder.found",
    "oracle.calls",
    "oracle.atoms",
    "certificates.bytes",
)


def pass_counters(traces: list[OpTrace]) -> dict[str, int]:
    total: Counter = Counter()
    for trace in traces:
        total.update(trace.counters)
    return {key: int(total[key]) for key in DETERMINISTIC}


def pass_times(traces: list[OpTrace]) -> dict[str, float]:
    """Seconds per layer (self time) plus the two inclusive site times used."""
    times = {f"{layer}.s": sum(t.self_s.get(layer, 0.0) for t in traces) for layer in LAYERS}
    times["checker.closure_s"] = sum(t.site_s.get("checker.closure_check", 0.0) for t in traces)
    times["oracle.saturate_s"] = sum(
        t.site_s.get(site, 0.0) for t in traces for site in _SATURATE_SITES
    )
    return times


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(counters: dict[str, int], times: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one pass, in BENCHMARK.json's order."""
    return {
        "parse.s": times["parse.s"],
        "parse.calls": counters["parse.calls"],
        "compile.s": times["compile.s"],
        "compile.clauses": counters["compile.clauses"],
        "compile.obligations": counters["compile.obligations"],
        "checker.s": times["checker.s"],
        "checker.checks": counters["checker.checks"],
        "checker.us_per_check": 1e6 * _ratio(times["checker.s"], counters["checker.checks"]),
        "checker.closure_s": times["checker.closure_s"],
        "checker.unknown": counters["checker.unknown"],
        "linear.solves": counters["linear.solves"],
        "linear.s": times["linear.s"],
        "linear.us_per_solve": 1e6 * _ratio(times["linear.s"], counters["linear.solves"]),
        "linear.input_constraints": counters["linear.input_constraints"],
        "linear.infeasible": counters["linear.infeasible"],
        "linear.unknown": counters["linear.unknown"],
        "finder.s": times["finder.s"],
        "finder.nodes": counters["finder.nodes"],
        "finder.nodes_per_s": _ratio(counters["finder.nodes"], times["finder.s"]),
        "finder.candidates_verified": counters["finder.candidates_verified"],
        "finder.found_ratio": _ratio(
            counters["finder.found"], counters["finder.candidates_verified"]
        ),
        "oracle.s": times["oracle.s"],
        "oracle.calls": counters["oracle.calls"],
        "oracle.atoms": counters["oracle.atoms"],
        "oracle.atoms_per_s": _ratio(counters["oracle.atoms"], times["oracle.saturate_s"]),
        "certificates.s": times["certificates.s"],
        "certificates.bytes": counters["certificates.bytes"],
    }


def instance_rows(traces: list[OpTrace]) -> list[str]:
    """One line per op: self milliseconds per layer and the main counters."""
    header = (
        f"{'instance':<26}{'op_ms':>9}"
        + "".join(f"{layer[:8]:>9}" for layer in (*LAYERS, "other"))
        + f"{'nodes':>9}{'solves':>8}{'atoms':>7}{'bytes':>8}"
    )
    rows = [header]
    for t in sorted(traces, key=lambda t: t.name):
        layers = "".join(f"{1e3 * t.self_s.get(layer, 0.0):9.2f}" for layer in (*LAYERS, "op"))
        rows.append(
            f"{t.name:<26}{1e3 * t.seconds:9.2f}{layers}"
            f"{t.counters['finder.nodes']:9d}{t.counters['linear.solves']:8d}"
            f"{t.counters['oracle.atoms']:7d}{t.counters['certificates.bytes']:8d}"
        )
    return rows
