"""Spans around the calls into each gflswing layer, recorded from outside.

``Tracer.installed()`` swaps public functions for timing wrappers through the
module attributes their callers look up at call time, and puts the
originals back on exit; nothing under ``src/`` changes. Each span keeps its
name, its parent span, its start and end clock readings and a note taken
from its arguments or result. Spans stay in memory until ``take()`` hands
them over; ``layer_metrics`` turns one op's spans into the per-layer figures.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

# pcc.solve_vpcc runs at most this many damped fixed-point iterations
# before it falls back to Newton steps.
FIXED_POINT_BUDGET = 40


def _simulate_note(args, traj) -> tuple:
    """(clearing step, steps, steps after the first trip).

    simulate snaps clearing to the nearest step, so two runs with the same
    clearing step are the same run.
    """
    scenario = args[2]
    records = traj.records
    steps = len(records) - 1
    first_trip = next((k for k, rec in enumerate(records) if True in rec.tripped), None)
    after = 0 if first_trip is None else steps - first_trip
    k_clear = None if scenario.t_clear is None else round(scenario.t_clear / scenario.dt)
    return k_clear, steps, after


def _solve_note(args, solution) -> int:
    return solution.iterations


def _units_note(args, result) -> int:
    """Fleet size of a step: its first two arguments are state and fleet."""
    return len(args[1])


def _terms_note(args, result) -> int:
    """q_components returns one generation-voltage term per unit."""
    return len(result[1])


# (module, attribute, span name, note taken from the call's arguments and
# result). Callers look these up as module globals, so each caller's module
# is patched: cli calls simulate, classify and find_cct, stability calls
# simulate and classify, and dynamics calls the pcc and network functions.
TARGETS = (
    ("gflswing.cli", "load_config", "cli.load_config", None),
    ("gflswing.cli", "cmd_simulate", "cli.cmd_simulate", None),
    ("gflswing.cli", "cmd_cct", "cli.cmd_cct", None),
    ("gflswing.cli", "simulate", "dynamics.simulate", _simulate_note),
    ("gflswing.cli", "classify", "stability.classify", None),
    ("gflswing.cli", "find_cct", "stability.find_cct", None),
    ("gflswing.stability", "simulate", "dynamics.simulate", _simulate_note),
    ("gflswing.stability", "classify", "stability.classify", None),
    ("gflswing.dynamics", "step", "dynamics.step", _units_note),
    ("gflswing.dynamics", "find_equilibrium", "dynamics.find_equilibrium", None),
    ("gflswing.dynamics", "solve_vpcc", "pcc.solve_vpcc", _solve_note),
    ("gflswing.dynamics", "q_components", "pcc.q_components", _terms_note),
    ("gflswing.dynamics", "equivalent_impedance", "network.equivalent_impedance", None),
)

# Index of each field in a span list.
NAME, PARENT, START, END, NOTE = range(5)


class Tracer:
    def __init__(self) -> None:
        self._spans: list[list] = []
        self._stack: list[int] = [-1]

    def _wrap(self, name, fn, note):
        spans, stack, clock = self._spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, stack[-1], clock(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[NOTE] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, note in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, note))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def take(self) -> list[list]:
        """The spans recorded so far; the tracer starts afresh."""
        spans = self._spans[:]
        del self._spans[:]
        return spans


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The per-layer figures of one op, named as in BENCHMARK.json.

    Self time is a span's duration less the time its direct children cover.
    A figure whose layer the op never entered reads 0.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    calls: dict[str, int] = defaultdict(int)
    ns: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    count: dict[str, int] = defaultdict(int)
    cct_clear_steps = set()
    for k, span in enumerate(spans):
        name, dur, note = span[NAME], span[END] - span[START], span[NOTE]
        calls[name] += 1
        ns[name] += dur
        self_ns[name] += dur - child_ns[k]
        parent = spans[span[PARENT]] if span[PARENT] >= 0 else None
        if name == "pcc.solve_vpcc":
            if isinstance(note, int):
                count["iterations"] += note
                count["newton_fallbacks"] += note > FIXED_POINT_BUDGET
            else:
                count["solve_failures"] += 1
            count["solves_in_step"] += parent is not None and parent[NAME] == "dynamics.step"
        elif name == "pcc.q_components" and isinstance(note, int):
            count["q_terms"] += note
        elif name == "dynamics.step" and isinstance(note, int):
            count["unit_steps"] += note
        elif name == "dynamics.simulate" and isinstance(note, tuple):
            k_clear, steps, after = note
            count["steps"] += steps
            count["steps_after_trip"] += after
            if parent is not None and parent[NAME] == "stability.find_cct":
                count["cct_simulations"] += 1
                cct_clear_steps.add(k_clear)

    def per_call(name: str, unit_ns: float) -> float:
        return ns[name] / calls[name] / unit_ns if calls[name] else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    steps = calls["dynamics.step"]
    return {
        "cli.load_config.ms": per_call("cli.load_config", 1e6),
        "cli.cmd_simulate.self_ms": ratio(self_ns["cli.cmd_simulate"], calls["cli.cmd_simulate"]) / 1e6,
        "stability.find_cct.simulations": ratio(count["cct_simulations"], calls["stability.find_cct"]),
        "stability.find_cct.distinct_ratio": ratio(len(cct_clear_steps), count["cct_simulations"]),
        "stability.steps_after_verdict_frac": ratio(count["steps_after_trip"], count["steps"]),
        "stability.classify.ms": per_call("stability.classify", 1e6),
        "dynamics.step.calls": steps,
        "dynamics.step.self_us_per_unit": ratio(self_ns["dynamics.step"], count["unit_steps"]) / 1e3,
        "dynamics.unit_steps_per_s": ratio(count["unit_steps"], ns["dynamics.simulate"] / 1e9),
        "dynamics.simulate.calls": calls["dynamics.simulate"],
        "dynamics.simulate.self_ms": ratio(self_ns["dynamics.simulate"], calls["dynamics.simulate"]) / 1e6,
        "dynamics.find_equilibrium.ms": per_call("dynamics.find_equilibrium", 1e6),
        "pcc.q_components.calls": calls["pcc.q_components"],
        "pcc.q_components.us": per_call("pcc.q_components", 1e3),
        "pcc.q_components.terms": count["q_terms"],
        "pcc.solve_vpcc.calls": calls["pcc.solve_vpcc"],
        "pcc.solve_vpcc.us": per_call("pcc.solve_vpcc", 1e3),
        "pcc.solve_vpcc.iterations": count["iterations"],
        "pcc.solve_vpcc.newton_fallbacks": count["newton_fallbacks"],
        "pcc.solve_vpcc.failures": count["solve_failures"],
        "pcc.solve_vpcc.resolves_per_step": ratio(count["solves_in_step"] - steps, steps),
        "network.equivalent_impedance.us": per_call("network.equivalent_impedance", 1e3),
    }


# Figures that count work rather than time it: they must repeat exactly.
COUNTERS = (
    "dynamics.step.calls",
    "dynamics.simulate.calls",
    "stability.find_cct.simulations",
    "stability.find_cct.distinct_ratio",
    "stability.steps_after_verdict_frac",
    "pcc.q_components.calls",
    "pcc.q_components.terms",
    "pcc.solve_vpcc.calls",
    "pcc.solve_vpcc.iterations",
    "pcc.solve_vpcc.newton_fallbacks",
    "pcc.solve_vpcc.failures",
    "pcc.solve_vpcc.resolves_per_step",
)
