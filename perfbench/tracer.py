"""External span tracer for cohortopt.

The tracer never edits the package. It rebinds public names in the module
namespace where their callers look them up (``cohortopt.cohort.evaluate``
is what the engines call, ``cohortopt.problem.round_integers`` is what
``evaluate`` and ``clip_to_bounds`` call) and wraps each problem's
callables through ``dataclasses.replace``. Spans live on an in-memory
stack; a span's self time is its duration minus the time its child spans
cover. Only per-(parent, name) aggregates are kept, because a full run
opens millions of spans.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

from cohortopt import bench, cli, cohort, collision, problem, suite

# (module, attribute looked up by the caller, span name)
PATCH_POINTS = (
    (problem, "round_integers", "problem.round_integers"),
    (cohort, "evaluate", "problem.evaluate"),
    (cohort, "clip_to_bounds", "problem.clip_to_bounds"),
    (collision, "clip_to_bounds", "problem.clip_to_bounds"),
    (cohort, "score", "penalty.score"),
    (cohort, "initialize_cohort", "cohort.initialize_cohort"),
    (cohort, "learning_attempt", "cohort.learning_attempt"),
    (cohort, "selection_probabilities", "cohort.selection_probabilities"),
    (collision, "selection_probabilities", "cohort.selection_probabilities"),
    (cohort, "roulette_select", "cohort.roulette_select"),
    (collision, "roulette_select", "cohort.roulette_select"),
    (cohort, "run_saturated", "cohort.run_saturated"),
    (collision, "run_saturated", "cohort.run_saturated"),
    (bench, "ci_sapf_run", "cohort.ci_sapf_run"),
    (collision, "assign_roles", "collision.assign_roles"),
    (collision, "collision_state", "collision.collision_state"),
    (collision, "update_positions", "collision.update_positions"),
    (bench, "ci_sapf_cbo_run", "collision.ci_sapf_cbo_run"),
    (bench, "compute_statistics", "bench.compute_statistics"),
    (cli, "emit_report", "bench.emit_report"),
)

SPAN_NAMES = tuple(dict.fromkeys(
    [name for _, _, name in PATCH_POINTS] + ["suite.fn", "cli.main"]))


class Tracer:
    """Aggregating span recorder; one instance per traced round."""

    def __init__(self):
        self._stack: list[list] = []        # [name, child_seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], list] = {}   # (parent, name) -> [calls, total_s]
        self._problems: dict[int, tuple] = {}

    def wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        calls, self_s, edges = self.calls, self.self_s, self.edges

        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - started
                stack.pop()
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    key = (parent[0], name)
                else:
                    key = ("", name)
                edge = edges.get(key)
                if edge is None:
                    edges[key] = [1, duration]
                else:
                    edge[0] += 1
                    edge[1] += duration

        return span

    def problem(self, definition):
        """The same problem with every callable wrapped as a ``suite.fn`` span."""
        known = self._problems.get(id(definition))
        if known is None:
            wrapped = dataclasses.replace(
                definition,
                objective_fn=self.wrap("suite.fn", definition.objective_fn),
                inequality_fns=tuple(self.wrap("suite.fn", fn)
                                     for fn in definition.inequality_fns),
                equality_fns=tuple(self.wrap("suite.fn", fn)
                                   for fn in definition.equality_fns))
            # holding the original too keeps its id from being reused
            known = self._problems[id(definition)] = (definition, wrapped)
        return known[1]

    @contextmanager
    def installed(self):
        """Rebind every patch point (and ``suite.get_problem``) while active."""
        originals = [(module, attr, getattr(module, attr))
                     for module, attr, _ in PATCH_POINTS]
        get_problem = suite.get_problem
        try:
            for module, attr, name in PATCH_POINTS:
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
            suite.get_problem = lambda suite_id: self.problem(get_problem(suite_id))
            yield self
        finally:
            suite.get_problem = get_problem
            for module, attr, original in originals:
                setattr(module, attr, original)

    def spans(self) -> list[dict]:
        """Aggregated call tree, for writing out when the run ends."""
        return [{"parent": parent, "name": name, "calls": count, "total_s": total}
                for (parent, name), (count, total) in sorted(self.edges.items())]


class NullTracer:
    """Stand-in for untraced rounds: every hook is the identity."""

    @staticmethod
    def wrap(name, fn):
        return fn

    @staticmethod
    def problem(definition):
        return definition

    @staticmethod
    def installed():
        return nullcontext()
