"""Registry formulas pinned value by value.

``registry_points.json`` holds, for every registry problem, the objective
and each inequality and equality value as float hex strings at the
optimum hint, both box corners and 20 seeded uniform points (integer
dimensions rounded). The values were computed with one scalar callable
per objective and constraint, before the registry moved to one ``point``
function per problem. Every evaluator of a registry problem must
reproduce them bit for bit, including at points no golden run reaches.

Regenerate (only when a change of formulas is intended, and name every
changed problem in CHANGES.md):

    PYTHONPATH=src python tests/test_registry_points.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cohortopt import suite
from cohortopt.problem import evaluate, integer_index, make_rng, round_integers

PINNED = Path(__file__).with_name("registry_points.json")
UNIFORM_POINTS = 20


def points(record) -> list[np.ndarray]:
    problem = record.definition
    bounds = problem.bounds
    rng = make_rng(0)
    raw = [np.array(record.optimum_hint), bounds.lower, bounds.upper]
    raw += [bounds.lower + rng.random(problem.dimension) * bounds.width
            for _ in range(UNIFORM_POINTS)]
    # round_integers rounds in place: round copies, not the bounds themselves
    return [round_integers(np.array(x, dtype=float), integer_index(problem.kinds))
            for x in raw]


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def scalar_values(problem, x) -> dict:
    """The pinned record of ``x``: its coordinates and f, g, h from the
    scalar callables."""
    return {
        "x": _hex(x),
        "f": float(problem.objective_fn(x)).hex(),
        "g": _hex(fn(x) for fn in problem.inequality_fns),
        "h": _hex(fn(x) for fn in problem.equality_fns),
    }


def pinned() -> dict:
    # missing only while regenerating; test_every_problem_is_pinned fails then
    return json.loads(PINNED.read_text()) if PINNED.exists() else {}


def test_every_problem_is_pinned():
    data = pinned()
    assert sorted(data) == [r.suite_id for r in suite.list_problems()]
    assert {len(entries) for entries in data.values()} == {3 + UNIFORM_POINTS}


@pytest.mark.parametrize("suite_id", sorted(pinned()))
def test_registry_reproduces_pinned_values(suite_id):
    problem = suite.get_problem(suite_id)
    for k, entry in enumerate(pinned()[suite_id]):
        x = np.array([float.fromhex(v) for v in entry["x"]])
        expected = (entry["f"], entry["g"], entry["h"])
        f, g, h = problem.point_fn(x.tolist())
        assert (float(f).hex(), _hex(g), _hex(h)) == expected, f"point {k}"
        ev = evaluate(problem, x)
        assert (ev.objective.hex(), _hex(ev.constraints.g_values),
                _hex(ev.constraints.h_values)) == expected, f"point {k}"
        scalar = scalar_values(problem, x)
        assert (scalar["f"], scalar["g"], scalar["h"]) == expected, f"point {k}"


if __name__ == "__main__":
    pinned = {record.suite_id: [scalar_values(record.definition, x)
                                for x in points(record)]
              for record in suite.list_problems()}
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned {sum(map(len, pinned.values()))} points in {PINNED}")
