import numpy as np
import pytest

from cohortopt import Bounds, ProblemDefinition, VarKind


def make_problem(dim=2, lower=-5.0, upper=5.0, kinds=None, inequality=(),
                 equality=(), objective=None, pid="toy"):
    kinds = kinds or (VarKind.CONTINUOUS,) * dim
    objective = objective or (lambda x: float(np.sum(x ** 2)))
    return ProblemDefinition(
        id=pid, name=pid, dimension=dim,
        bounds=Bounds(np.full(dim, float(lower)), np.full(dim, float(upper))),
        kinds=tuple(kinds), objective_fn=objective,
        inequality_fns=tuple(inequality), equality_fns=tuple(equality))


@pytest.fixture
def sphere_problem():
    return make_problem(dim=3)


@pytest.fixture
def floor_problem():
    """1-D minimize x^2 subject to x >= 1; optimum f = 1 at x = 1."""
    return make_problem(dim=1, inequality=(lambda x: 1.0 - x[0],), pid="floor")

