"""Benchmark problem registry.

Classic constrained engineering and process design problems in their
standard published formulations. Each definition states its catalog
metadata (id, name, category, best known value; dimension and constraint
counts follow from it). Formulation provenance is noted per entry.
``optimum_hint`` is a strictly feasible point at or near the
formulation's optimum used by self-checks; ``reference_objective`` is the
objective value this formulation attains there (it equals ``best_known``
except where noted).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .problem import Bounds, Category, ProblemDefinition, VarKind

C = VarKind.CONTINUOUS
I = VarKind.INTEGER


class UnknownProblemError(KeyError):
    """Requested suite id is not registered."""

    def __init__(self, suite_id: str, available):
        self.suite_id = suite_id
        self.available = list(available)
        super().__init__(
            f"unknown problem {suite_id!r}; available: {', '.join(self.available)}")


@dataclass(frozen=True)
class ProblemRecord:
    """A registered problem: its definition plus the self-check point.

    ``reference_objective`` defaults to the definition's ``best_known``.
    """

    definition: ProblemDefinition
    optimum_hint: tuple[float, ...]
    reference_objective: Optional[float] = None

    def __post_init__(self):
        if self.reference_objective is None:
            object.__setattr__(self, "reference_objective",
                               self.definition.best_known)

    @property
    def suite_id(self) -> str:
        return self.definition.id

    def metadata(self) -> dict:
        d = self.definition
        return {
            "id": d.id,
            "name": d.name,
            "category": d.category.value,
            "dimension": d.dimension,
            "inequality_count": len(d.inequality_fns),
            "equality_count": len(d.equality_fns),
            "best_known": d.best_known,
            "bounds": {
                "lower": d.bounds.lower.tolist(),
                "upper": d.bounds.upper.tolist(),
            },
        }


# --------------------------------------------------------------------------
# Process synthesis and design
# --------------------------------------------------------------------------

def _rc08() -> ProblemRecord:
    # Classic two-variable process synthesis MINLP (Kocis & Grossmann).
    # x2 is a binary selection variable; the reduced-cost optimum sits on
    # the quadratic constraint boundary at (0.5, 1).
    definition = ProblemDefinition(
        id="RC08", name="Process synthesis problem", dimension=2,
        bounds=Bounds(np.array([0.0, 0.0]), np.array([1.6, 1.0])),
        kinds=(C, I),
        objective_fn=lambda x: 2.0 * x[0] + x[1],
        inequality_fns=(
            lambda x: 1.25 - x[0] ** 2 - x[1],
            lambda x: x[0] + x[1] - 1.6,
        ),
        category=Category.PROCESS_SYNTHESIS, best_known=2.0)
    return ProblemRecord(definition, optimum_hint=(0.5, 1.0))


def _rc10() -> ProblemRecord:
    # Process flow sheeting MINLP (Floudas); one binary, two continuous.
    definition = ProblemDefinition(
        id="RC10", name="Process flow sheeting problem", dimension=3,
        bounds=Bounds(np.array([0.2, -2.22554, 0.0]), np.array([1.0, -1.0, 1.0])),
        kinds=(C, C, I),
        objective_fn=lambda x: -0.7 * x[2] + 5.0 * (x[0] - 0.5) ** 2 + 0.8,
        inequality_fns=(
            lambda x: -math.exp(x[0] - 0.2) - x[1],
            lambda x: x[1] + 1.1 * x[2] + 1.0,
            lambda x: x[0] - x[2] - 0.2,
        ),
        category=Category.PROCESS_SYNTHESIS, best_known=1.0765430833)
    return ProblemRecord(definition, optimum_hint=(0.9419373448, -2.1, 1.0))


# --------------------------------------------------------------------------
# Mechanical design
# --------------------------------------------------------------------------

def _rc15() -> ProblemRecord:
    # Golinski speed reducer, 11-constraint form (Arora); tooth count x3
    # is integral. The widely used optimum is x = (3.5, 0.7, 17, 7.3,
    # 7.7153, 3.3502, 5.2867).
    def objective(x):
        x1, x2, x3, x4, x5, x6, x7 = x
        return (0.7854 * x1 * x2 ** 2 * (3.3333 * x3 ** 2 + 14.9334 * x3 - 43.0934)
                - 1.508 * x1 * (x6 ** 2 + x7 ** 2)
                + 7.4777 * (x6 ** 3 + x7 ** 3)
                + 0.7854 * (x4 * x6 ** 2 + x5 * x7 ** 2))

    definition = ProblemDefinition(
        id="RC15", name="Weight Minimization of a Speed Reducer", dimension=7,
        bounds=Bounds(np.array([2.6, 0.7, 17.0, 7.3, 7.3, 2.9, 5.0]),
                      np.array([3.6, 0.8, 28.0, 8.3, 8.3, 3.9, 5.5])),
        kinds=(C, C, I, C, C, C, C),
        objective_fn=objective,
        inequality_fns=(
            lambda x: 27.0 / (x[0] * x[1] ** 2 * x[2]) - 1.0,
            lambda x: 397.5 / (x[0] * x[1] ** 2 * x[2] ** 2) - 1.0,
            lambda x: 1.93 * x[3] ** 3 / (x[1] * x[2] * x[5] ** 4) - 1.0,
            lambda x: 1.93 * x[4] ** 3 / (x[1] * x[2] * x[6] ** 4) - 1.0,
            lambda x: math.sqrt((745.0 * x[3] / (x[1] * x[2])) ** 2 + 16.9e6)
                      / (110.0 * x[5] ** 3) - 1.0,
            lambda x: math.sqrt((745.0 * x[4] / (x[1] * x[2])) ** 2 + 157.5e6)
                      / (85.0 * x[6] ** 3) - 1.0,
            lambda x: x[1] * x[2] / 40.0 - 1.0,
            lambda x: 5.0 * x[1] / x[0] - 1.0,
            lambda x: x[0] / (12.0 * x[1]) - 1.0,
            lambda x: (1.5 * x[5] + 1.9) / x[3] - 1.0,
            lambda x: (1.1 * x[6] + 1.9) / x[4] - 1.0,
        ),
        category=Category.MECHANICAL, best_known=2994.4244658)
    return ProblemRecord(definition,
                         optimum_hint=(3.50000015, 0.7, 17.0, 7.3, 7.7153201,
                                       3.35021475, 5.2866546),
                         reference_objective=2994.4710662)


def _rc17() -> ProblemRecord:
    # Tension/compression spring (Arora). The catalog lists the three
    # governing constraints (deflection, shear stress, surge frequency);
    # the optimum matches the four-constraint classic because the
    # outer-diameter limit is slack at and around it (checked numerically).
    def g2(x):
        denom = 12566.0 * (x[1] * x[0] ** 3 - x[0] ** 4)
        if denom == 0.0:
            return math.inf
        return ((4.0 * x[1] ** 2 - x[0] * x[1]) / denom
                + 1.0 / (5108.0 * x[0] ** 2) - 1.0)

    definition = ProblemDefinition(
        id="RC17", name="Tension/compression spring design (case 1)", dimension=3,
        bounds=Bounds(np.array([0.05, 0.25, 2.0]), np.array([2.0, 1.3, 15.0])),
        kinds=(C, C, C),
        objective_fn=lambda x: x[0] ** 2 * x[1] * (x[2] + 2.0),
        inequality_fns=(
            lambda x: 1.0 - x[1] ** 3 * x[2] / (71785.0 * x[0] ** 4),
            g2,
            lambda x: 1.0 - 140.45 * x[0] / (x[1] ** 2 * x[2]),
        ),
        category=Category.MECHANICAL, best_known=0.012665232788)
    return ProblemRecord(definition, optimum_hint=(0.0516891, 0.356718, 11.2891))


def _rc18() -> ProblemRecord:
    # Pressure vessel (Sandgren), continuous-thickness variant whose
    # optimum is 5885.33 at shell radius about 40.32 and length 200.
    definition = ProblemDefinition(
        id="RC18", name="Pressure vessel design", dimension=4,
        bounds=Bounds(np.array([0.0, 0.0, 10.0, 10.0]),
                      np.array([6.1875, 6.1875, 200.0, 200.0])),
        kinds=(C, C, C, C),
        objective_fn=lambda x: (0.6224 * x[0] * x[2] * x[3]
                                + 1.7781 * x[1] * x[2] ** 2
                                + 3.1661 * x[0] ** 2 * x[3]
                                + 19.84 * x[0] ** 2 * x[2]),
        inequality_fns=(
            lambda x: -x[0] + 0.0193 * x[2],
            lambda x: -x[1] + 0.00954 * x[2],
            lambda x: (-math.pi * x[2] ** 2 * x[3]
                       - (4.0 / 3.0) * math.pi * x[2] ** 3 + 1296000.0),
            lambda x: x[3] - 240.0,
        ),
        category=Category.MECHANICAL, best_known=5885.3327736)
    return ProblemRecord(definition,
                         optimum_hint=(0.77817, 0.38465, 40.3196402, 200.0))


def _rc19() -> ProblemRecord:
    # Welded beam (Ragsdell & Phillips as standardized by Deb/Coello).
    # The catalog's best-known 1.67022 is below this classical
    # formulation's true optimum 1.724852; the registry implements the
    # classical formulation and self-checks against its own optimum.
    P, L, E, G = 6000.0, 14.0, 30e6, 12e6
    t_max, s_max, d_max = 13600.0, 30000.0, 0.25

    def shear(x):
        t1 = P / (math.sqrt(2.0) * x[0] * x[1])
        m = P * (L + x[1] / 2.0)
        r = math.sqrt(x[1] ** 2 / 4.0 + ((x[0] + x[2]) / 2.0) ** 2)
        j = 2.0 * (math.sqrt(2.0) * x[0] * x[1]
                   * (x[1] ** 2 / 12.0 + ((x[0] + x[2]) / 2.0) ** 2))
        t2 = m * r / j
        return math.sqrt(t1 ** 2 + 2.0 * t1 * t2 * x[1] / (2.0 * r) + t2 ** 2)

    def buckling(x):
        return (4.013 * E * math.sqrt(x[2] ** 2 * x[3] ** 6 / 36.0) / L ** 2
                * (1.0 - x[2] * math.sqrt(E / (4.0 * G)) / (2.0 * L)))

    definition = ProblemDefinition(
        id="RC19", name="Welded beam design", dimension=4,
        bounds=Bounds(np.array([0.1, 0.1, 0.1, 0.1]),
                      np.array([2.0, 10.0, 10.0, 2.0])),
        kinds=(C, C, C, C),
        objective_fn=lambda x: (1.10471 * x[0] ** 2 * x[1]
                                + 0.04811 * x[2] * x[3] * (14.0 + x[1])),
        inequality_fns=(
            lambda x: shear(x) - t_max,
            lambda x: 6.0 * P * L / (x[3] * x[2] ** 2) - s_max,
            lambda x: x[0] - x[3],
            lambda x: 4.0 * P * L ** 3 / (E * x[2] ** 3 * x[3]) - d_max,
            lambda x: P - buckling(x),
        ),
        category=Category.MECHANICAL, best_known=1.6702177263)
    return ProblemRecord(definition,
                         optimum_hint=(0.2057298, 3.4704890, 9.0366241, 0.2057298),
                         reference_objective=1.7248523086)


def _rc20() -> ProblemRecord:
    # Three-bar planar truss (Ray & Saini): minimize volume subject to
    # stress limits in each bar; load 2, allowable stress 2, span 100.
    load, stress = 2.0, 2.0
    # Python-float quotients: a subnormal denominator gives inf, no warning

    def g1(x):
        denom = math.sqrt(2.0) * x[0] ** 2 + 2.0 * x[0] * x[1]
        if denom <= 0.0:
            return math.inf
        return float(math.sqrt(2.0) * x[0] + x[1]) / float(denom) * load - stress

    def g2(x):
        denom = math.sqrt(2.0) * x[0] ** 2 + 2.0 * x[0] * x[1]
        if denom <= 0.0:
            return math.inf
        return float(x[1]) / float(denom) * load - stress

    def g3(x):
        denom = x[0] + math.sqrt(2.0) * x[1]
        if denom <= 0.0:
            return math.inf
        return 1.0 / denom * load - stress

    definition = ProblemDefinition(
        id="RC20", name="Three-bar truss design problem", dimension=2,
        bounds=Bounds(np.array([0.0, 0.0]), np.array([1.0, 1.0])),
        kinds=(C, C),
        objective_fn=lambda x: (2.0 * math.sqrt(2.0) * x[0] + x[1]) * 100.0,
        inequality_fns=(g1, g2, g3),
        category=Category.MECHANICAL, best_known=263.89584338)
    return ProblemRecord(definition, optimum_hint=(0.78867526, 0.40824833))


def _rc21() -> ProblemRecord:
    # Multiple disk clutch brake (Osyczka & Kundu family), all five
    # variables integral. Listed are the six governing constraints:
    # geometry, length, pressure, sliding speed, actuation time and
    # torque capacity; the pressure-times-speed product limit and the
    # positivity of the actuation time are implied by these (the product
    # of two satisfied limits, and positivity of all physical terms) and
    # are omitted from the catalog count.
    mf, ms, iz, n_rpm, t_max, s_f = 3.0, 40.0, 55.0, 250.0, 15.0, 1.5
    delta, v_max, rho, p_max, mu, l_max, dr = 0.5, 10.0, 7.8e-6, 1.0, 0.6, 30.0, 20.0

    def _disk(x):
        ri, ro, t, f_act, z = x
        area = math.pi * (ro ** 2 - ri ** 2)
        rsr = 2.0 / 3.0 * (ro ** 3 - ri ** 3) / (ro ** 2 - ri ** 2)
        vsr = math.pi * rsr * n_rpm / 30.0 / 1000.0          # m/s
        prz = f_act / area
        mh = (2.0 / 3.0 * mu * f_act * z
              * (ro ** 3 - ri ** 3) / (ro ** 2 - ri ** 2) / 1000.0)  # N*m
        t_act = iz * (math.pi * n_rpm / 30.0) / (mh + mf)
        return prz, vsr, mh, t_act

    definition = ProblemDefinition(
        id="RC21", name="Multiple disk clutch brake design problem", dimension=5,
        bounds=Bounds(np.array([60.0, 90.0, 1.0, 600.0, 2.0]),
                      np.array([80.0, 110.0, 3.0, 1000.0, 9.0])),
        kinds=(I, I, I, I, I),
        objective_fn=lambda x: (math.pi * (x[1] ** 2 - x[0] ** 2) * x[2]
                                * (x[4] + 1.0) * rho),
        inequality_fns=(
            lambda x: dr + x[0] - x[1],
            lambda x: (x[4] + 1.0) * (x[2] + delta) - l_max,
            lambda x: _disk(x)[0] - p_max,
            lambda x: _disk(x)[1] - v_max,
            lambda x: _disk(x)[3] - t_max,
            lambda x: s_f * ms - _disk(x)[2],
        ),
        category=Category.MECHANICAL, best_known=0.2352424579)
    return ProblemRecord(definition, optimum_hint=(70.0, 90.0, 1.0, 1000.0, 2.0))


def _rc31() -> ProblemRecord:
    # Compound gear train ratio matching (Sandgren): four integral tooth
    # counts approximating the target ratio 1/6.931. The drive must be a
    # reduction (driven/driver ratio at most one) and the realized ratio
    # is tied to the target through a relaxed equality.
    target = 1.0 / 6.931

    def ratio(x):
        return (x[1] * x[3]) / (x[0] * x[2])

    definition = ProblemDefinition(
        id="RC31", name="Gear train design Problem", dimension=4,
        bounds=Bounds(np.full(4, 12.0), np.full(4, 60.0)),
        kinds=(I, I, I, I),
        objective_fn=lambda x: (target - ratio(x)) ** 2,
        inequality_fns=(lambda x: ratio(x) - 1.0,),
        equality_fns=(lambda x: ratio(x) - target,),
        category=Category.MECHANICAL, best_known=0.0)
    return ProblemRecord(definition, optimum_hint=(49.0, 19.0, 43.0, 16.0))


def _rc32() -> ProblemRecord:
    # Himmelblau's five-variable quadratic with three double-sided
    # operating-range constraints, stated as six one-sided inequalities.
    def u1(x):
        return (85.334407 + 0.0056858 * x[1] * x[4]
                + 0.0006262 * x[0] * x[3] - 0.0022053 * x[2] * x[4])

    def u2(x):
        return (80.51249 + 0.0071317 * x[1] * x[4]
                + 0.0029955 * x[0] * x[1] + 0.0021813 * x[2] ** 2)

    def u3(x):
        return (9.300961 + 0.0047026 * x[2] * x[4]
                + 0.0012547 * x[0] * x[2] + 0.0019085 * x[2] * x[3])

    definition = ProblemDefinition(
        id="RC32", name="Himmelblau's Function", dimension=5,
        bounds=Bounds(np.array([78.0, 33.0, 27.0, 27.0, 27.0]),
                      np.array([102.0, 45.0, 45.0, 45.0, 45.0])),
        kinds=(C, C, C, C, C),
        objective_fn=lambda x: (5.3578547 * x[2] ** 2 + 0.8356891 * x[0] * x[4]
                                + 37.293239 * x[0] - 40792.141),
        inequality_fns=(
            lambda x: u1(x) - 92.0,
            lambda x: -u1(x),
            lambda x: u2(x) - 110.0,
            lambda x: 90.0 - u2(x),
            lambda x: u3(x) - 25.0,
            lambda x: 20.0 - u3(x),
        ),
        category=Category.MECHANICAL, best_known=-30665.538672)
    return ProblemRecord(definition,
                         optimum_hint=(78.0, 33.0, 29.9952565, 45.0, 36.7758129))


_BUILDERS = (_rc08, _rc10, _rc15, _rc17, _rc18, _rc19, _rc20, _rc21, _rc31, _rc32)
_REGISTRY: dict[str, ProblemRecord] = {
    rec.suite_id: rec for rec in (build() for build in _BUILDERS)}


def get_record(suite_id: str) -> ProblemRecord:
    try:
        return _REGISTRY[suite_id]
    except KeyError:
        raise UnknownProblemError(suite_id, sorted(_REGISTRY)) from None


def get_problem(suite_id: str) -> ProblemDefinition:
    """Evaluable definition for a registered suite id."""
    return get_record(suite_id).definition


def list_problems(category: Optional[Category] = None) -> list[ProblemRecord]:
    """All records in stable suite-id order, optionally filtered."""
    records = sorted(_REGISTRY.values(), key=lambda r: r.suite_id)
    if category is not None:
        records = [r for r in records if r.definition.category is category]
    return records


def load_descriptor_file(path: str | Path) -> list[dict]:
    """Read a JSON problem-descriptor file (metadata only, not runnable).

    Each entry must carry id, name, dimension, bounds arrays and may carry
    best_known. Constraint functions are not serializable, so descriptor
    entries can be listed but never run.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError(f"{path}: descriptor file must hold a JSON array")
    out = []
    for k, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: entry {k} is not an object")
        for key in ("id", "name", "dimension", "bounds"):
            if key not in entry:
                raise ValueError(f"{path}: entry {k} is missing {key!r}")
        bounds = entry["bounds"]
        if not (isinstance(bounds, dict) and "lower" in bounds and "upper" in bounds):
            raise ValueError(f"{path}: entry {k} bounds need lower and upper arrays")
        if len(bounds["lower"]) != entry["dimension"] \
                or len(bounds["upper"]) != entry["dimension"]:
            raise ValueError(f"{path}: entry {k} bounds do not match dimension")
        out.append({
            "id": entry["id"], "name": entry["name"],
            "dimension": entry["dimension"], "bounds": bounds,
            "best_known": entry.get("best_known"),
            "runnable": False,
        })
    return out
