"""Benchmark problem registry.

Classic constrained engineering and process design problems in their
standard published formulations. Each entry states its catalog
metadata (id, name, category, best known value), its box and one
``point`` function holding all its formulas; dimension and constraint
counts follow from them. Formulation provenance is noted per entry.
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


def _record(point, lower: list[float], upper: list[float], optimum_hint: tuple[float, ...],
            reference_objective: Optional[float] = None, **fields) -> ProblemRecord:
    """Register the problem that ``point`` evaluates on the box
    ``lower``..``upper``.

    ``point(x)`` takes one point as a list of Python floats and returns
    ``(f, g_values, h_values)``; it is the definition's ``point_fn``. The
    scalar callables read their values from it, so each formula exists
    once, and the constraint counts are those it returns at the hint.
    """
    def at(x):
        return point(np.asarray(x, dtype=float).tolist())

    def component(part, index):
        return lambda x: at(x)[part][index]

    _, g_values, h_values = point(list(optimum_hint))
    definition = ProblemDefinition(
        dimension=len(lower), bounds=Bounds(np.array(lower), np.array(upper)),
        objective_fn=lambda x: at(x)[0],
        inequality_fns=tuple(component(1, i) for i in range(len(g_values))),
        equality_fns=tuple(component(2, j) for j in range(len(h_values))),
        point_fn=point, **fields)
    return ProblemRecord(definition, optimum_hint, reference_objective)


# --------------------------------------------------------------------------
# Process synthesis and design
# --------------------------------------------------------------------------

def _rc08() -> ProblemRecord:
    # Classic two-variable process synthesis MINLP (Kocis & Grossmann).
    # x2 is a binary selection variable; the reduced-cost optimum sits on
    # the quadratic constraint boundary at (0.5, 1).
    def point(x):
        x1, x2 = x
        return 2.0 * x1 + x2, (1.25 - x1 ** 2 - x2, x1 + x2 - 1.6), ()

    return _record(point, id="RC08", name="Process synthesis problem",
                   category=Category.PROCESS_SYNTHESIS, best_known=2.0, kinds=(C, I),
                   lower=[0.0, 0.0], upper=[1.6, 1.0], optimum_hint=(0.5, 1.0))


def _rc10() -> ProblemRecord:
    # Process flow sheeting MINLP (Floudas); one binary, two continuous.
    def point(x):
        x1, x2, x3 = x
        return (-0.7 * x3 + 5.0 * (x1 - 0.5) ** 2 + 0.8,
                (-math.exp(x1 - 0.2) - x2, x2 + 1.1 * x3 + 1.0, x1 - x3 - 0.2), ())

    return _record(point, id="RC10", name="Process flow sheeting problem",
                   category=Category.PROCESS_SYNTHESIS, best_known=1.0765430833,
                   kinds=(C, C, I), lower=[0.2, -2.22554, 0.0], upper=[1.0, -1.0, 1.0],
                   optimum_hint=(0.9419373448, -2.1, 1.0))


# --------------------------------------------------------------------------
# Mechanical design
# --------------------------------------------------------------------------

def _rc15() -> ProblemRecord:
    # Golinski speed reducer, 11-constraint form (Arora); tooth count x3
    # is integral. The widely used optimum is x = (3.5, 0.7, 17, 7.3,
    # 7.7153, 3.3502, 5.2867).
    def point(x):
        x1, x2, x3, x4, x5, x6, x7 = x
        x6_2, x7_2, x6_3, x7_3 = x6 ** 2, x7 ** 2, x6 ** 3, x7 ** 3
        x1_x2_2 = x1 * x2 ** 2
        x2_x3 = x2 * x3
        f = (0.7854 * x1 * x2 ** 2 * (3.3333 * x3 ** 2 + 14.9334 * x3 - 43.0934)
             - 1.508 * x1 * (x6_2 + x7_2)
             + 7.4777 * (x6_3 + x7_3)
             + 0.7854 * (x4 * x6_2 + x5 * x7_2))
        return f, (
            27.0 / (x1_x2_2 * x3) - 1.0,
            397.5 / (x1_x2_2 * x3 ** 2) - 1.0,
            1.93 * x4 ** 3 / (x2_x3 * x6 ** 4) - 1.0,
            1.93 * x5 ** 3 / (x2_x3 * x7 ** 4) - 1.0,
            math.sqrt((745.0 * x4 / x2_x3) ** 2 + 16.9e6) / (110.0 * x6_3) - 1.0,
            math.sqrt((745.0 * x5 / x2_x3) ** 2 + 157.5e6) / (85.0 * x7_3) - 1.0,
            x2_x3 / 40.0 - 1.0,
            5.0 * x2 / x1 - 1.0,
            x1 / (12.0 * x2) - 1.0,
            (1.5 * x6 + 1.9) / x4 - 1.0,
            (1.1 * x7 + 1.9) / x5 - 1.0,
        ), ()

    return _record(point, id="RC15", name="Weight Minimization of a Speed Reducer",
                   category=Category.MECHANICAL, best_known=2994.4244658,
                   kinds=(C, C, I, C, C, C, C),
                   lower=[2.6, 0.7, 17.0, 7.3, 7.3, 2.9, 5.0],
                   upper=[3.6, 0.8, 28.0, 8.3, 8.3, 3.9, 5.5],
                   optimum_hint=(3.50000015, 0.7, 17.0, 7.3, 7.7153201,
                                 3.35021475, 5.2866546),
                   reference_objective=2994.4710662)


def _rc17() -> ProblemRecord:
    # Tension/compression spring (Arora). The catalog lists the three
    # governing constraints (deflection, shear stress, surge frequency);
    # the optimum matches the four-constraint classic because the
    # outer-diameter limit is slack at and around it (checked numerically).
    def point(x):
        x1, x2, x3 = x
        x1_4 = x1 ** 4
        denom = 12566.0 * (x2 * x1 ** 3 - x1_4)
        if denom == 0.0:
            g2 = math.inf
        else:
            g2 = ((4.0 * x2 ** 2 - x1 * x2) / denom
                  + 1.0 / (5108.0 * x1 ** 2) - 1.0)
        return x1 ** 2 * x2 * (x3 + 2.0), (
            1.0 - x2 ** 3 * x3 / (71785.0 * x1_4),
            g2,
            1.0 - 140.45 * x1 / (x2 ** 2 * x3),
        ), ()

    return _record(point, id="RC17", name="Tension/compression spring design (case 1)",
                   category=Category.MECHANICAL, best_known=0.012665232788,
                   kinds=(C, C, C), lower=[0.05, 0.25, 2.0], upper=[2.0, 1.3, 15.0],
                   optimum_hint=(0.0516891, 0.356718, 11.2891))


def _rc18() -> ProblemRecord:
    # Pressure vessel (Sandgren), continuous-thickness variant whose
    # optimum is 5885.33 at shell radius about 40.32 and length 200.
    def point(x):
        x1, x2, x3, x4 = x
        x1_2, x3_2 = x1 ** 2, x3 ** 2
        f = (0.6224 * x1 * x3 * x4 + 1.7781 * x2 * x3_2
             + 3.1661 * x1_2 * x4 + 19.84 * x1_2 * x3)
        return f, (
            -x1 + 0.0193 * x3,
            -x2 + 0.00954 * x3,
            -math.pi * x3_2 * x4 - (4.0 / 3.0) * math.pi * x3 ** 3 + 1296000.0,
            x4 - 240.0,
        ), ()

    return _record(point, id="RC18", name="Pressure vessel design",
                   category=Category.MECHANICAL, best_known=5885.3327736,
                   kinds=(C, C, C, C), lower=[0.0, 0.0, 10.0, 10.0],
                   upper=[6.1875, 6.1875, 200.0, 200.0],
                   optimum_hint=(0.77817, 0.38465, 40.3196402, 200.0))


def _rc19() -> ProblemRecord:
    # Welded beam (Ragsdell & Phillips as standardized by Deb/Coello).
    # The catalog's best-known 1.67022 is below this classical
    # formulation's true optimum 1.724852; the registry implements the
    # classical formulation and self-checks against its own optimum.
    P, L, E, G = 6000.0, 14.0, 30e6, 12e6
    t_max, s_max, d_max = 13600.0, 30000.0, 0.25
    # constant subexpressions of the formulas, evaluated once
    sqrt2, sqrt_e_4g, l_2, l_3 = math.sqrt(2.0), math.sqrt(E / (4.0 * G)), L ** 2, L ** 3

    def point(x):
        x1, x2, x3, x4 = x
        weld = sqrt2 * x1 * x2
        spread = ((x1 + x3) / 2.0) ** 2
        t1 = P / weld
        m = P * (L + x2 / 2.0)
        r = math.sqrt(x2 ** 2 / 4.0 + spread)
        j = 2.0 * (weld * (x2 ** 2 / 12.0 + spread))
        t2 = m * r / j
        shear = math.sqrt(t1 ** 2 + 2.0 * t1 * t2 * x2 / (2.0 * r) + t2 ** 2)
        buckling = (4.013 * E * math.sqrt(x3 ** 2 * x4 ** 6 / 36.0) / l_2
                    * (1.0 - x3 * sqrt_e_4g / (2.0 * L)))
        return 1.10471 * x1 ** 2 * x2 + 0.04811 * x3 * x4 * (14.0 + x2), (
            shear - t_max,
            6.0 * P * L / (x4 * x3 ** 2) - s_max,
            x1 - x4,
            4.0 * P * l_3 / (E * x3 ** 3 * x4) - d_max,
            P - buckling,
        ), ()

    return _record(point, id="RC19", name="Welded beam design",
                   category=Category.MECHANICAL, best_known=1.6702177263,
                   kinds=(C, C, C, C), lower=[0.1, 0.1, 0.1, 0.1], upper=[2.0, 10.0, 10.0, 2.0],
                   optimum_hint=(0.2057298, 3.4704890, 9.0366241, 0.2057298),
                   reference_objective=1.7248523086)


def _rc20() -> ProblemRecord:
    # Three-bar planar truss (Ray & Saini): minimize volume subject to
    # stress limits in each bar; load 2, allowable stress 2, span 100.
    # A subnormal denominator gives inf (Python float quotients do not warn).
    load, stress = 2.0, 2.0
    sqrt2 = math.sqrt(2.0)

    def point(x):
        x1, x2 = x
        denom = sqrt2 * x1 ** 2 + 2.0 * x1 * x2
        if denom <= 0.0:
            g1 = g2 = math.inf
        else:
            g1 = (sqrt2 * x1 + x2) / denom * load - stress
            g2 = x2 / denom * load - stress
        denom3 = x1 + sqrt2 * x2
        g3 = math.inf if denom3 <= 0.0 else 1.0 / denom3 * load - stress
        return (2.0 * sqrt2 * x1 + x2) * 100.0, (g1, g2, g3), ()

    return _record(point, id="RC20", name="Three-bar truss design problem",
                   category=Category.MECHANICAL, best_known=263.89584338, kinds=(C, C),
                   lower=[0.0, 0.0], upper=[1.0, 1.0], optimum_hint=(0.78867526, 0.40824833))


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
    omega = math.pi * n_rpm / 30.0   # rad/s

    def point(x):
        ri, ro, t, f_act, z = x
        ro2_ri2 = ro ** 2 - ri ** 2
        ro3_ri3 = ro ** 3 - ri ** 3
        area = math.pi * ro2_ri2
        rsr = 2.0 / 3.0 * ro3_ri3 / ro2_ri2
        vsr = math.pi * rsr * n_rpm / 30.0 / 1000.0          # m/s
        prz = f_act / area
        mh = 2.0 / 3.0 * mu * f_act * z * ro3_ri3 / ro2_ri2 / 1000.0  # N*m
        t_act = iz * omega / (mh + mf)
        return area * t * (z + 1.0) * rho, (
            dr + ri - ro,
            (z + 1.0) * (t + delta) - l_max,
            prz - p_max,
            vsr - v_max,
            t_act - t_max,
            s_f * ms - mh,
        ), ()

    return _record(point, id="RC21", name="Multiple disk clutch brake design problem",
                   category=Category.MECHANICAL, best_known=0.2352424579,
                   kinds=(I, I, I, I, I), lower=[60.0, 90.0, 1.0, 600.0, 2.0],
                   upper=[80.0, 110.0, 3.0, 1000.0, 9.0],
                   optimum_hint=(70.0, 90.0, 1.0, 1000.0, 2.0))


def _rc31() -> ProblemRecord:
    # Compound gear train ratio matching (Sandgren): four integral tooth
    # counts approximating the target ratio 1/6.931. The drive must be a
    # reduction (driven/driver ratio at most one) and the realized ratio
    # is tied to the target through a relaxed equality.
    target = 1.0 / 6.931

    def point(x):
        x1, x2, x3, x4 = x
        ratio = (x2 * x4) / (x1 * x3)
        return (target - ratio) ** 2, (ratio - 1.0,), (ratio - target,)

    return _record(point, id="RC31", name="Gear train design Problem",
                   category=Category.MECHANICAL, best_known=0.0, kinds=(I, I, I, I),
                   lower=[12.0] * 4, upper=[60.0] * 4, optimum_hint=(49.0, 19.0, 43.0, 16.0))


def _rc32() -> ProblemRecord:
    # Himmelblau's five-variable quadratic with three double-sided
    # operating-range constraints, stated as six one-sided inequalities.
    def point(x):
        x1, x2, x3, x4, x5 = x
        u1 = (85.334407 + 0.0056858 * x2 * x5
              + 0.0006262 * x1 * x4 - 0.0022053 * x3 * x5)
        u2 = (80.51249 + 0.0071317 * x2 * x5
              + 0.0029955 * x1 * x2 + 0.0021813 * x3 ** 2)
        u3 = (9.300961 + 0.0047026 * x3 * x5
              + 0.0012547 * x1 * x3 + 0.0019085 * x3 * x4)
        f = 5.3578547 * x3 ** 2 + 0.8356891 * x1 * x5 + 37.293239 * x1 - 40792.141
        return f, (u1 - 92.0, -u1, u2 - 110.0, 90.0 - u2, u3 - 25.0, 20.0 - u3), ()

    return _record(point, id="RC32", name="Himmelblau's Function",
                   category=Category.MECHANICAL, best_known=-30665.538672,
                   kinds=(C, C, C, C, C), lower=[78.0, 33.0, 27.0, 27.0, 27.0],
                   upper=[102.0, 45.0, 45.0, 45.0, 45.0],
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
        if not (isinstance(bounds, dict) and isinstance(bounds.get("lower"), list)
                and isinstance(bounds.get("upper"), list)):
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
