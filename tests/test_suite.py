import json

import numpy as np
import pytest

from cohortopt import UnknownProblemError, suite
from cohortopt.problem import Category, evaluate

# Catalog rows: dimension, inequality count, equality count, best known.
CATALOG = {
    "RC08": ("Process synthesis problem", Category.PROCESS_SYNTHESIS, 2, 2, 0, 2.0),
    "RC10": ("Process flow sheeting problem", Category.PROCESS_SYNTHESIS, 3, 3, 0, 1.0765430833),
    "RC15": ("Weight Minimization of a Speed Reducer", Category.MECHANICAL, 7, 11, 0, 2994.4244658),
    "RC17": ("Tension/compression spring design (case 1)", Category.MECHANICAL, 3, 3, 0, 0.012665232788),
    "RC18": ("Pressure vessel design", Category.MECHANICAL, 4, 4, 0, 5885.3327736),
    "RC19": ("Welded beam design", Category.MECHANICAL, 4, 5, 0, 1.6702177263),
    "RC20": ("Three-bar truss design problem", Category.MECHANICAL, 2, 3, 0, 263.89584338),
    "RC21": ("Multiple disk clutch brake design problem", Category.MECHANICAL, 5, 6, 0, 0.2352424579),
    "RC31": ("Gear train design Problem", Category.MECHANICAL, 4, 1, 1, 0.0),
    "RC32": ("Himmelblau's Function", Category.MECHANICAL, 5, 6, 0, -30665.538672),
}


class TestCatalogMetadata:
    @pytest.mark.parametrize("suite_id", sorted(CATALOG))
    def test_record_matches_catalog(self, suite_id):
        name, category, dim, n_g, n_h, best = CATALOG[suite_id]
        meta = suite.get_record(suite_id).metadata()
        assert meta["id"] == suite_id
        assert meta["name"] == name
        assert meta["category"] == category.value
        assert meta["dimension"] == dim
        assert meta["inequality_count"] == n_g
        assert meta["equality_count"] == n_h
        assert meta["best_known"] == pytest.approx(best, rel=1e-10)

    def test_registry_size(self):
        assert len(suite.list_problems()) >= 10


class TestFormulationSelfCheck:
    @pytest.mark.parametrize("suite_id", sorted(CATALOG))
    def test_documented_optimum_is_feasible_and_matches(self, suite_id):
        rec = suite.get_record(suite_id)
        assert rec.optimum_hint is not None
        ev = evaluate(rec.definition, np.array(rec.optimum_hint))
        assert ev.violation == 0.0
        assert ev.feasible
        ref = rec.reference_objective
        assert abs(ev.objective - ref) <= max(1e-3 * abs(ref), 1e-8)

    def test_rc20_subnormal_denominator_overflows_to_inf(self):
        # g1 and g2 divide by sqrt(2) x0^2 + 2 x0 x1, here 4.4e-313
        g1, g2, g3 = suite.get_problem("RC20").inequality_fns
        x = np.array([2.2e-313, 1.0])
        assert g1(x) == np.inf and g2(x) == np.inf
        assert np.isfinite(g3(x))


class TestLookup:
    def test_get_problem_returns_definition(self):
        problem = suite.get_problem("RC20")
        assert problem.dimension == 2

    def test_unknown_id_lists_available(self):
        with pytest.raises(UnknownProblemError) as err:
            suite.get_problem("RC99")
        message = str(err.value)
        assert "RC99" in message
        assert "RC20" in message

    def test_list_is_sorted_by_id(self):
        ids = [r.suite_id for r in suite.list_problems()]
        assert ids == sorted(ids)

    def test_mechanical_category(self):
        ids = {r.suite_id for r in suite.list_problems(Category.MECHANICAL)}
        assert ids >= {"RC15", "RC17", "RC18", "RC19", "RC20", "RC21", "RC31", "RC32"}

    def test_livestock_is_empty(self):
        assert suite.list_problems(Category.LIVESTOCK) == []

    def test_process_synthesis_category(self):
        ids = {r.suite_id for r in suite.list_problems(Category.PROCESS_SYNTHESIS)}
        assert ids == {"RC08", "RC10"}


class TestGearTrainOracle:
    def test_exhaustive_search_matches_reported_best(self):
        # independent enumeration of every integral tooth combination
        teeth = np.arange(12, 61, dtype=float)
        x1, x2, x3, x4 = np.meshgrid(teeth, teeth, teeth, teeth,
                                     indexing="ij", sparse=True)
        error = 1.0 / 6.931 - (x2 * x4) / (x1 * x3)
        best = float((error ** 2).min())
        assert best == pytest.approx(2.7009e-12, rel=1e-4)

        problem = suite.get_problem("RC31")
        at_known = evaluate(problem, np.array([49.0, 19.0, 43.0, 16.0])).objective
        assert at_known == pytest.approx(best, rel=1e-12)


class TestDescriptorFile:
    def test_round_trip(self, tmp_path):
        payload = [{
            "id": "EXT1", "name": "external metadata", "dimension": 2,
            "bounds": {"lower": [0, 0], "upper": [1, 1]}, "best_known": 0.5,
        }]
        path = tmp_path / "problems.json"
        path.write_text(json.dumps(payload))
        records = suite.load_descriptor_file(path)
        assert records == [{
            "id": "EXT1", "name": "external metadata", "dimension": 2,
            "bounds": {"lower": [0, 0], "upper": [1, 1]},
            "best_known": 0.5, "runnable": False,
        }]

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"id": "X", "name": "no dimension"}]))
        with pytest.raises(ValueError):
            suite.load_descriptor_file(path)

    def test_bounds_length_checked(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps([{
            "id": "X", "name": "n", "dimension": 3,
            "bounds": {"lower": [0], "upper": [1]}}]))
        with pytest.raises(ValueError):
            suite.load_descriptor_file(path)
