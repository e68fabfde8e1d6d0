import json
import math

import numpy as np
import pytest

from cohortopt import Algorithm, CiConfig, RunResult, suite
from cohortopt.bench import (
    ExperimentConfig,
    ExperimentOutcome,
    _fmt,
    compute_statistics,
    emit_report,
    run_experiment,
    solve_once,
)
from cohortopt.cohort import Trace


def run_result(objective, violation=0.0, fe=100, attempts=10, wall=0.01):
    return RunResult(best_position=np.array([0.0]), best_objective=objective,
                     best_phi=objective, best_violation=violation,
                     feasible=violation == 0.0, function_evaluations=fe,
                     learning_attempts=attempts, wall_time=wall, trace=Trace())


class TestComputeStatistics:
    def test_all_feasible(self):
        stats = compute_statistics([run_result(v) for v in (1.0, 2.0, 3.0)],
                                   "toy", "ci-sapf")
        assert stats.best == 1.0
        assert stats.median == 2.0
        assert stats.mean == 2.0
        assert stats.worst == 3.0
        assert stats.std == pytest.approx(math.sqrt(2.0 / 3.0))
        assert stats.fr == 100.0
        assert stats.mcv == 0.0

    def test_partial_feasibility(self):
        results = [run_result(1.0), run_result(2.0), run_result(9.0, violation=0.3)]
        stats = compute_statistics(results, "toy", "ci-sapf")
        assert stats.fr == pytest.approx(200.0 / 3.0)
        assert stats.mcv == pytest.approx(0.1)
        # objective statistics cover feasible runs only
        assert stats.worst == 2.0

    def test_all_infeasible(self):
        results = [run_result(5.0, violation=v) for v in (0.2, 0.4, 0.9)]
        stats = compute_statistics(results, "toy", "ci-sapf")
        assert stats.best is None and stats.mean is None and stats.std is None
        assert stats.fr == 0.0
        assert stats.violation_best == pytest.approx(0.2)
        assert stats.violation_mean == pytest.approx(0.5)
        assert stats.violation_worst == pytest.approx(0.9)

    def test_single_run(self):
        stats = compute_statistics([run_result(4.2)], "toy", "ci-sapf")
        assert stats.best == stats.median == stats.mean == stats.worst == 4.2
        assert stats.std == 0.0

    def test_order_invariant_best_median_worst(self):
        stats = compute_statistics([run_result(v) for v in (3.0, 1.0, 2.0)],
                                   "toy", "ci-sapf")
        assert stats.best <= stats.median <= stats.worst

    def test_fr_100_iff_mcv_0(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            violations = rng.choice([0.0, 0.0, 0.5], size=rng.integers(1, 8))
            results = [run_result(1.0, violation=v) for v in violations]
            stats = compute_statistics(results, "toy", "x")
            assert (stats.fr == 100.0) == (stats.mcv == 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_statistics([], "toy", "ci-sapf")


SMALL = CiConfig(max_learning_attempts=8, max_function_evaluations=200)


def small_experiment(runs=2, problem_ids=("RC20",)):
    return ExperimentConfig(algorithm=Algorithm.CI_SAPF, problem_ids=problem_ids,
                            solver=SMALL, runs=runs, base_seed=11)


class TestRunExperiment:
    def test_seed_fanout_reproduces_individual_runs(self):
        outcome, = run_experiment(small_experiment(runs=3))
        assert outcome.base_seed == 11
        assert len(outcome.results) == 3
        problem = suite.get_problem("RC20")
        for i, result in enumerate(outcome.results):
            alone = solve_once(problem, Algorithm.CI_SAPF, SMALL, 11 + i)
            assert alone.best_objective == result.best_objective

    def test_deterministic_across_invocations(self):
        cfg = small_experiment()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        # everything except wall-clock timing reproduces exactly
        for ra, rb in zip(a[0].results, b[0].results):
            assert (ra.best_objective, ra.best_violation, ra.feasible,
                    ra.function_evaluations, ra.learning_attempts) == \
                   (rb.best_objective, rb.best_violation, rb.feasible,
                    rb.function_evaluations, rb.learning_attempts)

    def test_unknown_problem_raises(self):
        cfg = small_experiment(problem_ids=("RC77",))
        with pytest.raises(KeyError):
            run_experiment(cfg)

    def test_empty_problem_list_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm=Algorithm.CI_SAPF, problem_ids=(),
                             solver=SMALL)

    def test_repeated_problem_rejected_before_any_run(self):
        with pytest.raises(ValueError, match="RC20"):
            small_experiment(problem_ids=("RC20", "RC08", "RC20"))

    def test_solver_type_checked(self):
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm=Algorithm.CI_SAPF_CBO,
                             problem_ids=("RC20",), solver=SMALL)


class TestEmitReport:
    def test_file_inventory(self, tmp_path):
        outcomes = run_experiment(small_experiment(runs=2, problem_ids=("RC20", "RC08")))
        files = emit_report(outcomes, tmp_path / "r")
        names = sorted(p.name for p in files)
        assert "summary.csv" in names
        assert "summary.json" in names
        traces = [n for n in names if n.startswith("trace_")]
        assert len(traces) == 4  # 2 problems x 2 runs
        assert "trace_RC20_0.csv" in names
        assert "trace_RC08_1.csv" in names

    def test_rewrite_is_byte_identical(self, tmp_path):
        # the writer stamps nothing: same outcomes give the same bytes
        outcomes = run_experiment(small_experiment())
        emit_report(outcomes, tmp_path / "a")
        first = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
        emit_report(outcomes, tmp_path / "a")
        second = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
        assert first == second

    def test_rerun_reproduces_all_nontiming_content(self, tmp_path):
        cfg = small_experiment()
        emit_report(run_experiment(cfg), tmp_path / "a2" / "one")
        emit_report(run_experiment(cfg), tmp_path / "a2" / "two")

        def strip_timing(text):
            header = text.splitlines()[1].split(",")
            keep = [i for i, col in enumerate(header) if col != "avg_time"]
            return [",".join(line.split(",")[i] for i in keep)
                    for line in text.splitlines()[1:]]

        a = strip_timing((tmp_path / "a2" / "one" / "summary.csv").read_text())
        b = strip_timing((tmp_path / "a2" / "two" / "summary.csv").read_text())
        assert a == b
        trace_a = (tmp_path / "a2" / "one" / "trace_RC20_0.csv").read_bytes()
        trace_b = (tmp_path / "a2" / "two" / "trace_RC20_0.csv").read_bytes()
        assert trace_a == trace_b

    def test_summary_csv_round_trip(self, tmp_path):
        outcomes = run_experiment(small_experiment())
        emit_report(outcomes, tmp_path / "b")
        lines = (tmp_path / "b" / "summary.csv").read_text().splitlines()
        assert lines[0].startswith("#")
        header = lines[1].split(",")
        row = dict(zip(header, lines[2].split(",")))
        stats = outcomes[0].statistics
        assert row["problem"] == stats.problem_id
        assert int(row["runs"]) == stats.runs
        for col, value in (("best", stats.best), ("mean", stats.mean),
                           ("mcv", stats.mcv), ("fr", stats.fr),
                           ("avg_fe", stats.avg_fe)):
            assert row[col] == f"{value:.10g}"
            assert float(row[col]) == pytest.approx(value, rel=1e-9)

    def test_summary_json_structure(self, tmp_path):
        outcomes = run_experiment(small_experiment(runs=2, problem_ids=("RC20", "RC08")))
        emit_report(outcomes, tmp_path / "c")
        payload = json.loads((tmp_path / "c" / "summary.json").read_text())
        assert [p["problem"] for p in payload["problems"]] == ["RC08", "RC20"]
        per_run = {p["problem"]: p["per_run"] for p in payload["problems"]}
        for outcome in outcomes:
            # one row per result, run i at seed base_seed + i
            assert per_run[outcome.problem_id] == [
                {"run": i, "seed": 11 + i,
                 "objective": float(f"{r.best_objective:.10g}"),
                 "violation": float(f"{r.best_violation:.10g}"),
                 "feasible": r.feasible,
                 "function_evaluations": r.function_evaluations,
                 "learning_attempts": r.learning_attempts,
                 "wall_time": float(f"{r.wall_time:.10g}")}
                for i, r in enumerate(outcome.results)]

    def test_infeasible_rows_are_labelled(self, tmp_path):
        results = [run_result(5.0, violation=0.5)]
        stats = compute_statistics(results, "RC20", "ci-sapf")
        outcome = ExperimentOutcome(problem_id="RC20", algorithm=Algorithm.CI_SAPF,
                                    statistics=stats, results=results, base_seed=0)
        emit_report([outcome], tmp_path / "d")
        text = (tmp_path / "d" / "summary.csv").read_text()
        assert "infeasible" in text

    def test_trace_best_phi_never_worsens(self, tmp_path):
        outcomes = run_experiment(small_experiment())
        emit_report(outcomes, tmp_path / "e")
        trace = (tmp_path / "e" / "trace_RC20_0.csv").read_text().splitlines()
        assert trace[0] == "attempt,best_phi,best_f,best_violation"
        keys = []
        for line in trace[1:]:
            _, phi, f, violation = line.split(",")
            phi, f, violation = float(phi), float(f), float(violation)
            keys.append((0, f, phi) if violation == 0.0 else (1, violation, phi))
        assert all(b <= a for a, b in zip(keys, keys[1:]))

    def test_trace_csv_bytes_equal_record_by_record_fmt(self, tmp_path):
        edge = [math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                1e-300, -1e-300, 1.0 / 3.0, 263.8958433765]
        result = run_result(1.0)
        for i, value in enumerate(edge):
            result.trace.append(value, edge[-1 - i], edge[(i + 3) % len(edge)])
        stats = compute_statistics([result], "RC20", "ci-sapf")
        emit_report([ExperimentOutcome(problem_id="RC20", algorithm=Algorithm.CI_SAPF,
                                       statistics=stats, results=[result], base_seed=0)],
                    tmp_path / "g")
        expected = "\n".join(
            ["attempt,best_phi,best_f,best_violation"]
            + [f"{rec.attempt},{_fmt(rec.best_phi)},{_fmt(rec.best_f)},"
               f"{_fmt(rec.best_violation)}" for rec in result.trace]) + "\n"
        written = (tmp_path / "g" / "trace_RC20_0.csv").read_bytes()
        assert written == expected.encode("utf-8")
        assert written.splitlines()[1:4] == [b"1,inf,263.8958434,0",
                                             b"2,-inf,0.3333333333,4.940656458e-324",
                                             b"3,-0,-1e-300,2.225073859e-308"]

    def test_two_outcomes_of_one_problem_rejected_before_writing(self, tmp_path):
        # both engines' traces would be named trace_RC20_<run>.csv
        results = [run_result(1.0), run_result(2.0)]
        outcomes = [ExperimentOutcome(problem_id="RC20", algorithm=algorithm,
                                      statistics=compute_statistics(results, "RC20",
                                                                    algorithm.value),
                                      results=results, base_seed=0)
                    for algorithm in (Algorithm.CI_SAPF, Algorithm.CI_SAPF_CBO)]
        with pytest.raises(ValueError, match="'RC20'"):
            emit_report(outcomes, tmp_path / "h")
        assert not (tmp_path / "h").exists()

    def test_empty_outcomes_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], tmp_path / "f")
