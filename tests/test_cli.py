import json

import pytest

from cohortopt import Algorithm, CboConfig, CiConfig, NegativeMode, PenaltyConfig, suite
from cohortopt import cli
from cohortopt.bench import ExperimentConfig
from cohortopt.cli import _parse_flat_toml, load_config_file, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_outputs_json_metadata(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        records = json.loads(out)
        by_id = {r["id"]: r for r in records}
        assert by_id["RC20"]["dimension"] == 2
        assert by_id["RC20"]["inequality_count"] == 3
        assert by_id["RC31"]["equality_count"] == 1
        assert all(r["runnable"] for r in records)

    def test_category_filter(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--category", "process_synthesis")
        assert code == 0
        ids = [r["id"] for r in json.loads(out)]
        assert ids == ["RC08", "RC10"]

    def test_descriptor_entries_are_included(self, capsys, tmp_path):
        desc = tmp_path / "extra.json"
        desc.write_text(json.dumps([{
            "id": "EXT9", "name": "metadata only", "dimension": 1,
            "bounds": {"lower": [0], "upper": [1]}}]))
        code, out, _ = run_cli(capsys, "list", "--descriptors", str(desc))
        assert code == 0
        records = json.loads(out)
        ext = [r for r in records if r["id"] == "EXT9"]
        assert ext and ext[0]["runnable"] is False

    @pytest.mark.parametrize("bounds", [{"lower": 0, "upper": 1}, {"lower": [0], "upper": 1},
                                        {"lower": "0", "upper": "1"}],
                             ids=["scalars", "scalar-upper", "strings"])
    def test_descriptor_bounds_must_be_arrays(self, capsys, tmp_path, bounds):
        # scalars escaped main as "TypeError: object of type 'int' has no
        # len()", and one-character strings were listed as bounds
        desc = tmp_path / "extra.json"
        desc.write_text(json.dumps([{"id": "EXT9", "name": "n", "dimension": 1,
                                     "bounds": bounds}]))
        code, out, err = run_cli(capsys, "list", "--descriptors", str(desc))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "entry 0 bounds" in err


class TestRun:
    def test_writes_reports(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "run", "--algo", "ci-sapf", "--problem", "RC20",
            "--runs", "2", "--seed", "7", "--max-fe", "80",
            "--max-attempts", "6", "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "summary.json").exists()
        assert len(list(out_dir.glob("trace_RC20_*.csv"))) == 2
        assert "RC20" in out

    def test_unknown_problem_fails(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--algo", "ci-sapf",
                               "--problem", "RC99", "--out", str(tmp_path / "x"))
        assert code != 0
        assert "RC99" in err

    def test_infeasible_outcome_still_exits_zero(self, capsys, tmp_path):
        # a budget this small cannot reach feasibility on the spring problem
        out_dir = tmp_path / "tiny"
        code, out, _ = run_cli(
            capsys, "run", "--algo", "ci-sapf", "--problem", "RC17",
            "--runs", "1", "--seed", "0", "--max-fe", "10",
            "--max-attempts", "1", "--out", str(out_dir))
        assert code == 0

    def test_cbo_algorithm(self, capsys, tmp_path):
        out_dir = tmp_path / "cbo"
        code, _, _ = run_cli(
            capsys, "run", "--algo", "ci-sapf-cbo", "--problem", "RC20",
            "--runs", "1", "--max-fe", "60", "--max-attempts", "4",
            "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "summary.csv").exists()

    def test_missing_problem_flag_errors(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--algo", "ci-sapf",
                               "--out", str(tmp_path / "y"))
        assert code == 1
        assert "problem" in err

    @pytest.mark.parametrize("flag", ["--int-offset", "--near-zero-threshold",
                                      "--infinity-substitute", "--saturation-tolerance"])
    def test_non_finite_setting_is_an_error(self, capsys, tmp_path, flag):
        out_dir = tmp_path / "nan"
        code, _, err = run_cli(capsys, "run", "--algo", "ci-sapf", "--problem", "RC20",
                               "--runs", "1", "--max-fe", "60", flag, "nan",
                               "--out", str(out_dir))
        assert code == 1
        assert err.startswith("error: ") and flag[2:].replace("-", "_") in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("algo", ["ci-sapf", "ci-sapf-cbo"])
    @pytest.mark.parametrize("flags, named", [(["--max-fe", "3"], "max_function_evaluations"),
                                              (["--seed", "-1"], "seed")])
    def test_unusable_budget_or_seed_is_an_error(self, capsys, tmp_path, algo, flags, named):
        # --max-fe 3 ran, spent a first cohort of 5 or 6 and exited 0
        out_dir = tmp_path / "bad"
        code, _, err = run_cli(capsys, "run", "--algo", algo, "--problem", "RC20",
                               "--runs", "1", *flags, "--out", str(out_dir))
        assert code == 1
        assert err.startswith("error: ") and named in err
        assert not out_dir.exists()

    def test_missing_out_errors(self, capsys):
        code, _, err = run_cli(capsys, "run", "--algo", "ci-sapf", "--problem", "RC20")
        assert code == 1
        assert "error: --out is required" in err

    @pytest.mark.parametrize("key, value", [("reduction_factor", 0.7), ("variations", 3)])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_ci_sapf_only_key_rejected_for_cbo(self, capsys, tmp_path, key, value, source):
        argv = ["run", "--algo", "ci-sapf-cbo", "--problem", "RC20", "--runs", "1",
                "--max-fe", "60", "--max-attempts", "4", "--out", str(tmp_path / "cbo")]
        if source == "flag":
            argv += ["--" + key.replace("_", "-"), str(value)]
        else:
            cfg = tmp_path / "cbo.json"
            cfg.write_text(json.dumps({key: value}))
            argv += ["--config", str(cfg)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert key in err
        assert not (tmp_path / "cbo").exists()


class _Built(Exception):
    """Carries the ExperimentConfig the CLI would run."""


def built_config(monkeypatch, *argv) -> ExperimentConfig:
    def capture(cfg):
        raise _Built(cfg)

    monkeypatch.setattr(cli, "run_experiment", capture)
    with pytest.raises(_Built) as built:
        main(list(argv))
    return built.value.args[0]


ALL_IDS = tuple(r.suite_id for r in suite.list_problems())
NON_DEFAULT = ["--runs", "3", "--seed", "5", "--max-fe", "500", "--max-attempts", "40",
               "--negative-mode", "shift", "--near-zero-threshold", "2",
               "--int-offset", "3", "--infinity-substitute", "4",
               "--saturation-window", "9", "--saturation-tolerance", "1e-3"]
NON_DEFAULT_COMMON = dict(
    max_function_evaluations=500, max_learning_attempts=40, saturation_window=9,
    saturation_tolerance=1e-3,
    penalty=PenaltyConfig(near_zero_threshold=2.0, int_offset=3.0,
                          infinity_substitute=4.0, negative_mode=NegativeMode.SHIFT))


class TestBuiltExperimentConfig:
    @pytest.mark.parametrize("argv, expected", [
        (["run", "--algo", "ci-sapf", "--problem", "RC20"],
         ExperimentConfig(Algorithm.CI_SAPF, ("RC20",), CiConfig())),
        (["run", "--algo", "ci-sapf-cbo", "--problem", "RC20"],
         ExperimentConfig(Algorithm.CI_SAPF_CBO, ("RC20",), CboConfig())),
        (["suite", "--algo", "ci-sapf"],
         ExperimentConfig(Algorithm.CI_SAPF, ALL_IDS, CiConfig())),
        (["suite", "--algo", "ci-sapf-cbo", "--category", "process_synthesis"],
         ExperimentConfig(Algorithm.CI_SAPF_CBO, ("RC08", "RC10"), CboConfig())),
        (["run", "--algo", "ci-sapf", "--problem", "RC32", "--candidates", "7",
          "--reduction-factor", "0.9", "--variations", "2"] + NON_DEFAULT,
         ExperimentConfig(Algorithm.CI_SAPF, ("RC32",),
                          CiConfig(cohort_size=7, reduction_factor=0.9,
                                   variations_per_attempt=2, **NON_DEFAULT_COMMON),
                          runs=3, base_seed=5)),
        (["suite", "--algo", "ci-sapf-cbo", "--candidates", "8"] + NON_DEFAULT,
         ExperimentConfig(Algorithm.CI_SAPF_CBO, ALL_IDS,
                          CboConfig(cohort_size=8, **NON_DEFAULT_COMMON),
                          runs=3, base_seed=5)),
    ])
    def test_equals_explicit_config(self, monkeypatch, tmp_path, argv, expected):
        assert built_config(monkeypatch, *argv, "--out", str(tmp_path)) == expected

    def test_config_file_builds_what_flags_build(self, monkeypatch, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "algo": "ci-sapf", "problem": "RC32", "runs": 3, "seed": 5, "max_fe": 500,
            "max_attempts": 40, "negative_mode": "shift", "near_zero_threshold": 2.0,
            "int_offset": 3.0, "infinity_substitute": 4.0, "saturation_window": 9,
            "saturation_tolerance": 1e-3}))
        from_flags = built_config(monkeypatch, "run", "--algo", "ci-sapf",
                                  "--problem", "RC32", *NON_DEFAULT, "--out", "o")
        assert built_config(monkeypatch, "run", "--config", str(cfg), "--out", "o") \
            == from_flags


class TestConfigFile:
    def test_toml_config_supplies_values(self, capsys, tmp_path):
        cfg = tmp_path / "exp.toml"
        cfg.write_text('algo = "ci-sapf"\nproblem = "RC20"\nruns = 2\n'
                       "max_fe = 80\nmax_attempts = 5\nseed = 3\n")
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "run", "--config", str(cfg),
                             "--out", str(out_dir))
        assert code == 0
        payload = json.loads((out_dir / "summary.json").read_text())
        assert payload["problems"][0]["runs"] == 2
        assert payload["problems"][0]["per_run"][0]["seed"] == 3

    def test_cli_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "exp.toml"
        cfg.write_text('algo = "ci-sapf"\nproblem = "RC20"\nruns = 2\n'
                       "max_fe = 80\nmax_attempts = 5\n")
        out_dir = tmp_path / "out2"
        code, _, _ = run_cli(capsys, "run", "--config", str(cfg),
                             "--runs", "3", "--out", str(out_dir))
        assert code == 0
        payload = json.loads((out_dir / "summary.json").read_text())
        assert payload["problems"][0]["runs"] == 3

    def test_json_config(self, capsys, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"algo": "ci-sapf", "problem": "RC20",
                                   "runs": 1, "max_fe": 60, "max_attempts": 4}))
        out_dir = tmp_path / "out3"
        code, _, _ = run_cli(capsys, "run", "--config", str(cfg),
                             "--out", str(out_dir))
        assert code == 0

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "exp.toml"
        cfg.write_text('algo = "ci-sapf"\nproblem = "RC20"\nbogus = 1\n')
        code, _, err = run_cli(capsys, "run", "--config", str(cfg),
                               "--out", str(tmp_path / "z"))
        assert code == 1
        assert "bogus" in err

    @pytest.mark.parametrize("key, value", [
        ("runs", "3"), ("out", 5), ("runs", 2.5), ("seed", True),
        ("reduction_factor", "0.9"), ("negative_mode", "bogus"), ("algo", 1),
    ])
    def test_wrongly_typed_config_value_is_an_error(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"algo": "ci-sapf", "problem": "RC20", "runs": 1,
                                   "max_fe": 40, "max_attempts": 3, key: value}))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg),
                               "--out", str(tmp_path / "t"))
        assert code == 1
        assert err.startswith(f"error: config key {key}:")

    def test_int_config_value_accepted_for_float_flag(self, monkeypatch, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"infinity_substitute": 4}))
        built = built_config(monkeypatch, "run", "--algo", "ci-sapf", "--problem", "RC20",
                             "--config", str(cfg), "--out", "o")
        assert repr(built.solver.penalty.infinity_substitute) == "4.0"

    def test_out_from_config_file(self, capsys, tmp_path):
        out_dir = tmp_path / "o2"
        cfg = tmp_path / "exp.toml"
        cfg.write_text(f"algo = 'ci-sapf'\nproblem = 'RC20'\nruns = 1\nmax_fe = 60\n"
                       f"max_attempts = 4\nout = '{out_dir}'\n")
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0
        assert (out_dir / "summary.csv").exists()
        assert f"to {out_dir}" in out

    def test_suite_config_category_is_honoured(self, capsys, tmp_path):
        cfg = tmp_path / "suite.toml"
        cfg.write_text('algo = "ci-sapf"\ncategory = "process_synthesis"\nruns = 1\n'
                       "max_fe = 40\nmax_attempts = 3\n")
        out_dir = tmp_path / "ps"
        code, _, _ = run_cli(capsys, "suite", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "summary.csv", "summary.json", "trace_RC08_0.csv", "trace_RC10_0.csv"]

    def test_suite_config_problem_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "suite.toml"
        cfg.write_text('algo = "ci-sapf"\nproblem = "RC20"\nruns = 1\n'
                       "max_fe = 40\nmax_attempts = 3\n")
        code, _, err = run_cli(capsys, "suite", "--config", str(cfg),
                               "--out", str(tmp_path / "p"))
        assert code == 1
        assert "problem" in err


class TestSuiteCommand:
    def test_category_suite(self, capsys, tmp_path):
        out_dir = tmp_path / "suite"
        code, out, _ = run_cli(
            capsys, "suite", "--algo", "ci-sapf", "--category",
            "process_synthesis", "--runs", "1", "--max-fe", "40",
            "--max-attempts", "3", "--out", str(out_dir))
        assert code == 0
        text = (out_dir / "summary.csv").read_text()
        assert "RC08" in text and "RC10" in text
        assert "RC20" not in text


class TestFlatTomlParser:
    def test_scalar_types(self):
        parsed = _parse_flat_toml(
            's = "hello"\nn = 3\nx = 2.5\nflag = true\noff = false\n'
            "# comment line\nwith_comment = 7 # trailing\n"
            'out = "res#1"\nlit = \'a#b\' # c\n', "test.toml")
        assert parsed == {"s": "hello", "n": 3, "x": 2.5, "flag": True,
                          "off": False, "with_comment": 7, "out": "res#1",
                          "lit": "a#b"}

    def test_tables_rejected(self):
        with pytest.raises(ValueError):
            _parse_flat_toml("[solver]\nruns = 2\n", "test.toml")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            _parse_flat_toml("not a key value line\n", "test.toml")

    def test_loader_dispatches_on_extension(self, tmp_path):
        toml_path = tmp_path / "a.toml"
        toml_path.write_text("runs = 4\n")
        assert load_config_file(toml_path) == {"runs": 4}
        json_path = tmp_path / "a.json"
        json_path.write_text('{"runs": 5}')
        assert load_config_file(json_path) == {"runs": 5}
