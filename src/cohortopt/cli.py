"""Command line experiment driver.

Subcommands: ``list`` prints registry metadata as JSON, ``run`` solves one
problem over N seeded runs, ``suite`` does the same for every registered
problem (optionally one category). A TOML or JSON config file may supply
any flag value; explicit command line flags win over file values. Exit
code 0 covers honest infeasible outcomes; nonzero means an actual error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import fields
from pathlib import Path

try:
    import tomllib  # py >= 3.11
except ImportError:
    tomllib = None

from .bench import (CONFIG_TYPES, Algorithm, ExperimentConfig, SolverConfig,
                    emit_report, run_experiment)
from .cohort import CiConfig
from .collision import CboConfig
from .penalty import NegativeMode, PenaltyConfig
from .problem import Category
from . import suite

# Config fields whose flag has another name
_FIELD_OF_KEY = {"seed": "base_seed", "candidates": "cohort_size",
                 "variations": "variations_per_attempt",
                 "max_fe": "max_function_evaluations",
                 "max_attempts": "max_learning_attempts"}
_PENALTY_FIELDS = {f.name for f in fields(PenaltyConfig)}
# A quoted string value, optionally followed by a comment
_QUOTED = re.compile(r"""("[^"]*"|'[^']*')\s*(#.*)?""")


def _parse_flat_toml(text: str, path: str) -> dict:
    """Minimal flat key = value TOML reader for Python 3.10 (no tomllib).

    Supports strings, booleans, ints and floats at the top level, which is
    all a solver config needs. Tables are rejected.
    """
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            raise ValueError(f"{path}:{lineno}: tables are not supported; "
                             "use flat keys (or a JSON config)")
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        quoted = _QUOTED.fullmatch(value.strip())
        value = value.split("#", 1)[0].strip()
        if quoted:
            out[key] = quoted.group(1)[1:-1]
        elif value in ("true", "false"):
            out[key] = value == "true"
        else:
            try:
                out[key] = int(value)
            except ValueError:
                try:
                    out[key] = float(value)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: cannot parse value {value!r}")
    return out


def load_config_file(path: str | Path) -> dict:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".json":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        return data
    if tomllib is not None:
        return tomllib.loads(text)
    return _parse_flat_toml(text, str(path))


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--runs", type=int,
                        help=f"independent runs per problem (default {ExperimentConfig.runs})")
    parser.add_argument("--seed", type=int,
                        help="base seed; run i uses seed + i "
                             f"(default {ExperimentConfig.base_seed})")
    parser.add_argument("--candidates", type=int,
                        help=f"cohort size (default {CiConfig.cohort_size} for ci-sapf, "
                             f"{CboConfig.cohort_size} for ci-sapf-cbo)")
    parser.add_argument("--reduction-factor", type=float, dest="reduction_factor",
                        help="sampling interval reduction factor, ci-sapf only "
                             f"(default {CiConfig.reduction_factor})")
    parser.add_argument("--variations", type=int,
                        help="resamples per candidate per attempt, ci-sapf only "
                             f"(default {CiConfig.variations_per_attempt})")
    parser.add_argument("--max-fe", type=int, dest="max_fe",
                        help="function evaluation budget per run "
                             f"(default {CiConfig.max_function_evaluations})")
    parser.add_argument("--max-attempts", type=int, dest="max_attempts",
                        help="learning attempt budget per run "
                             f"(default {CiConfig.max_learning_attempts})")
    parser.add_argument("--negative-mode", choices=["literal", "shift"],
                        dest="negative_mode",
                        help="pseudo-objective treatment of negative objectives")
    parser.add_argument("--near-zero-threshold", type=float, dest="near_zero_threshold",
                        help="objective magnitude below which the offset penalty applies")
    parser.add_argument("--int-offset", type=float, dest="int_offset",
                        help="offset added to near-zero objectives in the penalty product")
    parser.add_argument("--infinity-substitute", type=float, dest="infinity_substitute",
                        help="stand-in objective value for infinite objectives")
    parser.add_argument("--saturation-window", type=int, dest="saturation_window",
                        help="attempts without improvement before stopping "
                             f"(default {CiConfig.saturation_window})")
    parser.add_argument("--saturation-tolerance", type=float, dest="saturation_tolerance",
                        help="phi range counted as no improvement "
                             f"(default {CiConfig.saturation_tolerance:g})")
    parser.add_argument("--config", help="TOML or JSON file supplying any of these keys")
    parser.add_argument("--out", help="report output directory (required)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohortopt",
        description="Constrained-optimization experiments with cohort solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="print registered problem metadata as JSON")
    p_list.add_argument("--category", choices=[c.value for c in Category])
    p_list.add_argument("--descriptors",
                        help="JSON problem-descriptor file to include (metadata only)")

    p_run = sub.add_parser("run", help="run one problem")
    p_run.add_argument("--algo", choices=[a.value for a in Algorithm])
    p_run.add_argument("--problem", help="suite id, e.g. RC20")
    _add_solver_flags(p_run)

    p_suite = sub.add_parser("suite", help="run every registered problem")
    p_suite.add_argument("--algo", choices=[a.value for a in Algorithm])
    p_suite.add_argument("--category", choices=[c.value for c in Category])
    _add_solver_flags(p_suite)

    for sub_parser in (p_run, p_suite):
        # config file values are checked against these flags
        sub_parser.set_defaults(flag_actions={a.dest: a for a in sub_parser._actions})
    return parser


def _merged_options(args: argparse.Namespace) -> dict:
    """File values first, explicit CLI flags override them.

    The keys a file may hold are the subcommand's own flags, and each
    value must already have the flag's type.
    """
    flags = {k: v for k, v in vars(args).items()
             if k not in ("command", "config", "flag_actions")}
    merged: dict = {}
    if args.config:
        file_values = load_config_file(args.config)
        unknown = set(file_values) - set(flags)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        merged.update((k, _file_value(args.flag_actions[k], v))
                      for k, v in file_values.items())
    merged.update((k, v) for k, v in flags.items() if v is not None)
    return merged


def _file_value(action: argparse.Action, value):
    """A config file's value for the flag ``action``: it must already have
    the flag's type (an int may stand for a float) and be one of its
    choices, if it has any."""
    kind = action.type or str
    if (isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind)
            or action.choices is not None and value not in action.choices):
        raise ValueError(f"config key {action.dest}: {value!r} is not a valid "
                         f"--{action.dest.replace('_', '-')} value")
    return kind(value)


def _build_solver(algorithm: Algorithm, opts: dict) -> SolverConfig:
    """The engine's config from the solver keys given; every key left out
    takes the config dataclass's default."""
    config_type = CONFIG_TYPES[algorithm]
    solver_fields = {f.name for f in fields(config_type)}
    solver, penalty = {}, {}
    for key, value in opts.items():
        name = _FIELD_OF_KEY.get(key, key)
        if name in _PENALTY_FIELDS:
            penalty[name] = NegativeMode(value) if name == "negative_mode" else value
        elif name in solver_fields:
            solver[name] = value
        else:
            raise ValueError(f"{key} (--{key.replace('_', '-')}) does not apply "
                             f"to {algorithm.value}")
    return config_type(penalty=PenaltyConfig(**penalty), **solver)


def _cmd_list(args: argparse.Namespace) -> int:
    category = Category(args.category) if args.category else None
    records = [rec.metadata() for rec in suite.list_problems(category)]
    for rec in records:
        rec["runnable"] = True
    if args.descriptors:
        records.extend(suite.load_descriptor_file(args.descriptors))
    print(json.dumps(records, indent=2))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    """``run`` (one problem) and ``suite`` (every problem of a category)."""
    opts = _merged_options(args)
    required = ("algo", "problem", "out") if args.command == "run" else ("algo", "out")
    for key in required:
        if not opts.get(key):
            raise ValueError(f"--{key} is required (flag or config file)")
    algorithm = Algorithm(opts.pop("algo"))
    out = Path(opts.pop("out"))
    if args.command == "run":
        problem_ids = (opts.pop("problem"),)
    else:
        category = opts.pop("category", None)
        records = suite.list_problems(Category(category) if category else None)
        if not records:
            raise ValueError("no registered problems match the category filter")
        problem_ids = tuple(r.suite_id for r in records)
    experiment = {_FIELD_OF_KEY.get(k, k): opts.pop(k)
                  for k in ("runs", "seed") if k in opts}
    cfg = ExperimentConfig(algorithm=algorithm, problem_ids=problem_ids,
                           solver=_build_solver(algorithm, opts), **experiment)
    outcomes = run_experiment(cfg)
    files = emit_report(outcomes, out)
    for outcome in outcomes:
        s = outcome.statistics
        shown = "infeasible" if s.best is None else f"best={s.best:.10g}"
        print(f"{s.problem_id} [{s.algorithm}] runs={s.runs} fr={s.fr:.4g}% "
              f"{shown} mcv={s.mcv:.4g} avg_fe={s.avg_fe:.6g}")
    print(f"wrote {len(files)} files to {out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"list": _cmd_list, "run": _cmd_experiment, "suite": _cmd_experiment}
    try:
        return handlers[args.command](args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
