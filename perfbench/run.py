"""cohortopt benchmark: one workload, seeded, measured for a fixed time.

    python3 perfbench/run.py --workload accept-ci --seed 0 --seconds 15 --trace 0

Run from the root of a checkout. The package is imported from that
checkout's ``src/``; a run without it exits non-zero. The run repeats the
workload's round until ``--seconds`` have passed, checks every round, and
prints one JSON line last: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
Environment details go to standard error.
"""

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package():
    """Import cohortopt from this checkout's src/, never an installed copy."""
    if not (SRC / "cohortopt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {SRC / 'cohortopt'} not found; "
                         "run from the root of a cohortopt checkout")
    sys.path.insert(0, str(SRC))
    import cohortopt
    resolved = Path(cohortopt.__file__).resolve()
    if SRC not in resolved.parents:
        raise SystemExit(f"perfbench: imported cohortopt from {resolved}, not {SRC}")
    return cohortopt


def commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(cohortopt) -> dict:
    import numpy
    return {"cohortopt": str(Path(cohortopt.__file__).resolve().parent),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "commit": commit(),
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    cohortopt = import_package()
    print("perfbench: " + json.dumps(environment(cohortopt)), file=sys.stderr)
    import harness
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    workdir = ROOT / ".perfbench_tmp"
    workdir.mkdir(exist_ok=True)
    runner = harness.Runner(workloads.WORKLOADS[args.workload], args.seed, workdir)
    if args.trace:
        metrics = harness.measure_traced(
            runner, args.seconds,
            ROOT / ".perfbench_out" / f"trace-{args.workload}-{args.seed}.json")
    else:
        metrics = harness.measure(runner, args.seconds, SRC)
    for message in (runner.faults + runner.errors)[:20]:
        print(f"perfbench: {message}", file=sys.stderr)
    print(json.dumps({"correct": not runner.errors, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
