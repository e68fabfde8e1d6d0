"""Steadiness check: two sets of seeded runs per workload, compared.

    python3 perfbench/steady.py [--workloads accept-ci,suite-cli] [--seeds 10]

Set 1 runs every workload once per seed with seeds 1..n, set 2 with seeds
n+1..2n, each run as long as ``run_seconds`` in BENCHMARK.json. Per
workload and end-to-end metric it prints each set's median and quartiles,
the spread (quartile distance over the median) against the bound in
BENCHMARK.json ("steady" within a third of it, "within bound", or
"UNSTEADY"; a wide spread of setup_s is reported but not judged), and
whether the two medians differ by more than the bound, in either
direction. It also checks that every run was correct and that
the share of failed operations is the same in every run. Raw results are
appended to .perfbench_out/steady.jsonl. Exits non-zero if a spread
exceeds its bound, the medians disagree, a run was not correct or the
failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
FIRST_SEED = 1


def run_once(command, workload, seed, seconds) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, elapsed_s=elapsed)
    if not result["correct"]:
        result["stderr"] = done.stderr.splitlines()[-10:]
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)

    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for k in range(SETS):
            seeds = range(FIRST_SEED + k * args.seeds, FIRST_SEED + (k + 1) * args.seeds)
            runs = []
            for seed in seeds:
                result = run_once(spec["command"], workload, seed, spec["run_seconds"])
                with (out / "steady.jsonl").open("a") as fh:
                    fh.write(json.dumps(result) + "\n")
                runs.append(result)
            sets.append(runs)
        print(f"== {workload}: {SETS} sets x {args.seeds} seeds, "
              f"run length {min(r['elapsed_s'] for s in sets for r in s):.1f}-"
              f"{max(r['elapsed_s'] for s in sets for r in s):.1f} s")
        shares = {r["failed"] / r["attempted"] for s in sets for r in s}
        correct = all(r["correct"] for s in sets for r in s)
        print(f"   correct={correct} failed shares={sorted(shares)}")
        ok &= correct and len(shares) == 1
        for name, metric in metrics.items():
            bound = metric["bound"]
            figures = [spread([r["metrics"][name]["value"] for r in s]) for s in sets]
            cells = "  ".join(f"med {m:.5g} [{q1:.5g}, {q3:.5g}] spread {sp:.3f}"
                              for m, q1, q3, sp in figures)
            spreads = [sp for _, _, _, sp in figures]
            if max(spreads) <= bound / 3:
                verdict = "steady"
            elif max(spreads) <= bound:
                verdict = "within bound"
            elif name == "setup_s":
                # a few 0.1 s interpreter starts follow the host's load;
                # only the median of set-up time is held to its bound
                verdict = "wide (spread not judged)"
            else:
                verdict = "UNSTEADY"
                ok = False
            change = (figures[1][0] - figures[0][0]) / figures[0][0]
            agree = abs(change) <= bound
            ok &= agree
            print(f"   {name:12s} {cells}  bound {bound}  {verdict}  "
                  f"second median {change:+.3f} {'agrees' if agree else 'DISAGREES'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
