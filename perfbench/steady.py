"""Repeat the benchmark and compare its run-to-run spread with its bounds.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workloads a,b]

Runs ``run.py --trace 0`` in two sets of RUNS runs per workload, each run
with its own seed and BENCHMARK.json's run length, and prints for every
end-to-end metric and set the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median. A spread fits when it is
within the metric's bound in BENCHMARK.json. It also prints how far the
second set's median moved from the first set's, which fits when it is
within the bound either way. The share of failed operations must be the
same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Two sets of the same code must agree within the bounds.
SETS = 2


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()

    ok = True
    seed = args.first_seed
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(SETS):
            runs = []
            for _ in range(args.runs):
                runs.append(one_run(workload, seed, bench["run_seconds"]))
                seed += 1
            sets.append(runs)
        shares = {(r["failed"], r["attempted"]) for runs in sets
                  for r in runs}
        ratios = {f / a for f, a in shares}
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"{workload}: correct={correct} failed/attempted={sorted(shares)}"
              f" share {'same' if len(ratios) == 1 else 'DIFFERS'}", flush=True)
        ok &= correct and len(ratios) == 1
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for k, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                fits = spread <= bound
                ok &= fits
                medians.append(med)
                print(f"  {name:14s} set {k + 1}: median {med:.5g} "
                      f"q1 {q1:.5g} q3 {q3:.5g} spread {spread:.3f} "
                      f"bound {bound} {'fits' if fits else 'TOO WIDE'}"
                      f"{' (under a third)' if spread <= bound / 3 else ''}")
            drift = (medians[1] - medians[0]) / medians[0]
            fits = abs(drift) <= bound
            ok &= fits
            print(f"  {name:14s} set 2 vs 1: moved by {drift:+.3f} "
                  f"{'fits' if fits else 'OVER BOUND'}")
    print("steady" if ok else "NOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
