"""The homlattice benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src``
there. The seed makes the inputs; the program only receives the graphs.
Each round runs the workload's whole query list once in a fresh
interpreter (closed loop, one client), and rounds repeat while the next
one still fits in S seconds, so a round longer than S runs once. Every
answer is checked against references computed apart from the program.
Times are scaled to a reference machine speed measured beside the program
(``speed.py``), because the raw speed of a shared machine drifts.

With ``--trace 0`` the last line of output carries the end-to-end
metrics; with ``--trace 1`` plain and traced rounds alternate and it
carries the per-layer metrics. The line before states the round count,
the tail percentile and its sample count, and any failed operations.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Extra fresh interpreters per run that only time the set-up.
SETUP_PROBES = 20
# A tail needs at least this many samples per round (ten beyond it).
MIN_TAIL_SAMPLES = 40

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    LAYER_UNITS = {m["name"]: m["unit"] for m in json.load(_f)["per_layer"]}


def spawn(input_path, mode):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), ROOT, input_path,
         mode], capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(input_path, seconds, modes):
    """Cycle through ``modes`` until another cycle would overrun."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for mode in modes:
            rounds.append((mode, spawn(input_path, mode)))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return rounds


def tail(latencies):
    """Latency with ten samples beyond it, and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < MIN_TAIL_SAMPLES:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(plain, setups):
    tails = [tail(r["latencies"]) for r in plain]
    pooled = [x for r in plain for x in r["latencies"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
        "query_p50_ms": (1000 * statistics.median(pooled), "ms"),
        "query_tail_ms": (1000 * statistics.median(t for t, _ in tails),
                          "ms"),
        "peak_rss_mb": (statistics.median(r["peak_kb"] for r in plain) / 1024,
                        "MB"),
    }
    per_round = len(plain[0]["latencies"])
    raw_wall = statistics.median(r["raw_wall_s"] for r in plain)
    loop_ms = 1000 * statistics.median(r["loop_s"] for r in plain)
    note = (f"query_tail_ms is p{tails[0][1]:.1f} of {per_round} samples "
            f"per round, median over {len(plain)} rounds "
            f"({len(pooled)} samples); times in reference seconds, "
            f"raw wall_s {raw_wall:.4g}, speed loop {loop_ms:.3f} ms")
    return metrics, note


def per_layer(plain, traced):
    layers = {name: statistics.median_low(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    # Each traced round against the plain round just before it, so that
    # a drift in machine speed between distant rounds cancels out.
    layers["trace.overhead_s"] = statistics.median(
        t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    metrics = {name: (layers[name], unit)
               for name, unit in LAYER_UNITS.items()}
    absent = sorted({a for r in traced for a in r["absent"]})
    note = f"{len(traced)} traced rounds"
    if absent:
        note += "; absent boundaries: " + ", ".join(absent)
    return metrics, note


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "homlattice",
                                       "__init__.py")):
        raise SystemExit(f"no homlattice sources under {ROOT}/src")

    workload = workloads.build(args.workload, args.seed)
    workdir = os.path.join(ROOT, ".perfbench-work", f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        input_path = os.path.join(workdir, "input.json")
        with open(input_path, "w", encoding="utf-8") as handle:
            json.dump(workload.worker_input(), handle)
        for name, text in workload.files.items():
            with open(os.path.join(workdir, name), "w",
                      encoding="utf-8") as handle:
                handle.write(text)
        setups = [spawn(input_path, "setup")["setup_s"]
                  for _ in range(0 if args.trace else SETUP_PROBES)]
        modes = ("plain", "traced") if args.trace else ("plain",)
        rounds = run_rounds(input_path, args.seconds, modes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    attempted = failed = 0
    correct = True
    for _, r in rounds:
        attempted += len(r["answers"])
        failed += len(r["failed"])
        for i, answer in enumerate(r["answers"]):
            if answer is not None and not workload.check(i, answer):
                correct = False
                print(f"wrong answer to query {i}: "
                      f"{workload.queries[i]}", file=sys.stderr)
    reasons = sorted({f"query {i}: {why}" for _, r in rounds
                      for i, why in r["failed"]})
    for reason in reasons:
        print(f"failed {reason}", file=sys.stderr)

    plain = [r for mode, r in rounds if mode == "plain"]
    traced = [r for mode, r in rounds if mode == "traced"]
    if args.trace:
        metrics, note = per_layer(plain, traced)
    else:
        metrics, note = end_to_end(
            plain, setups + [r["setup_s"] for _, r in rounds])
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} attempted, {failed} failed; {note}")
    out = {name: {"value": value, "unit": unit}
           for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))


if __name__ == "__main__":
    main()
