"""One round of a workload, run in a fresh interpreter.

    python3 perfbench/worker.py ROOT INPUT_JSON MODE

MODE is ``setup`` (time the set-up only), ``plain`` (one untraced round)
or ``traced`` (one round with the boundary wrappers installed). The input
file holds the graphs and queries written by run.py. Prints one JSON
object. For the ``cli`` workload every query runs as its own
``python -m homlattice`` process, one at a time.

Times are scaled to the reference machine speed (see ``speed.py``); the
raw wall time of the round is kept beside them as ``raw_wall_s``.
"""

import json
import os
import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
# Speed samples taken just before and just after the set-up.
SETUP_SAMPLES = 3


def import_homlattice(src):
    """Import the package from the checkout's ``src`` and nowhere else."""
    sys.path.insert(0, src)
    import homlattice
    if not os.path.abspath(homlattice.__file__).startswith(src + os.sep):
        raise SystemExit(f"homlattice imported from {homlattice.__file__}, "
                         f"not from {src}")
    return homlattice


def scaled(meter, timed):
    """Take a last speed sample, then give each (start, end, counts)
    interval in reference seconds; an interval that does not count (a
    deadline waited out) keeps its raw length."""
    meter.tick(force=True)
    return [(t1 - t0) * (meter.scale(t0, t1) if counts else 1.0)
            for t0, t1, counts in timed]


def run_library(hl, graphs, taus, queries, meter):
    answers, timed, failed = [], [], []
    start = time.perf_counter()
    for i, q in enumerate(queries):
        meter.tick()
        t0 = time.perf_counter()
        try:
            if q["op"] == "expand":
                result = hl.expand(taus[q["tau"]], graphs[q["pattern"]])
            else:
                result = hl.count_restricted(taus[q["tau"]],
                                             graphs[q["pattern"]],
                                             graphs[q["host"]])
        except Exception as exc:  # one failed operation, counted as such
            timed.append((t0, time.perf_counter(), True))
            failed.append([i, f"{type(exc).__name__}: {exc}"])
            answers.append(None)
            continue
        timed.append((t0, time.perf_counter(), True))
        if q["op"] == "expand":
            result = [[t.coefficient, t.graph.n, t.graph.edge_list()]
                      for t in result.terms]
        answers.append(result)
    raw_wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    times = scaled(meter, timed)
    latencies = [t for t, a in zip(times, answers) if a is not None]
    return {"answers": answers, "latencies": latencies, "failed": failed,
            "wall_s": sum(times), "raw_wall_s": raw_wall, "peak_kb": peak_kb}


def run_cli(src, workdir, queries, traced, meter):
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("HOMLATTICE_LIMIT", None)
    answers, timed, failed, dumps = [], [], [], []
    peak_kb = None
    start = time.perf_counter()
    for i, q in enumerate(queries):
        if q["deadline"] is not None and peak_kb is None:
            # A process killed at its deadline is a failure, not a reading.
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if traced:
            dump = os.path.join(workdir, f"spans-{i}.json")
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                    dump] + q["argv"]
        else:
            argv = [sys.executable, "-m", "homlattice"] + q["argv"]
        meter.tick()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=workdir, env=env, text=True,
                                  capture_output=True, timeout=q["deadline"])
        except subprocess.TimeoutExpired:
            timed.append((t0, time.perf_counter(), False))
            failed.append([i, f"no answer within {q['deadline']} s"])
            answers.append(None)
            continue
        timed.append((t0, time.perf_counter(), True))
        answers.append({"returncode": proc.returncode, "stdout": proc.stdout,
                        "stderr": proc.stderr})
        if traced and os.path.exists(dump):
            with open(dump, encoding="utf-8") as handle:
                dumps.append(json.load(handle))
            os.remove(dump)
    raw_wall = time.perf_counter() - start
    if peak_kb is None:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    times = scaled(meter, timed)
    latencies = [t for t, a in zip(times, answers) if a is not None]
    return {"answers": answers, "latencies": latencies, "failed": failed,
            "wall_s": sum(times), "raw_wall_s": raw_wall,
            "peak_kb": peak_kb}, dumps


def main():
    root, input_path, mode = sys.argv[1:4]
    # One CPU for this process and its children, so that the speed samples
    # taken here run where the timed work runs (see speed.py): the one the
    # scheduler started it on.
    with open("/proc/self/stat", encoding="ascii") as handle:
        cpu = int(handle.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})
    with open(input_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    src = os.path.join(root, "src")
    in_library = spec["workload"] != "cli"

    meter = speed.Speedometer()
    for _ in range(SETUP_SAMPLES):
        meter.tick(force=True)
    t0 = time.perf_counter()
    hl = import_homlattice(src)
    if in_library:
        graphs = {name: hl.Graph(n, [tuple(e) for e in edges])
                  for name, (n, edges) in spec["graphs"].items()}
        taus = {q["tau"]: hl.parse_restriction(q["tau"])
                for q in spec["queries"]}
    t1 = time.perf_counter()
    for _ in range(SETUP_SAMPLES):
        meter.tick(force=True)
    setup_s = (t1 - t0) * meter.scale(t0, t1)
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    # Imported only now, so that the set-up time above is the program's.
    sys.path.insert(0, HERE)
    import spans

    traced = mode == "traced"
    tracer = spans.Tracer() if traced else None
    if in_library:
        if traced:
            tracer.install()
        out = run_library(hl, graphs, taus, spec["queries"], meter)
        if traced:
            layers = spans.layer_metrics(tracer.spans, tracer.counts)
            absent = tracer.absent
            layers["cli.import_s"] = 0.0
            layers["cli.process_s"] = 0.0
    else:
        out, dumps = run_cli(src, os.path.dirname(input_path),
                             spec["queries"], traced, meter)
        if traced:
            merged, counts, absent = spans.merge(dumps)
            layers = spans.layer_metrics(merged, counts)
            layers["cli.import_s"] = statistics.median(
                d["import_s"] for d in dumps)
            layers["cli.process_s"] = statistics.median(out["latencies"])
    if traced:
        out["layers"] = layers
        out["absent"] = absent
    out["setup_s"] = setup_s
    out["loop_s"] = statistics.median(meter.durations)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
