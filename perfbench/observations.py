"""Re-measure the observations recorded in perfbench/README.md.

    python3 perfbench/observations.py

Run from the root of a checkout; it takes about 15 minutes. Each slow
expansion runs in its own process under a deadline and a 1 GiB
address-space cap, and is reported as unfinished when it hits either.
"""

import os
import random
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import homlattice as hl  # noqa: E402
from homlattice import graphs  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

# (restriction, family, k, deadline in seconds). spider(3) under li:2 has
# the constraint graph K10, so all Bell(10) = 115975 partitions are flats.
SLOW_EXPANSIONS = (("emb", "path", 8, 900), ("li:2", "path", 9, 900),
                   ("emb", "cycle", 9, 900), ("li:2", "spider", 3, 120))
README_EXAMPLE = """
from homlattice import (LI, cycle, path, count_restricted, expand,
                        serialize_expansion)
"""


def seconds(call):
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def traced(call):
    tracer = spans.Tracer()
    tracer.install()
    call()
    names = [s[0] for s in tracer.spans]
    return {name: names.count(name) for name in set(names)}


def cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def main():
    host = hl.Graph(*workloads.uniform_host(
        1000, 5000, random.Random(0)))
    c4 = graphs.cycle(4)
    rep = hl.expand(hl.HOM, c4).terms[0].graph
    print(f"cycle(4) on 1000 vertices / 5000 edges: hom_count "
          f"{seconds(lambda: hl.hom_count(c4, host)):.2f} s with edges "
          f"{c4.edge_list()}, count_restricted(HOM) "
          f"{seconds(lambda: hl.count_restricted(hl.HOM, c4, host)):.2f} s "
          f"through the representative with edges {rep.edge_list()}")

    small = hl.Graph(*workloads.uniform_host(30, 60, random.Random(0)))
    calls = traced(lambda: hl.count_restricted(hl.LI, graphs.path(5), small))
    print(f"count_restricted(LI, path(5)): {calls['treedp.hom_count']} terms, "
          f"{calls['treedp.treewidth_exact']} treewidth_exact, "
          f"{calls['treedp.validate_decomposition']} validate_decomposition")

    # A pattern the earlier calls did not put in the expansion cache.
    calls = traced(lambda: hl.expand(hl.LI, graphs.cycle(8)))
    terms = len(hl.expand(hl.LI, graphs.cycle(8)).terms)
    print(f"expand(LI, cycle(8)): {terms} classes, "
          f"{calls['graphs.canonical_form']} canonical_form and "
          f"{calls['graphs.canonical_representative']} "
          f"canonical_representative calls")

    for tau, family, k, deadline in SLOW_EXPANSIONS:
        code = (f"import sys; sys.path.insert(0, {SRC!r}); import homlattice"
                f" as hl; from homlattice import graphs; hl.expand("
                f"hl.parse_restriction({tau!r}), graphs.{family}({k}))")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", code],
                                  capture_output=True, text=True,
                                  timeout=deadline,
                                  preexec_fn=cap_memory)
            took = time.perf_counter() - t0
            status = (f"{took:.1f} s" if proc.returncode == 0 else
                      f"stopped after {took:.1f} s: "
                      f"{proc.stderr.strip().splitlines()[-1]}")
        except subprocess.TimeoutExpired:
            status = f"not finished within {deadline} s"
        print(f"expand {tau} {family}({k}): {status}", flush=True)

    proc = subprocess.run([sys.executable, "-c", README_EXAMPLE],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    print("README library example:",
          "runs" if proc.returncode == 0 else
          proc.stderr.strip().splitlines()[-1])


if __name__ == "__main__":
    main()
