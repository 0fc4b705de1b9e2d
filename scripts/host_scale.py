"""Build one uniform random host and report what building it cost.

    python3 scripts/host_scale.py --n 100000 --m 1000000 --seed 3

The host has n vertices and m distinct edges, drawn with
``random.Random(seed)`` the way the tests' ``random_host`` draws them
and handed to ``Graph`` in sorted order. The script prints the seconds
the ``Graph`` took to build, the resident memory it added over its input
edge list (``VmRSS`` growth) and the process's peak resident memory
(``VmHWM``), both read from ``/proc/self/status`` (Linux), and then one
count, hom(path(3), host), which is the sum of the squared degrees.
"""

import argparse
import sys
import time
from pathlib import Path
from random import Random

# The package's sources, wherever the script is run from.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from homlattice import Graph, hom_count, path


def uniform_edges(rng, n, m):
    """m distinct pairs (u, v), u < v, of vertices 0..n-1, sorted."""
    if m > n * (n - 1) // 2:
        raise SystemExit(f"{n} vertices hold at most {n * (n - 1) // 2} "
                         f"edges, not {m}")
    edges = set()
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def status_mb(field):
    """A memory field of /proc/self/status, in MB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise SystemExit(f"no {field} in /proc/self/status")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    edges = uniform_edges(Random(args.seed), args.n, args.m)
    rss = status_mb("VmRSS")
    start = time.perf_counter()
    host = Graph(args.n, edges)
    build_s = time.perf_counter() - start
    print(f"host: {args.n} vertices, {args.m} edges, seed {args.seed}")
    print(f"build_s: {build_s:.3f}")
    print(f"rss_growth_mb: {status_mb('VmRSS') - rss:.1f}")
    print(f"vmhwm_mb: {status_mb('VmHWM'):.1f}")
    print(f"hom(path(3)): {hom_count(path(3), host)}")


if __name__ == "__main__":
    main()
