"""Build one uniform random host and report what building it cost.

    python3 scripts/host_scale.py --n 100000 --m 1000000 --seed 3

The host has n vertices and m distinct edges, drawn with
``random.Random(seed)`` the way the tests' ``random_host`` draws them
and handed to ``Graph`` in sorted order. The script prints the seconds
the ``Graph`` took to build, the resident memory it added over its input
edge list (``VmRSS`` growth) and the process's peak resident memory
(``VmHWM``), both read from ``/proc/self/status`` (Linux), and then one
count, hom(path(3), host), which is the sum of the squared degrees.

    python3 scripts/host_scale.py --n 50000 --m 250000 --seed 3 --drop 4

With ``--drop K`` it builds K such hosts instead, one at a time from
seeds seed, seed + 1, ..., counts hom(path(3)) once on each and drops
it, then runs a full garbage collection and prints ``VmRSS`` before the
first host and after the collection: what the dropped hosts leave
resident, such as anything the hom-count memo still holds of them.
"""

import argparse
import gc
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


def drop(args):
    """Build K hosts in turn, count on each and drop it, then collect."""
    rss = status_mb("VmRSS")
    for k in range(args.drop):
        seed = args.seed + k
        host = Graph(args.n, uniform_edges(Random(seed), args.n, args.m))
        print(f"seed {seed} hom(path(3)): {hom_count(path(3), host)}")
        del host
    gc.collect()
    print(f"vmrss_before_mb: {rss:.1f}")
    print(f"vmrss_after_mb: {status_mb('VmRSS'):.1f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--drop", type=int, metavar="K",
                        help="build, count on and drop K hosts in turn")
    args = parser.parse_args()
    if args.drop is not None:
        drop(args)
        return

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
