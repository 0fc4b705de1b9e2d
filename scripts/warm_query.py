"""Time warm restricted counts in process, by the number of terms.

    python3 scripts/warm_query.py --max-n 5 --hosts 3 --seed 1 --passes 20

Every graph with at most ``--max-n`` vertices, one per isomorphism class
(every edge set on 0..n-1, kept when its ``canonical_form`` is new), is
queried with ``count_restricted`` under ``hom``, ``emb``, ``li`` and
``li:2`` on ``--hosts`` tiny random hosts: host k has 6 + k vertices and
2 (6 + k) - 3 distinct edges, drawn with ``random.Random(seed)``. The
queries run host by host, each restriction over every pattern in turn. A
first pass fills the expansion cache and the per-host stores; each of
``--passes`` further passes times every query alone with
``time.perf_counter_ns``. The script prints one JSON line: per term
count of the query's expansion, the median ns of a warm query
(``median_ns``) and how many queries have that many terms (``queries``);
and ``timer_ns``, the median of an empty timed interval, which every
reading includes. The hom-count memo keeps the stores of at most
``treedp._MEMO_HOSTS`` hosts, and past that bound the timed queries
would count their terms again, so a larger ``--hosts`` is refused with
a usage error.
"""

import argparse
import json
import statistics
import sys
import time
from collections import defaultdict
from itertools import combinations
from pathlib import Path
from random import Random

# The package's sources, wherever the script is run from.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from homlattice import (Graph, canonical_form, count_restricted, expand,
                        parse_restriction)
from homlattice.treedp import _MEMO_HOSTS

RESTRICTIONS = ("hom", "emb", "li", "li:2")


def graphs_up_to(max_n):
    """One graph per isomorphism class on 0..max_n vertices."""
    graphs, seen = [], set()
    for n in range(max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            graph = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            key = canonical_form(graph)
            if key not in seen:
                seen.add(key)
                graphs.append(graph)
    return graphs


def tiny_host(rng, n):
    """n vertices and 2n - 3 distinct edges drawn from rng."""
    pairs = list(combinations(range(n), 2))
    return Graph(n, sorted(rng.sample(pairs, 2 * n - 3)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--hosts", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=20)
    args = parser.parse_args()
    if args.hosts > _MEMO_HOSTS:
        parser.error(f"--hosts {args.hosts} exceeds the {_MEMO_HOSTS} hosts "
                     "whose hom counts stay stored")

    rng = Random(args.seed)
    patterns = graphs_up_to(args.max_n)
    hosts = [tiny_host(rng, 6 + k) for k in range(args.hosts)]
    queries = [(parse_restriction(tau), pattern, host) for host in hosts
               for tau in RESTRICTIONS for pattern in patterns]
    terms = [len(expand(tau, pattern)) for tau, pattern, _ in queries]
    for query in queries:
        count_restricted(*query)
    clock = time.perf_counter_ns
    timer = []
    for _ in range(10000):
        start = clock()
        timer.append(clock() - start)
    readings = defaultdict(list)
    for _ in range(args.passes):
        for size, (tau, pattern, host) in zip(terms, queries):
            start = clock()
            count_restricted(tau, pattern, host)
            readings[size].append(clock() - start)
    print(json.dumps({
        "median_ns": {size: statistics.median(readings[size])
                      for size in sorted(readings)},
        "queries": {size: terms.count(size) for size in sorted(readings)},
        "timer_ns": statistics.median(timer)}))


if __name__ == "__main__":
    main()
