"""The machine's speed, sampled beside the program, to scale its times.

The machines this benchmark runs on share their cores with other work:
the same pure-Python code runs up to half again as slow in phases of a
few seconds, and its level drifts over minutes, so raw times of whole
runs spread by a third from one run to the next. A ``Speedometer`` times
a fixed loop of interpreter work every ``EVERY_S`` seconds between the
program's queries. Each query's time is then scaled by how fast that loop
ran around it, to seconds at the speed the loop runs at in
``REFERENCE_S``. The program never runs inside the loop, so a change to
the program moves scaled times exactly as it moves raw ones. The samples
only track the speed of the CPU they run on, so the caller keeps itself
and the work it times on one CPU.
"""

import bisect
import itertools
import statistics
import time

# Median time of one ``_loop`` on the reference machine (2-vCPU Xeon VM,
# Python 3.11.7): 0.93-1.54 ms over six expand-sweep rounds. A scaled time
# is a raw time at that loop speed.
REFERENCE_S = 0.0011
# Sample at most this often, and use the samples within WINDOW_S of a
# timed interval to scale it.
EVERY_S = 0.05
WINDOW_S = 0.25


class _Vertex:
    __slots__ = ("label", "nbrs")

    def __init__(self, label):
        self.label = label
        self.nbrs = set()


# A fixed 4-regular graph on 150 vertices for the table half of the loop.
_RING = [frozenset((7 * v + 13 * k) % 150 for k in range(1, 5))
         for v in range(150)]


def _loop():
    """Interpreter work of the two kinds the program does. A search over
    vertex orders of a small graph with objects, sets and sorted edge
    tuples, as in flats and canonical forms; then tables keyed by tuples
    extended along host edges and summed back, as in the tree-decomposition
    DP. Contention slows the two by different factors, and on both the
    pattern-side and the host-side workloads their sum tracked the
    program's speed better than either alone or a plain dict loop."""
    vertices = [_Vertex(i) for i in range(9)]
    for u, v in itertools.combinations(range(9), 2):
        if (5 * u + 3 * v) % 4:
            vertices[u].nbrs.add(v)
            vertices[v].nbrs.add(u)
    classes = {}
    for order in itertools.islice(itertools.permutations(range(9)), 15):
        key = frozenset(tuple(sorted((order[u], order[v])))
                        for u in range(9) for v in vertices[u].nbrs if u < v)
        classes[key] = classes.get(key, 0) + len(vertices[order[0]].nbrs)
    table = {(v,): 1 for v in range(150)}
    for _ in range(2):
        longer = {}
        for key, count in table.items():
            for g in _RING[key[-1]]:
                if len(key) < 2 or g != key[-2]:
                    longer[key + (g,)] = count
        table = {}
        for key, count in longer.items():
            table[key[1:]] = table.get(key[1:], 0) + count
    return len(classes) + len(table)


class Speedometer:
    def __init__(self):
        self.times = []  # midpoint of each sample, in order
        self.durations = []
        self._last = float("-inf")

    def tick(self, force=False):
        """Take a sample if none was taken in the last EVERY_S seconds."""
        if not force and time.perf_counter() - self._last < EVERY_S:
            return
        t0 = time.perf_counter()
        _loop()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self._last = t1

    def scale(self, start, end):
        """Factor from raw seconds over [start, end] to reference seconds."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:  # no sample close by: take the last one before
            lo = min(max(lo, 1), len(self.times)) - 1
            hi = lo + 1
        return REFERENCE_S / statistics.median(self.durations[lo:hi])
