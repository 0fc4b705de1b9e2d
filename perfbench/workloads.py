"""The benchmark's workloads: inputs made from a seed, and answer checks.

Every workload is a fixed list of queries over named graphs. A round runs
the whole list once, so every run attempts whole rounds of the same
operations. The seed chooses random hosts, random patterns and a random
vertex labelling of every pattern; it never changes how many queries a
round holds or which of them is expected to fail.
"""

import functools
import json
import random
from fractions import Fraction

import networkx

import references as ref

TAUS = ("hom", "emb", "li", "li:2")
# The one operation that fails today: enumerate_flats on K8 under emb
# filters all Bell(8) partitions and builds an O(F^2 n) order matrix
# before any budget check, so it runs 14-25 s. It is given this long.
FAILING_DEADLINE_S = 1.0


# ------------------------------------------------------------------ graphs

def path(k):
    return k, [(i, i + 1) for i in range(k - 1)]


def cycle(k):
    return k, [(i, (i + 1) % k) for i in range(k)]


def clique(k):
    return k, [(i, j) for i in range(k) for j in range(i + 1, k)]


def star(k):
    return k + 1, [(0, i) for i in range(1, k + 1)]


def windmill(k):
    edges = []
    for i in range(k):
        a, b = 1 + i, 1 + k + i
        edges += [(0, a), (a, b), (0, b)]
    return 2 * k + 1, edges


FAMILIES = {"path": path, "cycle": cycle, "clique": clique, "star": star,
            "windmill": windmill}


def normalized(n, edges):
    return n, sorted({(min(u, v), max(u, v)) for u, v in edges})


def relabel(graph, rng):
    n, edges = graph
    perm = list(range(n))
    rng.shuffle(perm)
    return normalized(n, [(perm[u], perm[v]) for u, v in edges])


def uniform_host(n, m, rng):
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return n, sorted(edges)


def preferential_host(n, m, rng):
    """Preferential attachment: each new vertex joins m distinct earlier
    vertices picked with probability proportional to degree."""
    edges = [(i, j) for i in range(m + 1) for j in range(i + 1, m + 1)]
    ends = [v for e in edges for v in e]
    for v in range(m + 1, n):
        chosen = set()
        while len(chosen) < m:
            chosen.add(rng.choice(ends))
        for u in sorted(chosen):
            edges.append((u, v))
            ends += [u, v]
    return normalized(n, edges)


def random_edges(n, m, rng):
    return n, sorted(rng.sample([(u, v) for u in range(n)
                                 for v in range(u + 1, n)], m))


def random_connected(n, m, rng):
    while True:
        graph = random_edges(n, m, rng)
        if len(ref.distances(*graph)[0]) == n:
            return graph


def atlas(max_n):
    """Every graph on at most max_n vertices, one per isomorphism class."""
    return [normalized(g.number_of_nodes(), g.edges())
            for g in networkx.graph_atlas_g() if g.number_of_nodes() <= max_n]


def graph_file(graph):
    n, edges = graph
    lines = [f"p edge {n} {len(edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


def matrix_file(matrix):
    rows = [" ".join(map(str, row)) for row in matrix]
    return "\n".join([str(len(matrix))] + rows) + "\n"


# ------------------------------------------------------------------ checks

@functools.lru_cache(maxsize=None)
def _chromatic(n, edges):
    return tuple(ref.independent_partitions(n, edges))


def chromatic(n, edges):
    return _chromatic(n, tuple(sorted((min(u, v), max(u, v))
                                      for u, v in edges)))


# A small fixed host that is neither regular nor bipartite: a triangle, a
# 4-cycle and a 5-cycle sharing vertices, and a pendant vertex. Terms with
# the same chromatic polynomial (every tree on k vertices, for one) have
# different hom counts into it.
CHECK_HOST = ref.adjacency(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4),
                               (0, 4), (4, 5)])


@functools.lru_cache(maxsize=None)
def _on_check_host(n, edges, tau):
    constraint = ref.constraint_edges(tau, n, edges) if tau else set()
    return ref.restricted_count(n, edges, constraint, CHECK_HOST)


def on_check_host(n, edges, tau=None):
    """Restricted count (plain hom count without tau) into CHECK_HOST."""
    return _on_check_host(n, tuple(sorted((min(u, v), max(u, v))
                                          for u, v in edges)), tau)


def isomorphic(a, b):
    ga, gb = networkx.Graph(), networkx.Graph()
    ga.add_nodes_from(range(a[0]))
    ga.add_edges_from(a[1])
    gb.add_nodes_from(range(b[0]))
    gb.add_edges_from(b[1])
    return networkx.is_isomorphic(ga, gb)


def expansion_ok(pattern, tau, terms):
    """The colouring identity, the count on CHECK_HOST, the sign law and
    the leading +1 term.

    The restricted count into K_q is the number of proper q-colourings of
    the pattern plus its constraint graph; each term contributes its
    coefficient times its own chromatic polynomial. Comparing the
    independent-partition vectors compares the polynomials at every q.
    The same sum of coefficient times hom count must give the restricted
    count into CHECK_HOST, which tells apart terms the polynomials do not.
    """
    n, edges = pattern
    union = set(edges) | ref.constraint_edges(tau, n, edges)
    want = chromatic(n, union)
    got = [0] * (n + 1)
    on_host = 0
    leading = []
    for coeff, tn, tedges in terms:
        if coeff == 0 or tn > n or (coeff > 0) != ((n - tn) % 2 == 0):
            return False
        if any(u == v or not (0 <= u < tn and 0 <= v < tn)
               for u, v in tedges):
            return False
        for k, count in enumerate(chromatic(tn, tedges)):
            got[k] += coeff * count
        on_host += coeff * on_check_host(tn, tedges)
        if tn == n:
            leading.append((coeff, (tn, tedges)))
    return (tuple(got) == want and on_host == on_check_host(n, edges, tau)
            and len(leading) == 1 and leading[0][0] == 1
            and isomorphic(leading[0][1], pattern))


def parse_expansion(text):
    """Terms of ``homlattice expand`` output: coefficient, n, 1-based edges."""
    terms = []
    for line in text.strip().splitlines():
        coeff, n, edges = (line.split("\t") + ["", ""])[:3]
        pairs = [tuple(int(x) - 1 for x in e.split("-"))
                 for e in edges.split(";") if e]
        terms.append((int(coeff), int(n), pairs))
    return terms


def minors_ok(pattern, tau, text):
    """``homlattice minors`` lists one line per isomorphism class of
    loop-free quotients, with its exact treewidth, then the maximum."""
    lines = text.strip().splitlines()
    if not lines or not lines[-1].startswith("max-treewidth: "):
        return False
    listed = []
    for line in lines[:-1]:
        n, width, edges = (line.split("\t") + ["", ""])[:3]
        pairs = [tuple(int(x) - 1 for x in e.split("-"))
                 for e in edges.split(";") if e]
        listed.append((int(n), pairs, int(width)))
    classes = []
    for q in ref.loopfree_minors(tau, *pattern):
        if not any(isomorphic(q, c) for c in classes):
            classes.append(q)
    if len(listed) != len(classes):
        return False
    for n, pairs, width in listed:
        matches = [c for c in classes if isomorphic((n, pairs), c)]
        if len(matches) != 1 or width != ref.treewidth(n, pairs):
            return False
        classes.remove(matches[0])
    widest = max((w for _, _, w in listed), default=0)
    return lines[-1] == f"max-treewidth: {widest}"


# --------------------------------------------------------------- workloads

class Workload:
    """Named graphs, the query list of one round, and answer checks.

    Query kinds run by the worker: ``expand`` (tau, pattern), ``count``
    (tau, pattern, host) and ``cli`` (argv, deadline). Keys starting with
    ``ref`` only tell the checks how to compute the reference.
    """

    def __init__(self, name, graphs, queries, files=None):
        self.name = name
        self.graphs = graphs
        self.queries = queries
        self.files = files or {}
        self._verdicts = {}
        self._counts = {}

    def worker_input(self):
        queries = [{k: v for k, v in q.items() if not k.startswith("ref")}
                   for q in self.queries]
        return {"workload": self.name, "graphs": self.graphs,
                "queries": queries}

    def check(self, index, answer):
        key = (index, json.dumps(answer, sort_keys=True))
        if key not in self._verdicts:
            self._verdicts[key] = self._check(self.queries[index], answer)
        return self._verdicts[key]

    def reference_count(self, tau, pattern, host, family=None):
        key = (tau, pattern, host)
        if key not in self._counts:
            n, edges = self.graphs[host]
            adj = ref.adjacency(n, edges)
            if family is not None:
                value = ref.closed_form(tau, family[0], family[1], adj)
            else:
                pn, pedges = self.graphs[pattern]
                value = ref.restricted_count(
                    pn, pedges, ref.constraint_edges(tau, pn, pedges), adj)
            self._counts[key] = value
        return self._counts[key]

    def _check(self, q, answer):
        if q["op"] == "expand":
            terms = [(c, n, [tuple(e) for e in edges])
                     for c, n, edges in answer]
            return expansion_ok(self.graphs[q["pattern"]], q["tau"], terms)
        if q["op"] == "count":
            return answer == self.reference_count(
                q["tau"], q["pattern"], q["host"], q.get("ref_family"))
        return self._check_cli(q, answer)

    def _check_cli(self, q, answer):
        if answer["returncode"] != 0:
            return False
        out = answer["stdout"]
        kind = q["ref_kind"]
        if kind == "count":
            tau, pattern, host, family = q["ref"]
            want = self.reference_count(tau, pattern, host, family)
            return out.strip() == str(want)
        if kind == "expand":
            tau, pattern = q["ref"]
            return expansion_ok(self.graphs[pattern], tau,
                                parse_expansion(out))
        if kind == "minors":
            tau, pattern = q["ref"]
            return minors_ok(self.graphs[pattern], tau, out)
        if kind == "lincomb":
            entries, host = q["ref"]
            total = sum((Fraction(c) * self.reference_count(t, p, host, fam)
                         for c, t, p, fam in entries), Fraction(0))
            text = (str(total.numerator) if total.denominator == 1
                    else f"{total.numerator}/{total.denominator}")
            parities = {self.graphs[p][0] % 2 for _, _, p, _ in entries}
            verdict = "yes" if len(parities) <= 1 else "no"
            return (out.strip() == text
                    and f"congruent: {verdict}" in answer["stderr"])
        if kind == "perm":
            p = ref.permanent(q["ref"])
            return out.strip() == f"perm={p} subtrees={p} match=yes"
        raise ValueError(f"unknown check {kind}")


def expand_sweep(rng):
    """expand over every graph on at most 6 vertices under each
    restriction, then a tail of 7-10-vertex patterns."""
    graphs, queries = {}, []
    for i, g in enumerate(atlas(6)):
        graphs[f"A{i}"] = relabel(g, rng)
    for tau in TAUS:
        for i in range(len(graphs)):
            queries.append({"op": "expand", "tau": tau, "pattern": f"A{i}"})
    for tau, family, k in (("li", "cycle", 10), ("li", "star", 7),
                           ("li", "windmill", 3), ("emb", "clique", 7)):
        name = f"{family}{k}"
        graphs[name] = relabel(FAMILIES[family](k), rng)
        queries.append({"op": "expand", "tau": tau, "pattern": name})
    return Workload("expand-sweep", graphs, queries)


# (tau, family, k) pairs with a closed form in references.closed_form.
LIGHT_PATTERNS = (
    ("hom", "path", 3), ("hom", "path", 4), ("hom", "path", 5),
    ("li", "path", 3), ("li", "path", 4), ("li", "path", 5),
    ("hom", "star", 3), ("li", "star", 3), ("li", "star", 4),
    ("emb", "star", 3), ("emb", "star", 4),
    ("hom", "clique", 3), ("li", "clique", 3), ("emb", "clique", 3),
)
# The cheaper pairs, for the third host.
LIGHTEST_PATTERNS = (
    ("hom", "path", 3), ("hom", "path", 4), ("li", "path", 3),
    ("li", "path", 4), ("hom", "star", 3), ("emb", "star", 3),
    ("hom", "clique", 3), ("emb", "clique", 3),
)
# Width-2 terms whose tables grow with the square of the host size.
CYCLE_PATTERNS = (("hom", "cycle", 4), ("li", "cycle", 4),
                  ("emb", "cycle", 4), ("hom", "cycle", 5))


def host_large(rng):
    """count_restricted for small patterns on large sparse hosts."""
    graphs = {
        "U2000": uniform_host(2000, 6000, rng),
        "PA2000": preferential_host(2000, 2, rng),
        "U1500": uniform_host(1500, 4500, rng),
        "U150": uniform_host(150, 450, rng),
    }
    queries = []

    def add(host, patterns):
        for tau, family, k in patterns:
            name = f"{family}{k}"
            if name not in graphs:
                graphs[name] = relabel(FAMILIES[family](k), rng)
            queries.append({"op": "count", "tau": tau, "pattern": name,
                            "host": host, "ref_family": (family, k)})

    add("U2000", LIGHT_PATTERNS)
    add("PA2000", LIGHT_PATTERNS)
    add("U1500", LIGHTEST_PATTERNS)
    add("U150", CYCLE_PATTERNS)
    return Workload("host-large", graphs, queries)


# Vertex and edge counts of the tiny hosts; the seed only picks the edges,
# so every seed asks for about the same work.
TINY_HOSTS = ((6, 6), (7, 9), (8, 11), (9, 14), (10, 18), (11, 22),
              (12, 26), (12, 26))


def many_small(rng):
    """The at most 5-vertex patterns re-queried on many tiny hosts."""
    graphs = {}
    for i, g in enumerate(atlas(5)):
        graphs[f"A{i}"] = relabel(g, rng)
    patterns = list(graphs)
    queries = []
    for h, (n, m) in enumerate(TINY_HOSTS):
        graphs[f"H{h}"] = random_edges(n, m, rng)
        for tau in TAUS:
            for p in patterns:
                queries.append({"op": "count", "tau": tau, "pattern": p,
                                "host": f"H{h}"})
    return Workload("many-small", graphs, queries)


def cli(rng):
    """Sequential ``python -m homlattice`` runs on generated files."""
    graphs = {"big": uniform_host(600, 1800, rng),
              "small": uniform_host(120, 360, rng)}
    for family, k in (("path", 3), ("path", 4), ("path", 5), ("star", 3),
                      ("star", 4), ("clique", 3), ("cycle", 4),
                      ("clique", 8)):
        graphs[f"{family}{k}"] = relabel(FAMILIES[family](k), rng)
    for i, (n, m) in enumerate(((5, 6), (5, 7), (6, 8), (6, 9))):
        graphs[f"R{i}"] = random_connected(n, m, rng)
    files = {f"{name}.g": graph_file(g) for name, g in graphs.items()}
    queries = []

    def add(argv, kind, reference, deadline=None):
        queries.append({"op": "cli", "argv": argv, "deadline": deadline,
                        "ref_kind": kind, "ref": reference})

    for tau, family, k, host in (
            ("li", "path", 3, "big"), ("li", "path", 4, "big"),
            ("li", "path", 5, "big"), ("hom", "path", 4, "big"),
            ("hom", "path", 5, "big"), ("hom", "star", 3, "big"),
            ("li", "star", 4, "big"), ("emb", "star", 3, "big"),
            ("hom", "clique", 3, "big"), ("emb", "clique", 3, "big"),
            ("hom", "cycle", 4, "small"), ("li", "cycle", 4, "small")):
        pattern = f"{family}{k}"
        add(["count", "--tau", tau, "--pattern", f"{pattern}.g",
             "--host", f"{host}.g"],
            "count", (tau, pattern, host, (family, k)))
    for i in range(4):
        for tau in ("li", "li:2", "emb"):
            add(["expand", "--tau", tau, "--pattern", f"R{i}.g"],
                "expand", (tau, f"R{i}"))
    for i in range(4):
        for tau in ("li", "li:2"):
            add(["minors", "--tau", tau, "--pattern", f"R{i}.g"],
                "minors", (tau, f"R{i}"))
    manifests = (
        (("1/2", "li", "path", 4), ("2", "hom", "clique", 3),
         ("3", "emb", "star", 3)),
        (("3/7", "li", "path", 3), ("1", "li", "path", 5)),
        (("5/3", "hom", "star", 3), ("2/5", "li", "star", 4),
         ("1", "hom", "path", 5)),
    )
    for i, entries in enumerate(manifests):
        files[f"M{i}.txt"] = "".join(f"{c} {t} {f}{k}.g\n"
                                     for c, t, f, k in entries)
        for host in ("big", "small"):
            add(["lincomb", "--manifest", f"M{i}.txt", "--host", f"{host}.g"],
                "lincomb", ([(c, t, f"{f}{k}", (f, k))
                             for c, t, f, k in entries], host))
    for i, n in enumerate((5, 5, 5, 6, 6, 6)):
        ones = set(rng.sample(range(n * n), (3 * n * n) // 5))
        matrix = [[int(r * n + c in ones) for c in range(n)]
                  for r in range(n)]
        files[f"A{i}.txt"] = matrix_file(matrix)
        add(["perm-gadget", "--matrix", f"A{i}.txt"], "perm", matrix)
    add(["expand", "--tau", "emb", "--pattern", "clique8.g"],
        "expand", ("emb", "clique8"), deadline=FAILING_DEADLINE_S)
    return Workload("cli", graphs, queries, files)


BUILDERS = {"expand-sweep": expand_sweep, "host-large": host_large,
            "many-small": many_small, "cli": cli}


def build(name, seed):
    return BUILDERS[name](random.Random(f"{name}:{seed}"))
