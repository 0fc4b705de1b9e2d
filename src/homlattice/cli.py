"""Command-line front end.

Graphs are read in a DIMACS-like format: optional comment lines starting
with ``c``, one header ``p edge <n> <m>``, then exactly m lines
``e <u> <v>`` with distinct 1-based endpoints. Stdout carries only the
answer; diagnostics go to stderr. Exit codes: 1 for usage or
precondition failures, 2 for unparsable input, 3 for pattern-size or
budget limits.
"""

import argparse
import os
import sys

from . import basis
from .errors import (
    BudgetError,
    DEFAULT_PATTERN_LIMIT,
    HomlatticeError,
    ParseError,
    PatternSizeError,
    _decimal,
)
from .graphs import Graph
from .restrictions import parse_restriction
from .treedp import treewidth_exact


def parse_graph(text):
    n = None
    m = None
    edges = []
    seen = set()
    for raw in text.splitlines():
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError(f"bad problem line: {raw!r}")
            n, m = _decimal(parts[2]), _decimal(parts[3])
            if n is None or m is None:
                raise ParseError(f"bad problem line: {raw!r}")
            if n < 0 or m < 0:
                raise ParseError("vertex and edge counts must be nonnegative")
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge line before problem line")
            if len(parts) != 3:
                raise ParseError(f"bad edge line: {raw!r}")
            u, v = _decimal(parts[1]), _decimal(parts[2])
            if u is None or v is None:
                raise ParseError(f"bad edge line: {raw!r}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"endpoint out of range: {raw!r}")
            if u == v:
                raise ParseError(f"selfloop not allowed: {raw!r}")
            pair = (min(u, v) - 1, max(u, v) - 1)
            if pair in seen:
                raise ParseError(f"duplicate edge: {raw!r}")
            seen.add(pair)
            edges.append(pair)
        else:
            raise ParseError(f"unrecognized line: {raw!r}")
    if n is None:
        raise ParseError("missing problem line")
    if len(edges) != m:
        raise ParseError(f"expected {m} edges, found {len(edges)}")
    return Graph(n, edges)


def serialize_graph(graph):
    lines = [f"p edge {graph.n} {graph.m}"]
    for u, v in graph.edge_list():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def _read_file(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise HomlatticeError(f"cannot read {path}: {exc.strerror}") from None


def _load_graph(path):
    return parse_graph(_read_file(path))


def _parse_coefficient(text):
    from fractions import Fraction

    num, slash, den = text.partition("/")
    num, den = _decimal(num), _decimal(den) if slash else 1
    if num is None or not den:  # not a number, or a zero denominator
        raise ParseError(f"bad coefficient: {text!r}")
    coeff = Fraction(num, den)
    if coeff <= 0:
        raise ParseError(f"coefficient must be positive: {text!r}")
    return coeff


def parse_manifest(text, base_dir):
    """Lines ``<coeff> <restriction> <graph-path>``; paths are resolved
    relative to the manifest's directory. Blank lines and lines whose
    first field starts with ``#`` are skipped."""
    entries = []
    for raw in text.splitlines():
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 3:
            raise ParseError(f"manifest line needs 3 fields: {raw!r}")
        coeff = _parse_coefficient(parts[0])
        restriction = parse_restriction(parts[1])
        path = parts[2]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        entries.append((coeff, restriction, _load_graph(path)))
    return entries


def _cmd_count(args):
    restriction = parse_restriction(args.tau)
    pattern = _load_graph(args.pattern)
    host = _load_graph(args.host)
    if args.method == "basis":
        value = basis.count_restricted(restriction, pattern, host,
                                       limit=args.limit)
    else:
        from . import oracle

        value = oracle.brute_restricted(restriction, pattern, host)
    print(value)
    return 0


def _cmd_expand(args):
    restriction = parse_restriction(args.tau)
    pattern = _load_graph(args.pattern)
    expansion = basis.expand(restriction, pattern, limit=args.limit)
    print(basis.serialize_expansion(expansion))
    return 0


def _cmd_minors(args):
    restriction = parse_restriction(args.tau)
    pattern = _load_graph(args.pattern)
    widths = []
    for term in basis.expand(restriction, pattern, limit=args.limit).terms:
        width, _ = treewidth_exact(term.graph, limit=args.limit)
        widths.append(width)
        edges = ";".join(f"{u + 1}-{v + 1}"
                         for u, v in term.graph.edge_list())
        print(f"{term.graph.n}\t{width}\t{edges}")
    print(f"max-treewidth: {max(widths)}")
    return 0


def _cmd_lincomb(args):
    text = _read_file(args.manifest)
    base_dir = os.path.dirname(os.path.abspath(args.manifest))
    entries = parse_manifest(text, base_dir)
    combination = basis.LinearCombination.build(entries)
    host = _load_graph(args.host)
    value = basis.evaluate_combination(combination, host, limit=args.limit)
    if value.denominator == 1:
        print(value.numerator)
    else:
        print(f"{value.numerator}/{value.denominator}")
    verdict = "yes" if basis.is_congruent(combination) else "no"
    print(f"congruent: {verdict}", file=sys.stderr)
    return 0


def _cmd_perm_gadget(args):
    from . import oracle, permtree

    matrix = permtree.parse_matrix(_read_file(args.matrix))
    check = permtree.verify_permanent_identity(matrix)
    verdict = "yes" if check.match else "no"
    print(f"perm={check.permanent} subtrees={check.subtree_count} "
          f"match={verdict}")
    if args.check:
        try:
            direct = oracle.permanent_direct(matrix)
        except BudgetError as exc:
            print(f"check: direct enumeration skipped ({exc})",
                  file=sys.stderr)
        else:
            status = "agree" if direct == check.permanent else "disagree"
            print(f"check: direct enumeration {status} ({direct})",
                  file=sys.stderr)
    return 0


def _limit(text):
    """The ``--limit`` value, read like the integers of input files (see
    ``errors._decimal``): ``1_0``, `` 2``, ``+3`` and other scripts'
    digits are usage errors, as ``abc`` is."""
    value = _decimal(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--limit", type=_limit, default=None,
                        help="override the pattern-size limit "
                             f"(default {DEFAULT_PATTERN_LIMIT})")
    parser = argparse.ArgumentParser(
        prog="homlattice", description="restricted homomorphism counting")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common],
                       help="count restricted homomorphisms")
    p.add_argument("--tau", required=True,
                   help="restriction: hom, emb, li, or li:R")
    p.add_argument("--pattern", required=True, help="pattern graph file")
    p.add_argument("--host", required=True, help="host graph file")
    p.add_argument("--method", choices=("basis", "oracle"), default="basis")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("expand", parents=[common],
                       help="print the homomorphism-basis expansion")
    p.add_argument("--tau", required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("minors", parents=[common],
                       help="list condensed quotients with treewidths")
    p.add_argument("--tau", required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=_cmd_minors)

    p = sub.add_parser("lincomb", parents=[common],
                       help="evaluate a weighted combination of counts")
    p.add_argument("--manifest", required=True,
                   help="lines: <coeff> <restriction> <graph-path>")
    p.add_argument("--host", required=True)
    p.set_defaults(func=_cmd_lincomb)

    p = sub.add_parser("perm-gadget",
                       help="verify the permanent/subtree identity")
    p.add_argument("--matrix", required=True, help="0/1 matrix file")
    p.add_argument("--check", action="store_true",
                   help="cross-check the permanent by direct enumeration")
    p.set_defaults(func=_cmd_perm_gadget)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PatternSizeError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except HomlatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    raise SystemExit(main())
