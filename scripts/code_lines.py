"""Count the code lines of each module of a package, and in total.

    python3 scripts/code_lines.py [DIR]

DIR defaults to this checkout's ``src/homlattice``; every ``*.py`` file
under it counts as one module. A code line holds at least one token that
is not a comment (``tokenize``), and is not part of a docstring: the
string that opens a module, class or function body (``ast``). Blank
lines, comment lines and docstrings therefore count nothing, while a
line of code with a trailing comment counts once. Prints one
``<module>: <lines>`` line per module, in path order, then
``total: <lines>``.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "homlattice"
# Tokens that never make a line one of code.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in a module's source text."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", type=Path, default=PACKAGE,
                        help="the package directory to count")
    args = parser.parse_args()
    total = 0
    for module in sorted(args.dir.rglob("*.py")):
        count = code_lines(module.read_text(encoding="utf-8"))
        total += count
        print(f"{module.relative_to(args.dir)}: {count}")
    print(f"total: {total}")


if __name__ == "__main__":
    main()
