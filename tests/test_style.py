"""Layout rules for the sources that no installed linter checks."""

import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_no_line_exceeds_79_columns():
    long = []
    for folder in ("src/homlattice", "tests"):
        for source in sorted((ROOT / folder).rglob("*.py")):
            lines = source.read_text().splitlines()
            long += [f"{source.relative_to(ROOT)}:{number}"
                     for number, line in enumerate(lines, 1)
                     if len(line) > 79]
    assert long == []
